// Functional workloads: whole-model inference through ULayerRuntime::Run in a
// closed loop (one caller; the next input is sent when the previous result
// returns), plus the traced node-by-node replay of the runtime's own plan
// that yields per-kernel host time.

#include <algorithm>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "alloc_counter.h"
#include "common.h"
#include "core/compute.h"
#include "core/partitioner.h"
#include "core/predictor.h"
#include "core/runtime.h"
#include "memory/arena.h"
#include "models/model.h"
#include "parallel/thread_pool.h"
#include "soc/work.h"
#include "verify/verify.h"

namespace perfbench {
namespace {

using ulayer::DType;
using ulayer::ExecConfig;
using ulayer::Model;
using ulayer::Plan;
using ulayer::PreparedModel;
using ulayer::ProcKind;
using ulayer::RunResult;
using ulayer::Tensor;
using ulayer::ULayerRuntime;

struct FunctionalSpec {
  std::string workload;
  std::string family;  // Names executor.timing_only_us.<family>.
  std::function<Model()> make;
  ExecConfig config;
  // The traced run also measures the serve layer (MeasureServeLayers).
  bool serve_layers = false;
};

// Weights (fixed seed inside MaterializeWeights) and calibration inputs are
// part of the model definition, so they never depend on --seed.
constexpr int kCalibrationInputs = 4;
constexpr uint64_t kCalibrationSeed = 0xca11b;
// The golden check set: fixed inputs, independent of --seed.
constexpr int kCheckInputs = 3;
constexpr uint64_t kCheckSeed = 0xc0de;
// Distinct seeded inputs the closed loop cycles through.
constexpr int kInputPool = 8;
// Timed inferences required per run: p90 then has >= 10 samples beyond it.
constexpr int64_t kMinTimed = 100;

const std::vector<FunctionalSpec>& Specs() {
  static const std::vector<FunctionalSpec> kSpecs = {
      {"googlenet_pf", "googlenet", [] { return ulayer::MakeGoogLeNet(1, 112); },
       ExecConfig::ProcessorFriendly(), true},
      {"vgg16_f32", "vgg16", [] { return ulayer::MakeVgg16(1, 64); }, ExecConfig::AllF32(),
       false},
  };
  return kSpecs;
}

const FunctionalSpec& SpecOf(const std::string& workload) {
  for (const FunctionalSpec& s : Specs()) {
    if (s.workload == workload) {
      return s;
    }
  }
  throw std::invalid_argument("unknown functional workload " + workload);
}

std::vector<Tensor> MakeInputs(const ulayer::Shape& shape, uint64_t base_seed, int n) {
  std::vector<Tensor> v;
  for (int i = 0; i < n; ++i) {
    Tensor t(shape, DType::kF32);
    ulayer::FillUniform(t, base_seed + static_cast<uint64_t>(i));
    v.push_back(std::move(t));
  }
  return v;
}

uint64_t Digest(const Tensor& t) {
  return Fnv1a(t.raw(), static_cast<size_t>(t.SizeBytes()));
}

ULayerRuntime::Options RuntimeOptions(const FunctionalSpec& s) {
  ULayerRuntime::Options o;
  o.config = s.config;  // cpu_threads stays 0: the plan never sees the host budget.
  return o;
}

// A model deployed behind the runtime. The runtime references the model, so
// it is declared after it and destroyed first.
struct Deployed {
  std::unique_ptr<Model> model;
  std::unique_ptr<ULayerRuntime> rt;
};

Deployed Deploy(const FunctionalSpec& s, const std::vector<Tensor>& calibration) {
  Deployed d;
  d.model = std::make_unique<Model>(s.make());
  d.model->MaterializeWeights();
  d.rt = std::make_unique<ULayerRuntime>(*d.model, ulayer::MakeExynos7420(), RuntimeOptions(s));
  d.rt->Calibrate(calibration);
  return d;
}

const Tensor& OutputOf(const RunResult& r) {
  if (!r.output.has_value()) {
    throw std::runtime_error("functional run returned no output");
  }
  return *r.output;
}

std::string DTypeLabel(DType t) {
  switch (t) {
    case DType::kF32:
      return "f32";
    case DType::kF16:
      return "f16";
    case DType::kQUInt8:
      return "qu8";
    default:
      return "other";
  }
}

bool IsGemmKind(ulayer::LayerKind k) {
  return k == ulayer::LayerKind::kConv || k == ulayer::LayerKind::kFullyConnected ||
         k == ulayer::LayerKind::kDepthwiseConv;
}

// "<kind>.<dtype>" of one kernel call, or "other" when the pair is not one
// the benchmark reports by name.
std::string PairName(const PreparedModel& pm, const ulayer::Node& n, ProcKind proc) {
  const ExecConfig& cfg = pm.config();
  std::string dtype = DTypeLabel(cfg.storage);
  if (IsGemmKind(n.desc.kind) && cfg.storage == DType::kQUInt8 &&
      cfg.ComputeFor(proc) == DType::kF16) {
    dtype = "qu8_via_f16";
  }
  const std::string pair = std::string(ulayer::LayerKindName(n.desc.kind)) + "." + dtype;
  const std::vector<std::string>& known = KernelPairs();
  return std::find(known.begin(), known.end(), pair) != known.end() ? pair : "other";
}

// Per-inference sums of one kernel pair.
struct PairIter {
  double ms = 0.0;
  int64_t calls = 0;
  int64_t allocs = 0;
  double ops = 0.0;
};

// What one replayed inference spent, by kernel pair.
struct InferenceSums {
  std::map<std::string, PairIter> pairs;
  PairIter stage;  // StageViaF16Cols calls.
  double prepare_us = 0.0;
};

// Replays a plan node by node through the same public compute entry points
// the executor calls (ComputeNodeSlice / StageViaF16Cols), in the executor's
// order and with its slice and staging rules, timing every kernel call under
// a span. Activations are owned tensors and the arena is sized by
// NodeScratchBytes; neither changes a byte of the output.
class Replayer {
 public:
  Replayer(const PreparedModel& pm, const Plan& plan, SpanRecorder& rec)
      : pm_(pm), plan_(plan), rec_(rec) {
    const ulayer::Graph& g = pm.graph();
    act_.resize(static_cast<size_t>(g.size()));
    int64_t scratch = 0;
    for (const ulayer::Node& n : g.nodes()) {
      if (n.desc.kind != ulayer::LayerKind::kInput) {
        act_[static_cast<size_t>(n.id)] = pm.MakeActivation(n.id);
        scratch = std::max(scratch, ulayer::NodeScratchBytes(pm, n));
      }
    }
    arena_.Reserve(static_cast<size_t>(scratch));
    scratch_bytes_ = scratch;
  }

  int64_t scratch_bytes() const { return scratch_bytes_; }

  // One inference; its spans are children of span `parent`.
  const Tensor& Run(const Tensor& input, int64_t parent, int64_t request, InferenceSums& sums) {
    parent_ = parent;
    request_ = request;
    const ulayer::Graph& g = pm_.graph();
    const ExecConfig& cfg = pm_.config();
    const int64_t pid = rec_.Begin("quant.prepare_input", parent_, request_);
    act_[0] = pm_.PrepareInput(input);
    sums.prepare_us += rec_.End(pid) * 1e3;

    for (const ulayer::Node& n : g.nodes()) {
      if (n.desc.kind == ulayer::LayerKind::kInput) {
        continue;
      }
      const ulayer::NodeAssignment& a = plan_.nodes[static_cast<size_t>(n.id)];
      const ulayer::ResolvedSplit split = ulayer::ResolveSplit(a, n.out_shape.c);
      const bool coop = a.kind == ulayer::StepKind::kCooperative && !split.cpu.empty() &&
                        !split.gpu.empty();
      arena_.Reset();
      if (!coop) {
        const ProcKind proc = a.kind == ulayer::StepKind::kCooperative
                                  ? (split.gpu.empty() ? ProcKind::kCpu : ProcKind::kGpu)
                                  : a.proc;
        Slice(n, proc, 0, n.out_shape.c, nullptr, sums);
        continue;
      }
      const Half* staged = nullptr;
      if (cfg.ComputeFor(ProcKind::kCpu) == DType::kF16 &&
          cfg.ComputeFor(ProcKind::kGpu) == DType::kF16) {
        const int64_t sid = rec_.Begin("kernels.stage_f16", parent_, request_);
        const int64_t a0 = AllocCount();
        staged = ulayer::StageViaF16Cols(pm_, n.id, act_, &arena_);
        sums.stage.allocs += AllocCount() - a0;
        sums.stage.ms += rec_.End(sid);
        sums.stage.calls += staged != nullptr ? 1 : 0;
      }
      const ulayer::memory::ScratchArena::Mark mark = arena_.MarkPoint();
      Slice(n, ProcKind::kCpu, split.cpu.begin, split.cpu.end, staged, sums);
      if (staged != nullptr) {
        arena_.ResetTo(mark);
      } else {
        arena_.Reset();
      }
      Slice(n, ProcKind::kGpu, split.gpu.begin, split.gpu.end, staged, sums);
    }
    return act_[static_cast<size_t>(g.OutputId())];
  }

 private:
  using Half = ulayer::Half;

  void Slice(const ulayer::Node& n, ProcKind proc, int64_t c0, int64_t c1, const Half* staged,
             InferenceSums& sums) {
    const std::string pair = PairName(pm_, n, proc);
    const double macs = ulayer::ComputeWork(pm_.graph(), n, pm_.config().storage, c0, c1).macs;
    const int64_t id = rec_.Begin("kernels." + pair, parent_, request_);
    const int64_t a0 = AllocCount();
    ulayer::ComputeNodeSlice(pm_, n.id, proc, act_, c0, c1, &arena_, staged);
    const int64_t allocs = AllocCount() - a0;
    const double ms = rec_.End(id);
    PairIter& p = sums.pairs[pair];
    p.ms += ms;
    p.calls += 1;
    p.allocs += allocs;
    p.ops += 2.0 * macs;
  }

  const PreparedModel& pm_;
  const Plan& plan_;
  SpanRecorder& rec_;
  std::vector<Tensor> act_;
  ulayer::memory::ScratchArena arena_;
  int64_t scratch_bytes_ = 0;
  int64_t parent_ = -1;
  int64_t request_ = -1;
};

// Median of one PairIter field over replayed inferences.
template <typename T>
double MedianOf(const std::vector<PairIter>& its, T PairIter::*field) {
  std::vector<double> v;
  for (const PairIter& p : its) {
    v.push_back(static_cast<double>(p.*field));
  }
  return Median(v);
}

// What a replay loop measured, one entry per inference.
struct ReplayStats {
  std::map<std::string, std::vector<PairIter>> pairs;  // Every reported pair + "other".
  std::vector<int64_t> spans;         // Inference span ids.
  std::vector<double> wall_ms;        // Inference span durations.
  std::vector<double> kernel_sum_ms;  // Sum of kernel spans per inference.
  std::vector<double> prepare_us;
  std::vector<PairIter> stage;
  int64_t mismatches = 0;
  int64_t inferences = 0;
};

// Replays inferences until `budget_ms` is spent (at least `min_iters`),
// checking each output against the runtime's digest for the same input.
ReplayStats Replay(Replayer& rp, const std::vector<Tensor>& pool,
                   const std::vector<uint64_t>& expected, SpanRecorder& rec, double budget_ms,
                   int min_iters, int64_t first_request) {
  ReplayStats st;
  const Clock::time_point t0 = Clock::now();
  for (int64_t i = 0; i < min_iters || MsSince(t0) < budget_ms; ++i) {
    const size_t k = static_cast<size_t>(i) % pool.size();
    InferenceSums sums;
    const int64_t request = first_request + i;
    const int64_t sid = rec.Begin("inference", -1, request);
    const Tensor& out = rp.Run(pool[k], sid, request, sums);
    st.wall_ms.push_back(rec.End(sid));
    st.spans.push_back(sid);
    if (Digest(out) != expected[k]) {
      ++st.mismatches;
    }
    double sum = sums.stage.ms;
    for (const auto& [pair, p] : sums.pairs) {
      sum += p.ms;
    }
    for (const std::string& pair : KernelPairs()) {
      st.pairs[pair].push_back(sums.pairs[pair]);  // Zero when the pair did not run.
    }
    st.pairs["other"].push_back(sums.pairs["other"]);
    st.kernel_sum_ms.push_back(sum);
    st.prepare_us.push_back(sums.prepare_us);
    st.stage.push_back(sums.stage);
    ++st.inferences;
  }
  return st;
}

// Runs the check set and compares it with the committed golden digests.
void CheckGolden(const FunctionalSpec& s, ULayerRuntime& rt, const ulayer::Shape& shape,
                 const Options& opt, Outcome& out) {
  GoldenSet golden;
  if (!ReadGolden(opt.golden_path, golden) || golden.count(s.workload) == 0 ||
      golden[s.workload].size() != static_cast<size_t>(kCheckInputs)) {
    out.Fail("golden digests for " + s.workload + " missing or malformed in " +
             opt.golden_path);
    out.failed += kCheckInputs;
    out.attempted += kCheckInputs;
    return;
  }
  const std::vector<Tensor> check = MakeInputs(shape, kCheckSeed, kCheckInputs);
  for (int i = 0; i < kCheckInputs; ++i) {
    ++out.attempted;
    const uint64_t d = Digest(OutputOf(rt.Run(&check[static_cast<size_t>(i)])));
    if (d != golden[s.workload][static_cast<size_t>(i)]) {
      ++out.failed;
      out.Fail(s.workload + ": check input " + std::to_string(i) +
               " output digest differs from the golden digest");
    }
  }
}

// --- Untraced run: every end-to-end metric --------------------------------------

Outcome RunUntraced(const FunctionalSpec& s, const Options& opt) {
  Outcome out;
  const ulayer::Shape shape = s.make().graph.node(0).out_shape;
  const std::vector<Tensor> calibration = MakeInputs(shape, kCalibrationSeed, kCalibrationInputs);
  const std::vector<Tensor> pool = MakeInputs(shape, opt.seed * 1000003ull, kInputPool);

  // Set-up: model build to first result ready, repeated for a stable median.
  const int setups = opt.quick ? 1 : 5;
  std::vector<double> setup_s;
  Deployed d;
  uint64_t first_digest = 0;
  for (int i = 0; i < setups; ++i) {
    // Release the previous deployment (runtime before model) before timing
    // the next.
    d.rt.reset();
    d.model.reset();
    const Clock::time_point t0 = Clock::now();
    d = Deploy(s, calibration);
    const RunResult r = d.rt->Run(&pool[0]);
    setup_s.push_back(MsSince(t0) * 1e-3);
    const uint64_t digest = Digest(OutputOf(r));
    if (i == 0) {
      first_digest = digest;
    } else if (digest != first_digest) {
      out.Fail(s.workload + ": set-up " + std::to_string(i) + " computed a different output");
      ++out.failed;
    }
  }
  ULayerRuntime& rt = *d.rt;

  CheckGolden(s, rt, shape, opt, out);

  // First computation of every pool input: the reference each timed
  // inference of the same input must reproduce.
  std::vector<uint64_t> expected;
  for (const Tensor& in : pool) {
    expected.push_back(Digest(OutputOf(rt.Run(&in))));
  }

  std::vector<double> host_ms;
  std::vector<double> sim_ms;
  int64_t good = 0;
  int64_t allocs = 0;
  RunResult last;
  const int64_t min_timed = opt.quick ? 10 : kMinTimed;
  const Clock::time_point loop0 = Clock::now();
  for (int64_t i = 0; i < min_timed || MsSince(loop0) < opt.seconds * 1e3; ++i) {
    const Tensor& in = pool[static_cast<size_t>(i) % pool.size()];
    ++out.attempted;
    try {
      const int64_t a0 = AllocCount();
      const Clock::time_point t0 = Clock::now();
      RunResult r = rt.Run(&in);
      const double ms = MsSince(t0);
      allocs += AllocCount() - a0;
      host_ms.push_back(ms);
      sim_ms.push_back(r.latency_ms());
      if (Digest(OutputOf(r)) != expected[static_cast<size_t>(i) % pool.size()]) {
        ++out.failed;
        out.Fail(s.workload + ": timed inference " + std::to_string(i) +
                 " differs from the first computation of its input");
      } else {
        ++good;
      }
      last = std::move(r);
    } catch (const std::exception& e) {
      ++out.failed;
      out.Fail(s.workload + ": inference threw: " + e.what());
    }
  }
  const double loop_s = MsSince(loop0) * 1e-3;
  const double n = static_cast<double>(host_ms.size());

  Metrics& m = out.metrics;
  m.Set("host_latency_ms.p50", Quantile(host_ms, 0.5));
  m.Set("host_latency_ms.p90", Quantile(host_ms, 0.9));
  m.Set("host_throughput_rps", n / loop_s);
  m.Set("setup_s", Median(setup_s));
  m.Set("sim_latency_ms", last.latency_ms());
  m.Set("sim_energy_mj", last.total_energy_mj);
  m.Set("allocs_per_request", static_cast<double>(allocs) / n);
  m.Set("peak_rss_mb", PeakRssMb());
  m.Set("sim_p99_ms", Quantile(sim_ms, 0.99));
  // One caller on the simulated clock: requests are served back to back and
  // every inference takes the plan's simulated latency, so the highest
  // sustainable rate is its inverse and goodput is the correct share of it.
  const double max_rps = 1e3 / Median(sim_ms);
  m.Set("sim_goodput_rps", static_cast<double>(good) / n * max_rps);
  m.Set("sim_max_rps_at_slo", max_rps);
  out.notes["timed_inferences"] = std::to_string(host_ms.size());
  return out;
}

// --- Traced run: every per-layer metric -----------------------------------------

Outcome RunTraced(const FunctionalSpec& s, const Options& opt) {
  Outcome out;
  Metrics& m = out.metrics;
  SpanRecorder rec;
  const ulayer::SocSpec soc = ulayer::MakeExynos7420();
  const ulayer::Shape shape = s.make().graph.node(0).out_shape;
  const std::vector<Tensor> calibration = MakeInputs(shape, kCalibrationSeed, kCalibrationInputs);
  const std::vector<Tensor> pool = MakeInputs(shape, opt.seed * 1000003ull, kInputPool);
  const double budget_ms = opt.seconds * 1e3;

  // Set-up phases, each through the public entry point the runtime itself
  // uses, in the runtime's order.
  auto model = std::make_unique<Model>();
  {
    const int64_t setup = rec.Begin("setup");
    m.Set("models.build_ms", Timed(rec, "models.build", [&] {
            *model = s.make();
            model->MaterializeWeights();
          }, setup));
    const ExecConfig& cfg = s.config;
    std::unique_ptr<PreparedModel> pm;
    m.Set("prepared.prepare_ms", Timed(rec, "prepared.prepare", [&] {
            pm = std::make_unique<PreparedModel>(*model, cfg);
          }, setup));
    m.Set("prepared.calibrate_ms", Timed(rec, "prepared.calibrate", [&] {
            if (cfg.storage == DType::kQUInt8) {
              pm->Calibrate(calibration);
            }
          }, setup));
    const ulayer::TimingModel timing(soc);
    std::unique_ptr<ulayer::LatencyPredictor> pred;
    m.Set("predictor.fit_ms", Timed(rec, "predictor.fit", [&] {
            pred = std::make_unique<ulayer::LatencyPredictor>(
                timing, cfg, std::vector<const ulayer::Graph*>{&model->graph});
          }, setup));
    Plan plan;
    m.Set("partitioner.build_ms", Timed(rec, "partitioner.build", [&] {
            plan = ulayer::Partitioner(model->graph, timing, cfg, *pred).Build();
          }, setup));
    bool verified = false;
    m.Set("verify.graph_plan_us", 1e3 * Timed(rec, "verify.graph_plan", [&] {
            verified = ulayer::VerifyGraph(model->graph).ok() &&
                       ulayer::VerifyPlan(model->graph, plan, cfg).ok();
          }, setup));
    if (!verified) {
      out.Fail(s.workload + ": graph/plan verification failed");
    }
    m.Set("executor.first_run_ms", Timed(rec, "executor.first_run", [&] {
            ulayer::Executor ex(*pm, soc);
            (void)ex.Run(plan, &pool[0]);
          }, setup));
    rec.End(setup);
  }

  // The deployed runtime whose plan the replay follows.
  const int64_t rid = rec.Begin("runtime.setup");
  ULayerRuntime rt(*model, soc, RuntimeOptions(s));
  rt.Calibrate(calibration);
  rec.End(rid);
  std::vector<uint64_t> expected;
  RunResult sim;
  for (size_t i = 0; i < pool.size(); ++i) {
    const int64_t id = rec.Begin("runtime.run", -1, static_cast<int64_t>(i));
    sim = rt.Run(&pool[i]);
    rec.End(id);
    expected.push_back(Digest(OutputOf(sim)));
  }

  // Untraced steady-state Run in this process: the base of executor.self_ms
  // and of the tracing overhead.
  std::vector<double> run_ms;
  {
    const Clock::time_point t0 = Clock::now();
    for (int64_t i = 0; i < 5 || MsSince(t0) < 0.25 * budget_ms; ++i) {
      const Clock::time_point t1 = Clock::now();
      const RunResult r = rt.Run(&pool[static_cast<size_t>(i) % pool.size()]);
      run_ms.push_back(MsSince(t1));
    }
  }
  const double run_p50 = Median(run_ms);

  Replayer rp(rt.prepared(), rt.plan(), rec);
  const ReplayStats multi =
      Replay(rp, pool, expected, rec, 0.35 * budget_ms, opt.quick ? 2 : 5, 0);
  ulayer::parallel::SetCpuThreads(1);
  const ReplayStats single = Replay(rp, pool, expected, rec, 0.2 * budget_ms, 2, 1000000);
  ulayer::parallel::SetCpuThreads(0);  // Back to the ULAYER_CPU_THREADS budget.
  out.attempted += multi.inferences + single.inferences;
  out.failed += multi.mismatches + single.mismatches;
  if (multi.mismatches + single.mismatches > 0) {
    out.Fail(s.workload + ": replay output is not byte-identical to ULayerRuntime::Run");
  }

  for (const std::string& pair : KernelPairs()) {
    const std::vector<PairIter>& its = multi.pairs.at(pair);
    const double ms = MedianOf(its, &PairIter::ms);
    m.Set("kernels." + pair + ".ms", ms);
    m.Set("kernels." + pair + ".calls", MedianOf(its, &PairIter::calls));
    m.Set("kernels." + pair + ".allocs", MedianOf(its, &PairIter::allocs));
    if (pair.rfind("conv.", 0) == 0 || pair.rfind("fc.", 0) == 0) {
      double ms_total = 0.0;
      double ops_total = 0.0;
      for (const PairIter& p : its) {
        ms_total += p.ms;
        ops_total += p.ops;
      }
      m.Set("kernels." + pair + ".gops", ms_total > 0.0 ? ops_total / (ms_total * 1e6) : 0.0);
    }
    const double ms1 = MedianOf(single.pairs.at(pair), &PairIter::ms);
    m.Set("parallel.speedup." + pair, ms > 0.0 ? ms1 / ms : 0.0);
  }
  m.Set("kernels.other.ms", MedianOf(multi.pairs.at("other"), &PairIter::ms));
  m.Set("kernels.other.calls", MedianOf(multi.pairs.at("other"), &PairIter::calls));
  m.Set("kernels.stage_f16.ms", MedianOf(multi.stage, &PairIter::ms));
  m.Set("kernels.stage_f16.calls", MedianOf(multi.stage, &PairIter::calls));
  const double kernel_sum = Median(multi.kernel_sum_ms);
  const double traced_p50 = Median(multi.wall_ms);
  m.Set("executor.self_ms", run_p50 - kernel_sum);
  m.Set("trace.host_latency_ms.p50", traced_p50);
  m.Set("trace.overhead_ms", traced_p50 - run_p50);
  m.Set("trace.kernel_sum_ms", kernel_sum);
  std::vector<double> self_ms;
  for (const int64_t id : multi.spans) {
    self_ms.push_back(rec.SelfMs(id));
  }
  m.Set("trace.replay_self_ms", Median(self_ms));
  m.Set("quant.prepare_input_us", Median(multi.prepare_us));
  m.Set("memory.scratch_bytes", static_cast<double>(rp.scratch_bytes()));

  if (s.serve_layers) {
    MeasureServeLayers(opt, rec, 0.05 * budget_ms, out);
  }

  // Host cost of the simulated-timing path alone (no tensor math).
  {
    ulayer::Executor ex(rt.prepared(), soc);
    RunResult r;
    ex.RunInto(rt.plan(), nullptr, r);
    std::vector<double> us;
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; i < 50 || (i < 100000 && MsSince(t0) < 0.05 * budget_ms); ++i) {
      const Clock::time_point t1 = Clock::now();
      ex.RunInto(rt.plan(), nullptr, r);
      us.push_back(MsSince(t1) * 1e3);
    }
    m.Set("executor.timing_only_us." + s.family, Median(us));
  }

  // Simulated clock (ucl/soc), from the runtime's own RunResult.
  m.Set("sim.cpu_busy_ms", sim.cpu_busy_us * 1e-3);
  m.Set("sim.gpu_busy_ms", sim.gpu_busy_us * 1e-3);
  m.Set("sim.syncs", sim.sync_count);
  for (const ulayer::KernelTrace& kt : sim.trace) {
    const std::string kind(ulayer::LayerKindName(model->graph.node(kt.node).desc.kind));
    m.Add("sim." + kind + ".ms", (kt.end_us - kt.start_us) * 1e-3);
  }
  int64_t steps = 0;
  int64_t coop = 0;
  for (const ulayer::Node& n : model->graph.nodes()) {
    if (n.desc.kind != ulayer::LayerKind::kInput) {
      ++steps;
      coop += rt.plan().nodes[static_cast<size_t>(n.id)].kind == ulayer::StepKind::kCooperative;
    }
  }
  m.Set("partitioner.coop_fraction", static_cast<double>(coop) / static_cast<double>(steps));
  m.Set("partitioner.branch_groups", static_cast<double>(rt.plan().branch_plans.size()));

  m.Set("trace.spans", static_cast<double>(rec.size()));
  if (!opt.trace_out.empty() && !rec.WriteJson(opt.trace_out)) {
    out.Fail("cannot write spans to " + opt.trace_out);
  }
  return out;
}

}  // namespace

bool IsFunctionalWorkload(std::string_view name) {
  for (const FunctionalSpec& s : Specs()) {
    if (s.workload == name) {
      return true;
    }
  }
  return false;
}

Outcome RunFunctional(const Options& opt) {
  const FunctionalSpec& s = SpecOf(opt.workload);
  return opt.trace ? RunTraced(s, opt) : RunUntraced(s, opt);
}

std::vector<uint64_t> CheckSetDigests(const std::string& name) {
  const FunctionalSpec& s = SpecOf(name);
  const ulayer::Shape shape = s.make().graph.node(0).out_shape;
  const Deployed d = Deploy(s, MakeInputs(shape, kCalibrationSeed, kCalibrationInputs));
  std::vector<uint64_t> digests;
  for (const Tensor& in : MakeInputs(shape, kCheckSeed, kCheckInputs)) {
    digests.push_back(Digest(OutputOf(d.rt->Run(&in))));
  }
  return digests;
}

}  // namespace perfbench
