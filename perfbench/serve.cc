// serve_zoo_sim: simulate-only replay of seeded open-loop traffic through
// serve::Server. No kernel runs; the host time is the executor's timing path,
// ucl/soc and the serve scheduler.

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "alloc_counter.h"
#include "common.h"
#include "core/executor.h"
#include "serve/request.h"
#include "serve/server.h"
#include "soc/spec.h"

namespace perfbench {
namespace {

namespace serve = ulayer::serve;

const std::vector<std::string> kFamilies = {"lenet5", "alexnet", "squeezenet", "googlenet",
                                            "mobilenet"};
constexpr int kImageHw = 112;
// Offered load as multiples of the batch-1 saturation rate. Rung 1 (1x) is
// the operating point of the timed loop and of the point metrics.
const std::vector<double> kLoads = {0.5, 1.0, 2.0, 4.0};
constexpr size_t kOperatingRung = 1;
constexpr int kRequestsPerTrace = 20000;
// Independent traces per rung. The simulated tail of one 20000-request trace
// still moves ~20% with the seed; pooling several steadies it.
constexpr int kTracesPerRung = 6;
// Spacing of the set-ups timed during the timed phase.
constexpr double kSetupIntervalMs = 250.0;
// sim_max_rps_at_slo admits a rung only if at most this share was shed.
constexpr double kMaxShedAtSlo = 0.01;

serve::ServerOptions MakeServerOptions() {
  serve::ServerOptions o;
  o.cache.batch_sizes = {1, 2, 4, 8};
  o.cache.lanes = 2;
  o.cache.functional = false;
  o.cache.image_hw = kImageHw;
  o.queue_capacity = 64;
  o.admission_control = true;
  return o;
}

using Trace = std::vector<serve::Request>;

struct Ladder {
  double base_rps = 0.0;  // Batch-1 saturation rate of the mixed zoo.
  double interactive_deadline_us = 0.0;
  std::vector<std::vector<Trace>> rungs;  // kTracesPerRung traces per load.

  // The trace the timed loop replays.
  const Trace& operating() const { return rungs[kOperatingRung][0]; }
};

// Seeded traces for every rung, with the deadlines serving_bench uses: 10x
// (interactive) and 50x (batch) the slowest family's batch-1 service time.
Ladder MakeLadder(const serve::ModelCache& cache, uint64_t seed, int requests, int traces) {
  Ladder l;
  double sum = 0.0;
  double slowest = 0.0;
  for (const std::string& f : kFamilies) {
    sum += cache.ServiceUs(f, 1);
    slowest = std::max(slowest, cache.ServiceUs(f, 1));
  }
  const double mean = sum / static_cast<double>(kFamilies.size());
  l.base_rps = 1e6 / mean;
  l.interactive_deadline_us = 10.0 * slowest;
  for (size_t i = 0; i < kLoads.size(); ++i) {
    l.rungs.emplace_back();
    for (int k = 0; k < traces; ++k) {
      serve::TraceSpec spec;
      spec.seed = (seed * kLoads.size() + i) * kTracesPerRung + static_cast<uint64_t>(k);
      spec.num_requests = requests;
      spec.duration_us = static_cast<double>(requests) * mean / kLoads[i];
      spec.models = kFamilies;
      spec.sessions = 8;
      spec.interactive_fraction = 0.5;
      spec.interactive_deadline_us = 10.0 * slowest;
      spec.batch_deadline_us = 50.0 * slowest;
      l.rungs.back().push_back(serve::GenerateTrace(spec));
    }
  }
  return l;
}

// Digest of the batch and completion logs: equal digests mean identical
// batch composition, dispatch order, timing and outcomes.
uint64_t ReportDigest(const serve::ServeReport& rep) {
  uint64_t h = Fnv1a(nullptr, 0);
  const auto mix = [&h](const void* p, size_t n) { h = Fnv1a(p, n, h); };
  for (const serve::BatchRecord& b : rep.batches) {
    mix(&b.seq, sizeof b.seq);
    mix(b.model.data(), b.model.size());
    mix(&b.batch, sizeof b.batch);
    mix(&b.lane, sizeof b.lane);
    mix(&b.start_us, sizeof b.start_us);
    mix(&b.end_us, sizeof b.end_us);
    mix(b.ids.data(), b.ids.size() * sizeof(int64_t));
  }
  for (const serve::Completion& c : rep.completions) {
    mix(&c.id, sizeof c.id);
    mix(&c.outcome, sizeof c.outcome);
    mix(&c.finish_us, sizeof c.finish_us);
    mix(&c.latency_us, sizeof c.latency_us);
    mix(&c.batch_size, sizeof c.batch_size);
    mix(&c.deadline_met, sizeof c.deadline_met);
  }
  return h;
}

// Server construction and model registration: 5 families x 4 batch sizes.
// `rec`, when non-null, gets one span per family under `parent`.
std::unique_ptr<serve::Server> RegisterServer(SpanRecorder* rec, int64_t parent) {
  auto server = std::make_unique<serve::Server>(ulayer::MakeExynos7420(),
                                                ulayer::ExecConfig::ProcessorFriendly(),
                                                MakeServerOptions());
  for (const std::string& f : kFamilies) {
    const int64_t id = rec != nullptr ? rec->Begin("serve.register." + f, parent) : -1;
    server->RegisterModel(f);
    if (rec != nullptr) {
      rec->End(id);
    }
  }
  return server;
}

// Simulated energy of one batch-N execution per (family, N), from a
// timing-only run of the entry's own plan.
std::map<std::pair<std::string, int>, double> MeasureEnergy(const serve::ModelCache& cache) {
  std::map<std::pair<std::string, int>, double> energy_mj;
  for (const std::string& f : kFamilies) {
    for (int b : cache.batch_sizes()) {
      const serve::ModelCache::Entry& e = cache.entry(f, b);
      ulayer::Executor ex(*e.prepared, cache.soc());
      energy_mj[{f, b}] = ex.Run(e.plan).total_energy_mj;
    }
  }
  return energy_mj;
}

// One rung's traces replayed, pooled over traces.
struct RungResult {
  std::vector<serve::ServeReport> reports;  // One per trace.
  std::vector<double> latency_us;           // Completed requests.
  std::vector<double> queue_wait_ms;        // Completed requests.
  double offered_rps = 0.0;
  double interactive_p99_us = 0.0;
  double shed_fraction = 0.0;
  double goodput_rps = 0.0;  // Deadline met per simulated second.
  bool meets_slo = false;
};

RungResult EvaluateRung(serve::Server& server, const Ladder& l, size_t rung, Outcome& out) {
  RungResult r;
  std::vector<double> interactive;
  int64_t shed = 0;
  int64_t met = 0;
  double makespan_us = 0.0;
  for (const Trace& trace : l.rungs[rung]) {
    serve::ServeReport rep = server.Run(trace);
    for (const serve::Completion& c : rep.completions) {
      if (c.outcome != serve::Outcome::kCompleted) {
        continue;
      }
      r.latency_us.push_back(c.latency_us);
      if (trace[static_cast<size_t>(c.id)].priority == serve::Priority::kInteractive) {
        interactive.push_back(c.latency_us);
      }
    }
    for (const serve::BatchRecord& b : rep.batches) {
      for (int64_t id : b.ids) {
        r.queue_wait_ms.push_back((b.start_us - trace[static_cast<size_t>(id)].arrival_us) *
                                  1e-3);
      }
    }
    shed += rep.shed;
    met += rep.deadline_met;
    makespan_us += rep.makespan_us;
    r.reports.push_back(std::move(rep));
  }
  // The same trace must replay to identical logs.
  if (ReportDigest(server.Run(l.rungs[rung][0])) != ReportDigest(r.reports[0])) {
    ++out.failed;
    out.Fail("serve_zoo_sim: rung " + std::to_string(rung) + " replayed to different logs");
  }
  const auto completed = static_cast<double>(r.latency_us.size());
  r.offered_rps = l.base_rps * kLoads[rung];
  r.interactive_p99_us = Quantile(interactive, 0.99);
  r.shed_fraction = static_cast<double>(shed) / (completed + static_cast<double>(shed));
  r.goodput_rps = static_cast<double>(met) / (makespan_us * 1e-6);
  r.meets_slo = !interactive.empty() && r.interactive_p99_us <= l.interactive_deadline_us &&
                r.shed_fraction <= kMaxShedAtSlo;
  return r;
}

// Ladder sizes: full runs, or the self-test's quick mode.
int RequestsPerTrace(const Options& opt) { return opt.quick ? 300 : kRequestsPerTrace; }
int TracesPerRung(const Options& opt) { return opt.quick ? 1 : kTracesPerRung; }

std::vector<RungResult> EvaluateLadder(serve::Server& server, const Ladder& l, Outcome& out) {
  std::vector<RungResult> rungs;
  for (size_t i = 0; i < kLoads.size(); ++i) {
    rungs.push_back(EvaluateRung(server, l, i, out));
  }
  return rungs;
}

// Times one set-up: server construction and registration to the first
// result ready (a one-request replay). Tearing the server down is not timed.
double TimeSetupS(const Options& opt, Outcome& out) {
  const Clock::time_point t0 = Clock::now();
  const std::unique_ptr<serve::Server> server = RegisterServer(nullptr, -1);
  const serve::ServeReport first =
      server->Run(MakeLadder(server->cache(), opt.seed, 1, 1).operating());
  const double s = MsSince(t0) * 1e-3;
  if (first.completed != 1) {
    ++out.failed;
    out.Fail("serve_zoo_sim: the set-up request did not complete");
  }
  return s;
}

Outcome RunUntraced(const Options& opt) {
  Outcome out;
  // Set-up takes ~2 ms, so one run would catch a single contention regime of
  // the host. It is timed once here and then every kSetupIntervalMs through
  // the timed phase, and reported as the median over the run.
  std::vector<double> setup_s{TimeSetupS(opt, out)};
  const std::unique_ptr<serve::Server> owned = RegisterServer(nullptr, -1);
  serve::Server& server = *owned;
  const Ladder ladder =
      MakeLadder(server.cache(), opt.seed, RequestsPerTrace(opt), TracesPerRung(opt));
  const auto energy_mj = MeasureEnergy(server.cache());

  const std::vector<RungResult> rungs = EvaluateLadder(server, ladder, out);
  const RungResult& op = rungs[kOperatingRung];
  const Trace& trace = ladder.operating();
  const uint64_t expected = ReportDigest(op.reports[0]);

  // Timed phase: closed loop of replays of the 1x trace.
  std::vector<double> per_request_ms;
  int64_t allocs = 0;
  int64_t replayed = 0;
  const int64_t min_replays = opt.quick ? 10 : 100;
  double setup_in_loop_ms = 0.0;
  const Clock::time_point loop0 = Clock::now();
  Clock::time_point last_setup = loop0;
  for (int64_t i = 0; i < min_replays || MsSince(loop0) < opt.seconds * 1e3; ++i) {
    if (MsSince(last_setup) >= kSetupIntervalMs) {
      const Clock::time_point s0 = Clock::now();
      setup_s.push_back(TimeSetupS(opt, out));
      setup_in_loop_ms += MsSince(s0);
      last_setup = Clock::now();
    }
    const auto n = static_cast<int64_t>(trace.size());
    out.attempted += n;
    try {
      const int64_t a0 = AllocCount();
      const Clock::time_point t0 = Clock::now();
      const serve::ServeReport rep = server.Run(trace);
      const double ms = MsSince(t0);
      allocs += AllocCount() - a0;
      per_request_ms.push_back(ms / static_cast<double>(n));
      replayed += n;
      if (ReportDigest(rep) != expected) {
        out.failed += n;
        out.Fail("serve_zoo_sim: replay " + std::to_string(i) + " differs from the first");
      }
    } catch (const std::exception& e) {
      out.failed += n;
      out.Fail(std::string("serve_zoo_sim: replay threw: ") + e.what());
    }
  }
  const double loop_s = (MsSince(loop0) - setup_in_loop_ms) * 1e-3;

  double energy = 0.0;
  for (const serve::ServeReport& rep : op.reports) {
    for (const serve::BatchRecord& b : rep.batches) {
      energy += energy_mj.at({b.model, b.batch});
    }
  }
  double max_rps = 0.0;
  for (const RungResult& r : rungs) {
    if (r.meets_slo) {
      max_rps = std::max(max_rps, r.offered_rps);
    }
  }

  Metrics& m = out.metrics;
  m.Set("host_latency_ms.p50", Quantile(per_request_ms, 0.5));
  m.Set("host_latency_ms.p90", Quantile(per_request_ms, 0.9));
  m.Set("host_throughput_rps", static_cast<double>(replayed) / loop_s);
  m.Set("setup_s", Median(setup_s));
  m.Set("sim_latency_ms", Quantile(op.latency_us, 0.5) * 1e-3);
  m.Set("sim_energy_mj", energy / static_cast<double>(op.latency_us.size()));
  m.Set("allocs_per_request", static_cast<double>(allocs) / static_cast<double>(replayed));
  m.Set("peak_rss_mb", PeakRssMb());
  m.Set("sim_p99_ms", Quantile(op.latency_us, 0.99) * 1e-3);
  m.Set("sim_goodput_rps", op.goodput_rps);
  m.Set("sim_max_rps_at_slo", max_rps);
  for (size_t i = 0; i < rungs.size(); ++i) {
    const RungResult& r = rungs[i];
    out.notes["rung" + std::to_string(i)] =
        "load=" + std::to_string(kLoads[i]) + " offered_rps=" + std::to_string(r.offered_rps) +
        " interactive_p99_us=" + std::to_string(r.interactive_p99_us) +
        " shed=" + std::to_string(r.shed_fraction) + " meets_slo=" + std::to_string(r.meets_slo);
  }
  return out;
}

// The serve layer measured for the per-layer metrics.
struct ServeLayer {
  std::unique_ptr<serve::Server> server;
  Ladder ladder;
  std::vector<RungResult> rungs;
  std::vector<double> replay_ms_per_request;  // Untraced replays of the 1x trace.
};

// Registers the zoo (one span per family), times simulate-only batch-1
// executions per family, evaluates the ladder, and replays the 1x trace for
// `replay_budget_ms`. Sets serve.* and executor.timing_only_us.<family>.
ServeLayer MeasureServeLayer(const Options& opt, SpanRecorder& rec, double replay_budget_ms,
                             Outcome& out) {
  Metrics& m = out.metrics;
  ServeLayer sl;
  const int64_t setup = rec.Begin("serve.setup");
  m.Set("serve.register_ms",
        Timed(rec, "serve.register", [&] { sl.server = RegisterServer(&rec, setup); }, setup));
  rec.End(setup);
  serve::Server& server = *sl.server;
  sl.ladder = MakeLadder(server.cache(), opt.seed, RequestsPerTrace(opt), TracesPerRung(opt));

  for (const std::string& f : kFamilies) {
    const serve::ModelCache::Entry& e = server.cache().entry(f, 1);
    ulayer::Executor ex(*e.prepared, server.cache().soc());
    ulayer::RunResult r;
    ex.RunInto(e.plan, nullptr, r);
    std::vector<double> us;
    for (int i = 0; i < 200; ++i) {
      const Clock::time_point t0 = Clock::now();
      ex.RunInto(e.plan, nullptr, r);
      us.push_back(MsSince(t0) * 1e3);
    }
    m.Set("executor.timing_only_us." + f, Median(us));
  }

  sl.rungs = EvaluateLadder(server, sl.ladder, out);
  const RungResult& op = sl.rungs[kOperatingRung];
  int64_t shed_full = 0;
  int64_t shed_deadline = 0;
  int64_t shed_expired = 0;
  for (const RungResult& r : sl.rungs) {
    for (const serve::ServeReport& rep : r.reports) {
      for (const serve::Completion& c : rep.completions) {
        shed_full += c.outcome == serve::Outcome::kShedQueueFull;
        shed_deadline += c.outcome == serve::Outcome::kShedDeadline;
        shed_expired += c.outcome == serve::Outcome::kShedExpired;
      }
    }
  }

  const Trace& trace = sl.ladder.operating();
  const auto n = static_cast<double>(trace.size());
  const Clock::time_point t0 = Clock::now();
  for (int i = 0; i < 3 || MsSince(t0) < replay_budget_ms; ++i) {
    const Clock::time_point t1 = Clock::now();
    const serve::ServeReport rep = server.Run(trace);
    sl.replay_ms_per_request.push_back(MsSince(t1) / n);
  }

  const double batches = static_cast<double>(op.reports[0].batches.size());
  m.Set("serve.batches", batches);
  m.Set("serve.mean_batch", op.reports[0].MeanBatchSize());
  m.Set("serve.host_us_per_batch", Median(sl.replay_ms_per_request) * n * 1e3 / batches);
  m.Set("serve.queue_wait_ms.p50", Quantile(op.queue_wait_ms, 0.5));
  m.Set("serve.queue_wait_ms.p99", Quantile(op.queue_wait_ms, 0.99));
  m.Set("serve.shed.queue_full", static_cast<double>(shed_full));
  m.Set("serve.shed.deadline", static_cast<double>(shed_deadline));
  m.Set("serve.shed.expired", static_cast<double>(shed_expired));
  return sl;
}

Outcome RunTraced(const Options& opt) {
  Outcome out;
  SpanRecorder rec;
  const double budget_ms = opt.seconds * 1e3;
  const ServeLayer sl = MeasureServeLayer(opt, rec, 0.3 * budget_ms, out);

  // The same replays under a span each: the difference to the untraced
  // ones is the tracing overhead.
  const Trace& trace = sl.ladder.operating();
  const auto n = static_cast<double>(trace.size());
  const uint64_t expected = ReportDigest(sl.rungs[kOperatingRung].reports[0]);
  std::vector<double> traced_ms;
  const Clock::time_point t0 = Clock::now();
  for (int i = 0; i < 10 || MsSince(t0) < 0.3 * budget_ms; ++i) {
    const int64_t id = rec.Begin("serve.replay", -1, i);
    const serve::ServeReport rep = sl.server->Run(trace);
    traced_ms.push_back(rec.End(id) / n);
    out.attempted += static_cast<int64_t>(n);
    if (ReportDigest(rep) != expected) {
      out.failed += static_cast<int64_t>(n);
      out.Fail("serve_zoo_sim: traced replay differs from the first");
    }
  }

  Metrics& m = out.metrics;
  m.Set("trace.host_latency_ms.p50", Median(traced_ms));
  m.Set("trace.overhead_ms", Median(traced_ms) - Median(sl.replay_ms_per_request));
  m.Set("trace.spans", static_cast<double>(rec.size()));
  if (!opt.trace_out.empty() && !rec.WriteJson(opt.trace_out)) {
    out.Fail("cannot write spans to " + opt.trace_out);
  }
  return out;
}

}  // namespace

Outcome RunServe(const Options& opt) { return opt.trace ? RunTraced(opt) : RunUntraced(opt); }

void MeasureServeLayers(const Options& opt, SpanRecorder& rec, double replay_budget_ms,
                        Outcome& out) {
  (void)MeasureServeLayer(opt, rec, replay_budget_ms, out);
}

}  // namespace perfbench
