#include "common.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

const std::vector<MetricSpec>& EndToEndMetrics() {
  // Bounds are the share of the parent's median a metric may worsen by
  // before a change counts as a regression. Host times are wide because the
  // shared 4-vCPU VM they were sized on swings ~1.5x between contention
  // regimes lasting seconds. Simulated metrics repeat exactly for a given
  // input, so their bounds only absorb seed changes of the serving traces.
  static const std::vector<MetricSpec> kSpecs = {
      {"host_latency_ms.p50", "ms", "lower", 0.25},
      {"host_latency_ms.p90", "ms", "lower", 0.25},
      {"host_throughput_rps", "1/s", "higher", 0.25},
      {"setup_s", "s", "lower", 0.25},
      {"sim_latency_ms", "sim_ms", "lower", 0.10},
      {"sim_energy_mj", "sim_mJ", "lower", 0.05},
      {"allocs_per_request", "count", "lower", 0.05},
      {"peak_rss_mb", "MB", "lower", 0.10},
      {"sim_p99_ms", "sim_ms", "lower", 0.25},
      {"sim_goodput_rps", "1/sim_s", "higher", 0.05},
      {"sim_max_rps_at_slo", "1/sim_s", "higher", 0.05},
  };
  return kSpecs;
}

const std::vector<std::string>& KernelPairs() {
  static const std::vector<std::string> kPairs = {
      "conv.qu8", "conv.qu8_via_f16", "fc.qu8",  "pool.qu8", "gavgpool.qu8", "lrn.qu8",
      "concat.qu8", "softmax.qu8",    "conv.f32", "fc.f32",  "pool.f32",     "softmax.f32",
  };
  return kPairs;
}

const std::vector<std::string>& SimKinds() {
  static const std::vector<std::string> kKinds = {"conv",   "fc",     "pool",   "gavgpool",
                                                  "lrn",    "concat", "softmax"};
  return kKinds;
}

const std::vector<std::string>& TimingOnlyFamilies() {
  static const std::vector<std::string> kFamilies = {"lenet5",    "alexnet",   "squeezenet",
                                                     "googlenet", "mobilenet", "vgg16"};
  return kFamilies;
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> kSpecs = [] {
    std::vector<MetricSpec> specs;
    const auto add = [&specs](std::string name, const char* unit, const char* better) {
      specs.push_back({std::move(name), unit, better, 0.0});
    };
    add("models.build_ms", "ms", "lower");
    add("prepared.prepare_ms", "ms", "lower");
    add("prepared.calibrate_ms", "ms", "lower");
    add("predictor.fit_ms", "ms", "lower");
    add("partitioner.build_ms", "ms", "lower");
    add("verify.graph_plan_us", "us", "lower");
    add("executor.first_run_ms", "ms", "lower");
    add("serve.register_ms", "ms", "lower");
    for (const std::string& p : KernelPairs()) {
      add("kernels." + p + ".ms", "ms", "lower");
      add("kernels." + p + ".calls", "count", "lower");
      add("kernels." + p + ".allocs", "count", "lower");
      if (p.rfind("conv.", 0) == 0 || p.rfind("fc.", 0) == 0) {
        add("kernels." + p + ".gops", "Gop/s", "higher");
      }
    }
    add("kernels.other.ms", "ms", "lower");
    add("kernels.other.calls", "count", "lower");
    add("kernels.stage_f16.ms", "ms", "lower");
    add("kernels.stage_f16.calls", "count", "lower");
    for (const std::string& p : KernelPairs()) {
      add("parallel.speedup." + p, "x", "higher");
    }
    add("executor.self_ms", "ms", "lower");
    for (const std::string& f : TimingOnlyFamilies()) {
      add("executor.timing_only_us." + f, "us", "lower");
    }
    add("quant.prepare_input_us", "us", "lower");
    add("memory.scratch_bytes", "bytes", "lower");
    add("sim.cpu_busy_ms", "sim_ms", "lower");
    add("sim.gpu_busy_ms", "sim_ms", "lower");
    add("sim.syncs", "count", "lower");
    for (const std::string& k : SimKinds()) {
      add("sim." + k + ".ms", "sim_ms", "lower");
    }
    add("partitioner.coop_fraction", "fraction", "higher");
    add("partitioner.branch_groups", "count", "higher");
    add("serve.batches", "count", "lower");
    add("serve.mean_batch", "requests", "higher");
    add("serve.host_us_per_batch", "us", "lower");
    add("serve.queue_wait_ms.p50", "sim_ms", "lower");
    add("serve.queue_wait_ms.p99", "sim_ms", "lower");
    add("serve.shed.queue_full", "count", "lower");
    add("serve.shed.deadline", "count", "lower");
    add("serve.shed.expired", "count", "lower");
    add("trace.host_latency_ms.p50", "ms", "lower");
    add("trace.overhead_ms", "ms", "lower");
    add("trace.kernel_sum_ms", "ms", "lower");
    add("trace.replay_self_ms", "ms", "lower");
    add("trace.spans", "count", "lower");
    return specs;
  }();
  return kSpecs;
}

double Metrics::Get(const std::string& name) const {
  const auto it = values_.find(name);
  return it == values_.end() ? 0.0 : it->second;
}

void Outcome::Fail(const std::string& why) {
  correct = false;
  std::fprintf(stderr, "perfbench: FAIL: %s\n", why.c_str());
}

int64_t SpanRecorder::Begin(std::string name, int64_t parent, int64_t request) {
  const double now = NowUs();
  spans_.push_back(Span{std::move(name), now, now, parent, request});
  return static_cast<int64_t>(spans_.size()) - 1;
}

double SpanRecorder::End(int64_t id) {
  const double now = NowUs();
  Span& s = spans_[static_cast<size_t>(id)];
  s.end_us = now;
  return (s.end_us - s.start_us) * 1e-3;
}

double SpanRecorder::SelfMs(int64_t id) const {
  const Span& s = spans_[static_cast<size_t>(id)];
  double children = 0.0;
  // Children are recorded after their parent, nest inside it and do not
  // overlap one another, so their durations add up.
  for (size_t i = static_cast<size_t>(id) + 1;
       i < spans_.size() && spans_[i].start_us < s.end_us; ++i) {
    if (spans_[i].parent == id) {
      children += spans_[i].end_us - spans_[i].start_us;
    }
  }
  return (s.end_us - s.start_us - children) * 1e-3;
}

double SpanRecorder::NowUs() const {
  return std::chrono::duration<double, std::micro>(Clock::now() - origin_).count();
}

bool SpanRecorder::WriteJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f, "{\"spans\": [\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "  {\"name\": \"%s\", \"start_us\": %.3f, \"end_us\": %.3f, \"parent\": %" PRId64
                 ", \"request\": %" PRId64 "}%s\n",
                 s.name.c_str(), s.start_us, s.end_us, s.parent, s.request,
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

uint64_t Fnv1a(const void* data, size_t bytes, uint64_t h) {
  const auto* p = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

bool ReadGolden(const std::string& path, GoldenSet& out) {
  std::ifstream in(path);
  if (!in) {
    return false;
  }
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') {
      continue;
    }
    std::istringstream ls(line);
    std::string workload;
    size_t index = 0;
    std::string hex;
    if (!(ls >> workload >> index >> hex)) {
      return false;
    }
    std::vector<uint64_t>& v = out[workload];
    if (index != v.size()) {
      return false;
    }
    v.push_back(std::stoull(hex, nullptr, 16));
  }
  return true;
}

bool WriteGolden(const std::string& path, const GoldenSet& set) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f,
               "# Output digests (FNV-1a of the output tensor bytes) of each functional\n"
               "# workload's fixed check set, computed at scalar ISA with 1 host thread by\n"
               "# `perfbench --make-golden`. Every run must reproduce them at its active ISA.\n");
  for (const auto& [workload, digests] : set) {
    for (size_t i = 0; i < digests.size(); ++i) {
      std::fprintf(f, "%s %zu %016" PRIx64 "\n", workload.c_str(), i, digests[i]);
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
