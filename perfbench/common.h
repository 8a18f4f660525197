// Shared plumbing of the perfbench binary: options, statistics, the metric
// table every run reports against, the in-memory span recorder, and output
// digests.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Self-test mode: fewer set-ups, repetitions and samples.
  bool quick = false;
  // Host thread budget of the functional kernels. Applied through the
  // ULAYER_CPU_THREADS override, never through ExecConfig::cpu_threads, which
  // also sets the simulated CPU and therefore the plan.
  int host_threads = 2;
  std::string golden_path;
  // Where the traced run writes its spans (empty: not written).
  std::string trace_out;
};

// --- Statistics --------------------------------------------------------------

// Nearest-rank quantile (q in [0, 1]) of `v`; 0 for an empty sample.
double Quantile(std::vector<double> v, double q);
inline double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

// --- Metrics -------------------------------------------------------------------

struct MetricSpec {
  std::string name;
  std::string unit;
  std::string better;  // "lower" | "higher"
  double bound = 0.0;  // End-to-end metrics only; 0 for per-layer ones.
};

// The metric table. BENCHMARK.json's end_to_end and per_layer lists must
// match these exactly (perfbench/selftest.py checks it).
const std::vector<MetricSpec>& EndToEndMetrics();
const std::vector<MetricSpec>& PerLayerMetrics();

// The kernel (kind, dtype) pairs the replay reports by name; anything else
// the plan dispatches lands in kernels.other.*.
const std::vector<std::string>& KernelPairs();
// Layer kinds reported as sim.<kind>.ms.
const std::vector<std::string>& SimKinds();
// Families reported as executor.timing_only_us.<family>.
const std::vector<std::string>& TimingOnlyFamilies();

class Metrics {
 public:
  void Set(const std::string& name, double value) { values_[name] = value; }
  void Add(const std::string& name, double value) { values_[name] += value; }
  double Get(const std::string& name) const;
  const std::map<std::string, double>& values() const { return values_; }

 private:
  std::map<std::string, double> values_;
};

// What one run reports. `failed` counts exceptions and output mismatches.
struct Outcome {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  Metrics metrics;
  // Provenance and diagnostics printed before the result line.
  std::map<std::string, std::string> notes;

  void Fail(const std::string& why);
};

// --- Tracing -------------------------------------------------------------------

// Spans recorded from the benchmark's own code around calls into the
// library. Kept in memory; written once when the run ends.
struct Span {
  std::string name;
  double start_us = 0.0;
  double end_us = 0.0;
  int64_t parent = -1;   // Index of the enclosing span, -1 at top level.
  int64_t request = -1;  // Inference/replay id, -1 for set-up phases.
};

class SpanRecorder {
 public:
  SpanRecorder() : origin_(Clock::now()) {}

  // Opens a span and returns its id.
  int64_t Begin(std::string name, int64_t parent = -1, int64_t request = -1);
  // Closes span `id` and returns its duration in ms.
  double End(int64_t id);
  // Duration of span `id` minus the part of it its direct children cover.
  double SelfMs(int64_t id) const;
  size_t size() const { return spans_.size(); }
  // One JSON object: {"spans": [{name, start_us, end_us, parent, request}]}.
  bool WriteJson(const std::string& path) const;

 private:
  double NowUs() const;

  Clock::time_point origin_;
  std::vector<Span> spans_;
};

// Times `fn` under a span named `name`; returns its duration in ms.
template <typename Fn>
double Timed(SpanRecorder& rec, std::string name, Fn&& fn, int64_t parent = -1) {
  const int64_t id = rec.Begin(std::move(name), parent);
  fn();
  return rec.End(id);
}

// FNV-1a over a byte range, continuing from `h`.
uint64_t Fnv1a(const void* data, size_t bytes, uint64_t h = 0xcbf29ce484222325ull);

// --- Golden digests ------------------------------------------------------------

// "<workload> <index> <hex digest>" lines.
using GoldenSet = std::map<std::string, std::vector<uint64_t>>;
bool ReadGolden(const std::string& path, GoldenSet& out);
bool WriteGolden(const std::string& path, const GoldenSet& set);

// --- Workloads -----------------------------------------------------------------

bool IsFunctionalWorkload(std::string_view name);
Outcome RunFunctional(const Options& opt);
Outcome RunServe(const Options& opt);
// The serve layer's per-layer metrics (serve.*, executor.timing_only_us.* of
// the serving zoo), spending about `replay_budget_ms` on replays. The
// googlenet_pf traced run calls it so the serve layer is measured by a
// benchmarked workload.
void MeasureServeLayers(const Options& opt, SpanRecorder& rec, double replay_budget_ms,
                        Outcome& out);
// Digests of the fixed check set of functional workload `name` at the
// current ISA and host budget.
std::vector<uint64_t> CheckSetDigests(const std::string& name);

}  // namespace perfbench
