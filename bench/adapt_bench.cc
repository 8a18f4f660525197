// Adaptation-loop bench (DESIGN.md Section 16): the committed
// thermal-throttle ramp, measured end to end.
//
// Three sections, all deterministic (simulated timelines):
//   ramp    - baseline -> throttle -> recovery phases over the zoo, with an
//             adaptive runtime (drift-fed corrections + health-keyed plan
//             cache) against a static runtime pinned to its profile-time
//             plan and a never-throttled control. The acceptance criteria
//             are asserted, not just reported: adaptive must beat static
//             while throttled, the drift table must converge monotonically
//             to 1.0 +/- 5%, and post-recovery latency must return to
//             within 2% of the never-throttled control.
//   cache   - plan-cache accounting over the same ramp with coarse buckets:
//             every replan is either a Partitioner::Build or an O(1) cache
//             hit (replans = builds + hits), and returning to baseline
//             health hits the seeded entry.
//   digest  - functional byte-identity: adaptation on vs off must produce
//             bit-equal network outputs under the throttle spec.
//
// Flags:
//   --quick       fewer models / shorter phases (CI smoke mode)
//   --out PATH    JSON output path (default: BENCH_adapt.json)

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/fnv1a.h"
#include "core/runtime.h"
#include "kernels/simd.h"
#include "models/model.h"
#include "parallel/thread_pool.h"
#include "verify/verify.h"

namespace ulayer {
namespace {

constexpr const char* kThrottleSpec = "gpu.kernel=slow:2.5";

struct RampRow {
  std::string model;
  std::string phase;
  int run = 0;
  double adaptive_us = 0.0;
  double static_us = 0.0;
  double clean_us = 0.0;
  double deviation = 0.0;  // Adaptive runtime's drift deviation this run.
};

struct RampSummary {
  std::string model;
  double adaptive_throttled_us = 0.0;
  double static_throttled_us = 0.0;
  double throttled_speedup = 0.0;
  double final_deviation = 0.0;
  double recovery_ratio = 0.0;  // Last recovery run vs never-throttled.
  int replans = 0;
  bool converged = false;   // H903 over the throttle phase.
  bool recovered = false;   // Within 2% of the control after recovery.
  bool beat_static = false;
  bool verify_ok = false;   // H901 + H902 at the end of the ramp.
  std::string corrections;
};

Model MakeRampModel(const std::string& family) {
  if (family == "googlenet") {
    return MakeGoogLeNet();
  }
  if (family == "vgg16") {
    return MakeVgg16();
  }
  return MakeLeNet5();
}

}  // namespace

int Main(int argc, char** argv) {
  bool quick = false;
  std::string out_path = "BENCH_adapt.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--quick] [--out PATH]\n", argv[0]);
      return 2;
    }
  }

  const char* isa = simd::IsaName(simd::ActiveIsa());
  const int threads = parallel::CpuThreads();
  const int baseline_runs = 2;
  const int throttle_runs = quick ? 5 : 8;
  // The EWMA needs ~7 clean runs (alpha 0.5) to decay a 2.5x correction
  // into the identity bucket at growth 1.05; keep the recovery phase past
  // that even in quick mode so the baseline snap-back fires.
  const int recovery_runs = quick ? 8 : 10;

  std::printf("adapt bench: config=pf isa=%s threads=%d %s\n", isa, threads,
              quick ? "(quick)" : "");

  // --- ramp ------------------------------------------------------------------
  const std::vector<std::string> families =
      quick ? std::vector<std::string>{"googlenet"}
            : std::vector<std::string>{"googlenet", "vgg16"};
  std::vector<RampRow> ramp_rows;
  std::vector<RampSummary> summaries;
  const SocSpec soc = MakeExynos7420();

  for (const std::string& family : families) {
    const Model model = MakeRampModel(family);
    ULayerRuntime::Options adaptive_opts;
    adaptive_opts.adapt.enabled = true;
    ULayerRuntime adaptive(model, soc, adaptive_opts);
    ULayerRuntime::Options static_opts;
    static_opts.degradation_replan = false;
    ULayerRuntime static_rt(model, soc, static_opts);
    ULayerRuntime control(model, soc);

    RampSummary sum;
    sum.model = family;
    const auto phase = [&](const char* name, const char* spec, int runs) {
      adaptive.SetFaultPlan(fault::FaultPlan::Parse(spec));
      static_rt.SetFaultPlan(fault::FaultPlan::Parse(spec));
      for (int i = 0; i < runs; ++i) {
        RampRow row;
        row.model = family;
        row.phase = name;
        row.run = i;
        row.adaptive_us = adaptive.Run().latency_us;
        row.static_us = static_rt.Run().latency_us;
        row.clean_us = control.Run().latency_us;
        row.deviation = adaptive.last_relative_deviation();
        ramp_rows.push_back(row);
      }
    };

    phase("baseline", "", baseline_runs);
    const size_t throttle_begin = adaptive.drift_history().size();
    phase("throttle", kThrottleSpec, throttle_runs);
    const size_t throttle_end = adaptive.drift_history().size();
    phase("recovery", "", recovery_runs);

    for (const RampRow& row : ramp_rows) {
      if (row.model != family) {
        continue;
      }
      if (row.phase == "throttle") {
        sum.adaptive_throttled_us += row.adaptive_us;
        sum.static_throttled_us += row.static_us;
      }
    }
    const RampRow& last = ramp_rows.back();
    sum.throttled_speedup = sum.adaptive_throttled_us > 0.0
                                ? sum.static_throttled_us / sum.adaptive_throttled_us
                                : 0.0;
    sum.final_deviation = adaptive.last_relative_deviation();
    sum.recovery_ratio = last.clean_us > 0.0 ? last.adaptive_us / last.clean_us : 0.0;
    sum.replans = adaptive.replans();
    const std::vector<double> throttle_devs(
        adaptive.drift_history().begin() + static_cast<long>(throttle_begin),
        adaptive.drift_history().begin() + static_cast<long>(throttle_end));
    sum.converged = VerifyDriftConvergence(throttle_devs, 0.05).ok();
    sum.recovered = sum.recovery_ratio <= 1.02;
    sum.beat_static = sum.adaptive_throttled_us < sum.static_throttled_us;
    sum.verify_ok = VerifyCorrectionTable(adaptive.predictor().corrections()).ok() &&
                    VerifyPlanCache(model.graph, adaptive.plan_cache(), adaptive.config()).ok();
    sum.corrections = adaptive.predictor().corrections().ToString();
    std::printf("  ramp  %-10s throttled: adaptive=%10.1fus static=%10.1fus (%.2fx)  "
                "final_dev=%.4f recovery=%.4fx replans=%d %s%s%s%s\n",
                family.c_str(), sum.adaptive_throttled_us, sum.static_throttled_us,
                sum.throttled_speedup, sum.final_deviation, sum.recovery_ratio, sum.replans,
                sum.beat_static ? "" : "STATIC-WON ", sum.converged ? "" : "NOT-CONVERGED ",
                sum.recovered ? "" : "NOT-RECOVERED ", sum.verify_ok ? "" : "VERIFY-FAIL");
    summaries.push_back(std::move(sum));
  }

  // --- cache accounting ------------------------------------------------------
  ULayerRuntime::Options cache_opts;
  cache_opts.adapt.enabled = true;
  cache_opts.adapt.bucket_growth = 2.0;  // Coarse: recovery rejoins baseline.
  const Model cache_model = MakeRampModel("googlenet");
  ULayerRuntime cache_rt(cache_model, soc, cache_opts);
  cache_rt.SetFaultPlan(fault::FaultPlan::Parse(kThrottleSpec));
  for (int i = 0; i < throttle_runs; ++i) {
    cache_rt.Run();
  }
  cache_rt.SetFaultPlan(fault::FaultPlan());
  for (int i = 0; i < recovery_runs; ++i) {
    cache_rt.Run();
  }
  const PlanCacheStats cache_stats = cache_rt.plan_cache().stats();
  const int64_t cache_builds = cache_rt.partitioner_builds();
  const bool cache_ok =
      cache_rt.replans() == static_cast<int>(cache_builds - 1 + cache_stats.hits) &&
      cache_stats.hits > 0;
  std::printf("  cache googlenet replans=%d builds=%lld hits=%lld misses=%lld evictions=%lld %s\n",
              cache_rt.replans(), static_cast<long long>(cache_builds),
              static_cast<long long>(cache_stats.hits), static_cast<long long>(cache_stats.misses),
              static_cast<long long>(cache_stats.evictions), cache_ok ? "" : "ACCOUNTING-FAIL");

  // --- functional digest: adaptation on/off ----------------------------------
  Model digest_model = MakeLeNet5();
  digest_model.MaterializeWeights();
  Tensor input(digest_model.graph.node(0).out_shape, DType::kF32);
  FillUniform(input, 0x5eed);
  ULayerRuntime::Options off_opts;
  off_opts.config = ExecConfig::AllF32();
  off_opts.faults = fault::FaultPlan::Parse(kThrottleSpec);
  ULayerRuntime digest_off(digest_model, soc, off_opts);
  ULayerRuntime::Options on_opts = off_opts;
  on_opts.adapt.enabled = true;
  ULayerRuntime digest_on(digest_model, soc, on_opts);
  bool digest_match = true;
  uint64_t digest = 0;
  for (int i = 0; i < 4; ++i) {
    const RunResult a = digest_off.Run(&input);
    const RunResult b = digest_on.Run(&input);
    const bool match =
        a.output.has_value() && b.output.has_value() &&
        a.output->SizeBytes() == b.output->SizeBytes() &&
        std::memcmp(a.output->raw(), b.output->raw(),
                    static_cast<size_t>(a.output->SizeBytes())) == 0;
    digest_match = digest_match && match;
    if (a.output.has_value()) {
      digest = Fnv1a64(a.output->raw(), static_cast<size_t>(a.output->SizeBytes()));
    }
  }
  std::printf("  digest lenet5 adapt on/off: %s (fnv=%016llx)\n",
              digest_match ? "identical" : "MISMATCH",
              static_cast<unsigned long long>(digest));

  bool ok = digest_match && cache_ok;
  for (const RampSummary& s : summaries) {
    ok = ok && s.beat_static && s.converged && s.recovered && s.verify_ok;
  }

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\n  \"schema\": \"ulayer-adapt-bench-v1\",\n  \"isa\": \"%s\",\n"
               "  \"quick\": %s,\n  \"threads\": %d,\n  \"config\": \"pf\",\n"
               "  \"throttle_spec\": \"%s\",\n  \"ramp\": [\n",
               isa, quick ? "true" : "false", threads, kThrottleSpec);
  for (size_t i = 0; i < ramp_rows.size(); ++i) {
    const RampRow& r = ramp_rows[i];
    std::fprintf(f,
                 "    {\"model\": \"%s\", \"phase\": \"%s\", \"run\": %d, "
                 "\"adaptive_us\": %.3f, \"static_us\": %.3f, \"clean_us\": %.3f, "
                 "\"deviation\": %.6f}%s\n",
                 r.model.c_str(), r.phase.c_str(), r.run, r.adaptive_us, r.static_us, r.clean_us,
                 r.deviation, i + 1 < ramp_rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"summary\": [\n");
  for (size_t i = 0; i < summaries.size(); ++i) {
    const RampSummary& s = summaries[i];
    std::fprintf(f,
                 "    {\"model\": \"%s\", \"adaptive_throttled_us\": %.3f, "
                 "\"static_throttled_us\": %.3f, \"throttled_speedup\": %.4f, "
                 "\"final_deviation\": %.6f, \"recovery_ratio\": %.6f, \"replans\": %d, "
                 "\"beat_static\": %s, \"converged\": %s, \"recovered\": %s, "
                 "\"verify_ok\": %s, \"corrections\": \"%s\"}%s\n",
                 s.model.c_str(), s.adaptive_throttled_us, s.static_throttled_us,
                 s.throttled_speedup, s.final_deviation, s.recovery_ratio, s.replans,
                 s.beat_static ? "true" : "false", s.converged ? "true" : "false",
                 s.recovered ? "true" : "false", s.verify_ok ? "true" : "false",
                 s.corrections.c_str(), i + 1 < summaries.size() ? "," : "");
  }
  std::fprintf(f,
               "  ],\n  \"cache\": {\"replans\": %d, \"builds\": %lld, \"hits\": %lld, "
               "\"misses\": %lld, \"evictions\": %lld, \"accounting_ok\": %s},\n"
               "  \"digest\": {\"model\": \"lenet5\", \"match\": %s, \"fnv\": \"%016llx\"}\n}\n",
               cache_rt.replans(), static_cast<long long>(cache_builds),
               static_cast<long long>(cache_stats.hits),
               static_cast<long long>(cache_stats.misses),
               static_cast<long long>(cache_stats.evictions), cache_ok ? "true" : "false",
               digest_match ? "true" : "false", static_cast<unsigned long long>(digest));
  std::fclose(f);
  std::printf("wrote %s (%zu ramp rows, %zu summaries): %s\n", out_path.c_str(), ramp_rows.size(),
              summaries.size(), ok ? "ok" : "ACCEPTANCE VIOLATED");
  return ok ? 0 : 1;
}

}  // namespace ulayer

int main(int argc, char** argv) { return ulayer::Main(argc, argv); }
