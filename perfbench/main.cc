// perfbench: the repo benchmark binary. perfbench/run.py builds it and runs
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
// Its last stdout line is the result object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with every end-to-end metric (--trace 0) or every per-layer metric
// (--trace 1). It exits 1 when any output check fails.
//
// Other modes:
//   --list-metrics        print the metric table as JSON
//   --make-golden PATH    write the check-set digests at scalar ISA, 1 thread

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "common.h"
#include "kernels/simd.h"
#include "parallel/thread_pool.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

constexpr const char* kWorkloads[] = {"googlenet_pf", "vgg16_f32", "serve_zoo_sim"};

// Environment variables that silently change what the library does: a fault
// plan (parsed whenever Options::faults is empty), trace recording, and the
// kernel ISA. The benchmark refuses to run with any of them set.
constexpr const char* kForbiddenEnv[] = {"ULAYER_FAULTS", "ULAYER_TRACE", "ULAYER_SIMD"};

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME [--seed N] [--seconds S] "
               "[--trace 0|1] [--quick] [--host-threads N] [--golden PATH] [--trace-out PATH]\n"
               "       perfbench --list-metrics\n"
               "       perfbench --make-golden PATH\n",
               why);
  return 2;
}

void PrintSpecs(const char* key, const std::vector<MetricSpec>& specs, bool bound, bool last) {
  std::printf("  \"%s\": [\n", key);
  for (size_t i = 0; i < specs.size(); ++i) {
    const MetricSpec& s = specs[i];
    std::printf("    {\"name\": \"%s\", \"unit\": \"%s\", \"better\": \"%s\"", s.name.c_str(),
                s.unit.c_str(), s.better.c_str());
    if (bound) {
      std::printf(", \"bound\": %g", s.bound);
    }
    std::printf("}%s\n", i + 1 < specs.size() ? "," : "");
  }
  std::printf("  ]%s\n", last ? "" : ",");
}

// Pins the host thread budget through the library's ULAYER_CPU_THREADS
// override (read once, at the first kernel dispatch). Fails when the
// environment already carries a different budget.
bool PinHostThreads(int threads) {
  const std::string want = std::to_string(threads);
  const char* have = std::getenv("ULAYER_CPU_THREADS");
  if (have != nullptr && want != have) {
    std::fprintf(stderr, "perfbench: ULAYER_CPU_THREADS=%s conflicts with --host-threads %d\n",
                 have, threads);
    return false;
  }
  return setenv("ULAYER_CPU_THREADS", want.c_str(), 1) == 0;
}

int MakeGolden(const std::string& path) {
  if (!PinHostThreads(1)) {
    return 2;
  }
  ulayer::simd::ForceIsa(ulayer::simd::Isa::kScalar);
  GoldenSet set;
  for (const char* w : kWorkloads) {
    if (IsFunctionalWorkload(w)) {
      set[w] = CheckSetDigests(w);
    }
  }
  if (!WriteGolden(path, set)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    return 1;
  }
  return 0;
}

int Run(const Options& opt) {
  if (!PinHostThreads(opt.host_threads)) {
    return 2;
  }
  std::printf(
      "{\"provenance\": {\"workload\": \"%s\", \"seed\": %" PRIu64
      ", \"seconds\": %g, \"trace\": %d, \"quick\": %s, \"isa\": \"%s\", \"host_threads\": %d, "
      "\"nproc\": %u, \"build_type\": \"%s\"}}\n",
      opt.workload.c_str(), opt.seed, opt.seconds, opt.trace ? 1 : 0,
      opt.quick ? "true" : "false", ulayer::simd::IsaName(ulayer::simd::ActiveIsa()),
      ulayer::parallel::CpuThreads(), std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE);

  const Outcome out = IsFunctionalWorkload(opt.workload) ? RunFunctional(opt) : RunServe(opt);
  for (const auto& [key, value] : out.notes) {
    std::printf("{\"note\": \"%s\", \"value\": \"%s\"}\n", key.c_str(), value.c_str());
  }

  bool correct = out.correct && out.failed == 0 && out.attempted > 0;
  const std::vector<MetricSpec>& specs = opt.trace ? PerLayerMetrics() : EndToEndMetrics();
  std::string metrics;
  for (const MetricSpec& s : specs) {
    const double v = out.metrics.Get(s.name);
    if (!std::isfinite(v)) {
      std::fprintf(stderr, "perfbench: metric %s is not finite\n", s.name.c_str());
      correct = false;
    }
    char buf[512];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", s.name.c_str(), std::isfinite(v) ? v : 0.0,
                  s.unit.c_str());
    metrics += buf;
  }
  std::printf("{\"correct\": %s, \"attempted\": %" PRId64 ", \"failed\": %" PRId64
              ", \"metrics\": {%s}}\n",
              correct ? "true" : "false", out.attempted, out.failed, metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

int Main(int argc, char** argv) {
  for (const char* var : kForbiddenEnv) {
    if (std::getenv(var) != nullptr) {
      std::fprintf(stderr, "perfbench: refusing to run with %s set; unset it first\n", var);
      return 2;
    }
  }
  Options opt;
  opt.golden_path = "perfbench/golden.txt";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--list-metrics") {
      std::printf("{\n");
      PrintSpecs("end_to_end", EndToEndMetrics(), true, false);
      PrintSpecs("per_layer", PerLayerMetrics(), false, true);
      std::printf("}\n");
      return 0;
    } else if (arg == "--make-golden" && has_value) {
      return MakeGolden(argv[++i]);
    } else if (arg == "--workload" && has_value) {
      opt.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      opt.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      opt.trace = std::string(argv[++i]) == "1";
    } else if (arg == "--quick") {
      opt.quick = true;
    } else if (arg == "--host-threads" && has_value) {
      opt.host_threads = std::atoi(argv[++i]);
    } else if (arg == "--golden" && has_value) {
      opt.golden_path = argv[++i];
    } else if (arg == "--trace-out" && has_value) {
      opt.trace_out = argv[++i];
    } else {
      return Usage(("unknown or incomplete argument " + arg).c_str());
    }
  }
  bool known = false;
  for (const char* w : kWorkloads) {
    known = known || opt.workload == w;
  }
  if (!known) {
    return Usage(("unknown workload '" + opt.workload + "'").c_str());
  }
  if (!(opt.seconds > 0.0 && opt.seconds <= 600.0) || opt.host_threads < 1 ||
      opt.host_threads > 256) {
    return Usage("--seconds must be in (0, 600] and --host-threads in [1, 256]");
  }
  return Run(opt);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: error: %s\n", e.what());
    return 1;
  }
}
