// Observability layer tests (DESIGN.md Section 11):
//  - Trace-off runs record nothing and are bit-identical to traced runs
//    (latency, busy time, kernel trace, output bytes).
//  - ULAYER_TRACE environment toggle.
//  - Golden Chrome trace-event JSON: the export round-trips through the
//    bundled parser and matches the documented schema (metadata events,
//    per-device tracks, gap track, queue-depth counters, bit-exact
//    timestamps).
//  - Trace invariants (T401-T406) hold across zoo models x plans x thread
//    budgets x fault specs, and queue depth stays coherent.
//  - Predictor-drift table: fault-free ratios are 1 to round-off; injected
//    slowdowns surface as the throttle factor.
//  - MetricsRegistry aggregation across runs.
#include "trace/trace.h"

#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/baselines.h"
#include "core/executor.h"
#include "core/prepared.h"
#include "fault/fault.h"
#include "half_split_plan.h"
#include "models/model.h"
#include "tensor/rng.h"
#include "trace/chrome.h"
#include "trace/metrics.h"
#include "verify/verify.h"

namespace ulayer {
namespace {

using trace::FaultTag;
using trace::IsOccupying;
using trace::JsonValue;
using trace::ParseJson;
using trace::RunTrace;
using trace::Span;
using trace::SpanKind;

// Runs `plan` once on a fresh executor with tracing as requested.
RunResult TracedRun(const Model& m, ExecConfig cfg, const Plan& plan,
                    const std::string& fault_spec = std::string()) {
  cfg.trace = true;
  PreparedModel pm(m, cfg);
  Executor ex(pm, MakeExynos7420());
  if (!fault_spec.empty()) {
    ex.SetFaultPlan(fault::FaultPlan::Parse(fault_spec));
  }
  return ex.Run(plan);
}

// --- Zero overhead when off --------------------------------------------------

TEST(TraceTest, TraceOffRecordsNothingAndTimelinesMatchTraceOn) {
  Model m = MakeLeNet5();
  m.MaterializeWeights();
  Tensor input(Shape(1, 1, 28, 28), DType::kF32);
  FillUniform(input, 1234, -1.0f, 1.0f);
  const Plan plan = MakeHalfSplitPlan(m.graph);

  ExecConfig off_cfg = ExecConfig::AllF32();
  off_cfg.trace = false;
  PreparedModel off_pm(m, off_cfg);
  Executor off_ex(off_pm, MakeExynos7420());
  const RunResult off = off_ex.Run(plan, &input);
  EXPECT_FALSE(off.run_trace.enabled);
  EXPECT_TRUE(off.run_trace.spans.empty());
  EXPECT_TRUE(off.run_trace.queue_depth.empty());

  ExecConfig on_cfg = ExecConfig::AllF32();
  on_cfg.trace = true;
  PreparedModel on_pm(m, on_cfg);
  Executor on_ex(on_pm, MakeExynos7420());
  const RunResult on = on_ex.Run(plan, &input);
  ASSERT_TRUE(on.run_trace.enabled);
  EXPECT_FALSE(on.run_trace.spans.empty());

  // Recording must not perturb the simulated schedule: every timeline
  // quantity is bit-identical, not merely close.
  EXPECT_DOUBLE_EQ(off.latency_us, on.latency_us);
  EXPECT_DOUBLE_EQ(off.cpu_busy_us, on.cpu_busy_us);
  EXPECT_DOUBLE_EQ(off.gpu_busy_us, on.gpu_busy_us);
  EXPECT_EQ(off.sync_count, on.sync_count);
  ASSERT_EQ(off.trace.size(), on.trace.size());
  for (size_t i = 0; i < off.trace.size(); ++i) {
    EXPECT_EQ(off.trace[i].node, on.trace[i].node);
    EXPECT_EQ(off.trace[i].proc, on.trace[i].proc);
    EXPECT_DOUBLE_EQ(off.trace[i].start_us, on.trace[i].start_us);
    EXPECT_DOUBLE_EQ(off.trace[i].end_us, on.trace[i].end_us);
  }
  ASSERT_TRUE(off.output.has_value());
  ASSERT_TRUE(on.output.has_value());
  ASSERT_EQ(off.output->SizeBytes(), on.output->SizeBytes());
  EXPECT_EQ(std::memcmp(off.output->raw(), on.output->raw(),
                        static_cast<size_t>(off.output->SizeBytes())),
            0);
}

TEST(TraceTest, UlayerTraceEnvironmentVariableEnablesRecording) {
  const Model m = MakeLeNet5();
  ExecConfig cfg = ExecConfig::AllF32();
  cfg.trace = false;
  PreparedModel pm(m, cfg);
  Executor ex(pm, MakeExynos7420());
  const Plan plan = MakeSingleProcessorPlan(m.graph, ProcKind::kCpu);

  ASSERT_EQ(::setenv("ULAYER_TRACE", "1", 1), 0);
  const RunResult on = ex.Run(plan);
  EXPECT_TRUE(on.run_trace.enabled) << "ULAYER_TRACE=1 must enable recording";
  EXPECT_FALSE(on.run_trace.spans.empty());

  // Exactly "0" means off; the config flag still wins when set.
  ASSERT_EQ(::setenv("ULAYER_TRACE", "0", 1), 0);
  const RunResult off = ex.Run(plan);
  EXPECT_FALSE(off.run_trace.enabled);
  ::unsetenv("ULAYER_TRACE");
}

// --- Golden Chrome trace JSON ------------------------------------------------

TEST(ChromeTraceTest, GoldenExportRoundTripsAndMatchesTheSchema) {
  const Model m = MakeLeNet5();
  const RunResult r = TracedRun(m, ExecConfig::ProcessorFriendly(), MakeHalfSplitPlan(m.graph));
  const RunTrace& rt = r.run_trace;
  ASSERT_TRUE(rt.enabled);
  ASSERT_FALSE(rt.spans.empty());
  ASSERT_FALSE(rt.queue_depth.empty());

  trace::ChromeExportOptions opts;
  opts.graph = &m.graph;
  opts.model = "lenet5";
  opts.soc = "exynos7420";
  opts.config = "pf";
  const std::string json = ChromeTraceJson(rt, opts);
  EXPECT_EQ(json, ChromeTraceJson(rt, opts)) << "export must be deterministic";

  const JsonValue doc = ParseJson(json);
  ASSERT_EQ(doc.kind, JsonValue::Kind::kObject);
  const JsonValue* unit = doc.Find("displayTimeUnit");
  ASSERT_NE(unit, nullptr);
  EXPECT_EQ(unit->string, "ms");

  const JsonValue* other = doc.Find("otherData");
  ASSERT_NE(other, nullptr);
  EXPECT_EQ(other->Find("tool")->string, "ulayer");
  EXPECT_EQ(other->Find("model")->string, "lenet5");
  EXPECT_EQ(other->Find("soc")->string, "exynos7420");
  EXPECT_EQ(other->Find("config")->string, "pf");
  // %.17g printing round-trips bit-exactly, so == is the right comparison.
  EXPECT_EQ(other->Find("latency_us")->number, rt.latency_us);
  EXPECT_EQ(other->Find("cpu_busy_us")->number, rt.cpu_busy_us);
  EXPECT_EQ(other->Find("gpu_busy_us")->number, rt.gpu_busy_us);
  EXPECT_EQ(other->Find("sync_count")->number, static_cast<double>(rt.sync_count));

  const JsonValue* events = doc.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->kind, JsonValue::Kind::kArray);

  size_t meta = 0, durations = 0, counters = 0;
  for (const JsonValue& ev : events->items) {
    ASSERT_EQ(ev.kind, JsonValue::Kind::kObject);
    const std::string& ph = ev.Find("ph")->string;
    EXPECT_EQ(ev.Find("pid")->number, 0.0);
    const int tid = static_cast<int>(ev.Find("tid")->number);
    EXPECT_TRUE(tid == trace::kChromeTidCpu || tid == trace::kChromeTidGpu ||
                tid == trace::kChromeTidGaps);
    if (ph == "M") {
      ++meta;
      continue;
    }
    if (ph == "C") {
      // Queue-depth counter samples: per-device track, never negative.
      EXPECT_NE(tid, trace::kChromeTidGaps);
      const JsonValue* outstanding = ev.Find("args")->Find("outstanding");
      ASSERT_NE(outstanding, nullptr);
      EXPECT_GE(outstanding->number, 0.0);
      ++counters;
      continue;
    }
    ASSERT_EQ(ph, "X");
    // Duration events appear in span order; cross-check against the source.
    ASSERT_LT(durations, rt.spans.size());
    const Span& sp = rt.spans[durations];
    EXPECT_EQ(ev.Find("ts")->number, sp.start_us) << "timestamps round-trip bit-exactly";
    EXPECT_EQ(ev.Find("dur")->number, sp.duration_us());
    EXPECT_EQ(tid, IsOccupying(sp.kind)
                       ? (sp.proc == ProcKind::kCpu ? trace::kChromeTidCpu : trace::kChromeTidGpu)
                       : trace::kChromeTidGaps);
    const JsonValue* args = ev.Find("args");
    ASSERT_NE(args, nullptr);
    EXPECT_EQ(args->Find("node")->number, static_cast<double>(sp.node));
    EXPECT_EQ(args->Find("kind")->string, std::string(SpanKindName(sp.kind)));
    EXPECT_EQ(args->Find("fault")->string, std::string(FaultTagName(sp.fault)));
    if (sp.kind == SpanKind::kKernel) {
      EXPECT_EQ(args->Find("c_begin") != nullptr, sp.c_end >= 0);
      if (sp.predicted_us > 0.0) {
        ASSERT_NE(args->Find("predicted_us"), nullptr);
        EXPECT_EQ(args->Find("predicted_us")->number, sp.predicted_us);
      }
    }
    ++durations;
  }
  EXPECT_EQ(meta, 4u) << "process name + three thread-name tracks";
  EXPECT_EQ(durations, rt.spans.size());
  EXPECT_EQ(counters, rt.queue_depth.size());
}

// --- Trace invariants across plans, threads and faults ------------------------

TEST(TraceInvariantTest, HoldAcrossModelsPlansThreadsAndFaultSpecs) {
  struct Case {
    Model model;
    ExecConfig cfg;
  };
  Case cases[] = {
      {MakeLeNet5(), ExecConfig::AllF32()},
      {MakeSqueezeNetV11(1, 64), ExecConfig::ProcessorFriendly()},
      {MakeGoogLeNet(), ExecConfig::ProcessorFriendly()},
  };
  const char* specs[] = {
      "",
      "seed=5;gpu.any@prob:0.25=timeout:120",
      "gpu.kernel=slow:2",
      "gpu.kernel@call:2=device-lost",
      "gpu.kernel@limit:1=enqueue-failed;gpu.map@call:3=map-failed",
  };
  for (Case& c : cases) {
    const Plan plans[] = {MakeSingleProcessorPlan(c.model.graph, ProcKind::kCpu),
                          MakeSingleProcessorPlan(c.model.graph, ProcKind::kGpu),
                          MakeHalfSplitPlan(c.model.graph)};
    for (size_t pi = 0; pi < 3; ++pi) {
      for (const int threads : {1, 4}) {
        for (const char* spec : specs) {
          ExecConfig cfg = c.cfg;
          cfg.cpu_threads = threads;
          const RunResult r = TracedRun(c.model, cfg, plans[pi], spec);
          const Report report = VerifyRunTrace(r.run_trace);
          EXPECT_TRUE(report.ok()) << c.model.name << " plan#" << pi << " threads=" << threads
                                   << " spec=\"" << spec << "\"\n"
                                   << report.ToString();
          // Queue depth: cumulative, non-negative, and every enqueue has a
          // completion (both device tracks drain back to zero).
          int last[2] = {0, 0};
          for (const trace::QueueSample& q : r.run_trace.queue_depth) {
            EXPECT_GE(q.depth, 0) << c.model.name << " spec=\"" << spec << "\"";
            last[q.proc == ProcKind::kCpu ? 0 : 1] = q.depth;
          }
          EXPECT_EQ(last[0], 0);
          EXPECT_EQ(last[1], 0);
        }
      }
    }
  }
}

TEST(TraceInvariantTest, DisabledTraceIsATypedVerifierError) {
  RunTrace rt;  // Default: enabled = false.
  const Report report = VerifyRunTrace(rt);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.Has(DiagCode::kTraceNotEnabled));
}

// --- Predictor drift ---------------------------------------------------------

TEST(DriftReportTest, FaultFreeRatiosAreOneToRoundOff) {
  const Model m = MakeGoogLeNet();
  const RunResult r = TracedRun(m, ExecConfig::ProcessorFriendly(), MakeHalfSplitPlan(m.graph));
  const trace::DriftReport rep = BuildDriftReport(r.run_trace);
  ASSERT_FALSE(rep.rows.empty());
  // The simulation runs on the same timing model the predictor uses, so
  // fault-free drift is floating-point round-off, nothing more.
  EXPECT_LE(rep.max_abs_deviation, 1e-9);
  EXPECT_NEAR(rep.cpu_ratio, 1.0, 1e-9);
  EXPECT_NEAR(rep.gpu_ratio, 1.0, 1e-9);
  EXPECT_NEAR(rep.overall_ratio, 1.0, 1e-9);
  // The human-readable table renders one line per kernel span.
  const std::string table = rep.ToString(&m.graph);
  EXPECT_NE(table.find("predictor drift"), std::string::npos);
  EXPECT_NE(table.find("aggregate:"), std::string::npos);
}

TEST(DriftReportTest, SlowdownsSurfaceAsTheThrottleFactor) {
  // VGG16: kernel bodies dwarf the launch overhead, so the duration-weighted
  // aggregate sits near the injected factor rather than being diluted.
  const Model m = MakeVgg16();
  const RunResult r =
      TracedRun(m, ExecConfig::ProcessorFriendly(),
                MakeSingleProcessorPlan(m.graph, ProcKind::kGpu), "gpu.kernel=slow:2");
  ASSERT_GT(r.degradation.slowdowns, 0);
  const trace::DriftReport rep = BuildDriftReport(r.run_trace);
  ASSERT_FALSE(rep.rows.empty());
  for (const trace::DriftRow& row : rep.rows) {
    if (row.proc != ProcKind::kGpu) {
      continue;
    }
    // predicted = launch + body, simulated = launch + 2*body: strictly
    // above 1 and below the raw factor.
    EXPECT_GT(row.ratio, 1.0) << "node " << row.node;
    EXPECT_LT(row.ratio, 2.0 + 1e-9) << "node " << row.node;
  }
  EXPECT_GT(rep.gpu_ratio, 1.5);
  EXPECT_GT(rep.max_abs_deviation, 1e-6);
}

// --- Metrics registry --------------------------------------------------------

TEST(MetricsRegistryTest, AggregatesRunsAndExportsJson) {
  const Model m = MakeLeNet5();
  ExecConfig cfg = ExecConfig::ProcessorFriendly();
  cfg.trace = true;
  PreparedModel pm(m, cfg);
  Executor ex(pm, MakeExynos7420());
  const Plan plan = MakeHalfSplitPlan(m.graph);

  trace::MetricsRegistry registry;
  EXPECT_TRUE(registry.empty());
  RunResult r;
  for (int i = 0; i < 3; ++i) {
    ex.RunInto(plan, nullptr, r);
    registry.AddRun(r.run_trace);
  }
  EXPECT_EQ(registry.counter("runs"), 3);
  EXPECT_EQ(registry.counter("spans"), 3 * static_cast<int64_t>(r.run_trace.spans.size()));
  const trace::Histogram* latency = registry.histogram("latency_us");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->count, 3);
  // Identical runs: min == max == mean == the run's latency.
  EXPECT_DOUBLE_EQ(latency->min, r.latency_us);
  EXPECT_DOUBLE_EQ(latency->max, r.latency_us);
  EXPECT_DOUBLE_EQ(latency->mean(), r.latency_us);

  registry.Count("custom_counter", 5);
  registry.Observe("custom_value", 2.5);
  EXPECT_EQ(registry.counter("custom_counter"), 5);
  ASSERT_NE(registry.histogram("custom_value"), nullptr);
  EXPECT_DOUBLE_EQ(registry.histogram("custom_value")->sum, 2.5);
  EXPECT_EQ(registry.counter("no_such_counter"), 0);
  EXPECT_EQ(registry.histogram("no_such_histogram"), nullptr);

  // The JSON export parses and carries both sections.
  const JsonValue doc = ParseJson(registry.ToJson());
  ASSERT_EQ(doc.kind, JsonValue::Kind::kObject);
  const JsonValue* counters = doc.Find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(counters->Find("runs")->number, 3.0);
  const JsonValue* histograms = doc.Find("histograms");
  ASSERT_NE(histograms, nullptr);
  const JsonValue* lat = histograms->Find("latency_us");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->Find("count")->number, 3.0);
  // The table form mentions every counter by name.
  EXPECT_NE(registry.ToString().find("custom_counter"), std::string::npos);
}

// Histogram::Quantile estimates from fixed geometric buckets (growth 1.25):
// any estimate is within one bucket ratio of the true quantile, i.e. a 25%
// relative error bound, regardless of observation order.
TEST(HistogramQuantileTest, UniformSequenceWithinBucketResolution) {
  trace::Histogram h;
  for (int v = 1; v <= 1000; ++v) {
    h.Observe(static_cast<double>(v));
  }
  EXPECT_DOUBLE_EQ(h.Quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), 1000.0);
  const double p50 = h.Quantile(0.5);
  const double p99 = h.Quantile(0.99);
  EXPECT_GT(p50, 500.0 / 1.25);
  EXPECT_LT(p50, 500.0 * 1.25);
  EXPECT_GT(p99, 990.0 / 1.25);
  EXPECT_LT(p99, 990.0 * 1.25);
  EXPECT_LE(p50, p99);  // Quantiles are monotone in p.
  // Estimates never escape the observed range.
  EXPECT_GE(h.Quantile(0.001), 1.0);
  EXPECT_LE(h.Quantile(0.999), 1000.0);
}

TEST(HistogramQuantileTest, DegenerateCases) {
  trace::Histogram empty;
  EXPECT_DOUBLE_EQ(empty.Quantile(0.5), 0.0);

  trace::Histogram one;
  one.Observe(42.0);
  EXPECT_DOUBLE_EQ(one.Quantile(0.0), 42.0);
  EXPECT_DOUBLE_EQ(one.Quantile(0.5), 42.0);
  EXPECT_DOUBLE_EQ(one.Quantile(1.0), 42.0);

  trace::Histogram same;  // min == max: exact at every p.
  for (int i = 0; i < 10; ++i) {
    same.Observe(7.5);
  }
  EXPECT_DOUBLE_EQ(same.Quantile(0.99), 7.5);

  // Values at/below the first bound and beyond the last (overflow bucket)
  // still clamp into [min, max].
  trace::Histogram wide;
  wide.Observe(0.25);
  wide.Observe(1e12);
  EXPECT_GE(wide.Quantile(0.01), 0.25);
  EXPECT_LE(wide.Quantile(0.99), 1e12);
}

TEST(HistogramQuantileTest, BimodalSeparatesModes) {
  trace::Histogram h;
  for (int i = 0; i < 90; ++i) {
    h.Observe(10.0);
  }
  for (int i = 0; i < 10; ++i) {
    h.Observe(10000.0);
  }
  EXPECT_LT(h.Quantile(0.5), 15.0);
  EXPECT_GT(h.Quantile(0.95), 1000.0);
}

TEST(HistogramQuantileTest, JsonAndTableExportCarryQuantiles) {
  trace::MetricsRegistry registry;
  for (int v = 1; v <= 100; ++v) {
    registry.Observe("latency_us", static_cast<double>(v));
  }
  const JsonValue doc = ParseJson(registry.ToJson());
  const JsonValue* lat = doc.Find("histograms")->Find("latency_us");
  ASSERT_NE(lat, nullptr);
  ASSERT_NE(lat->Find("p50"), nullptr);
  ASSERT_NE(lat->Find("p99"), nullptr);
  EXPECT_GT(lat->Find("p50")->number, 50.0 / 1.25);
  EXPECT_LT(lat->Find("p50")->number, 50.0 * 1.25);
  EXPECT_NE(registry.ToString().find("p99"), std::string::npos);
}

}  // namespace
}  // namespace ulayer
