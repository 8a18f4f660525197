#include "multi/multi.h"

#include <gtest/gtest.h>
#include <cmath>


#include "models/model.h"

namespace ulayer::multi {
namespace {

TEST(MultiSocTest, PresetsHaveExpectedProcessors) {
  const MultiSoc two = MakeExynos7420Multi();
  ASSERT_EQ(two.procs.size(), 2u);
  EXPECT_EQ(two.procs[0].compute, DType::kQUInt8);  // CPU.
  EXPECT_EQ(two.procs[1].compute, DType::kF16);     // GPU.
  const MultiSoc three = MakeExynos7420WithNpu();
  ASSERT_EQ(three.procs.size(), 3u);
  EXPECT_EQ(three.procs[2].compute, DType::kQUInt8);  // NPU.
  EXPECT_GT(three.procs[2].spec.gmacs_qu8, three.procs[0].spec.gmacs_qu8);
}

TEST(MultiPartitionerTest, FractionsAlwaysSumToOne) {
  const Model m = MakeGoogLeNet();
  const MultiSoc soc = MakeExynos7420WithNpu();
  const MultiPlan plan = MultiPartitioner(m.graph, soc).Build();
  for (const Node& n : m.graph.nodes()) {
    if (n.desc.kind == LayerKind::kInput) {
      continue;
    }
    const MultiAssignment& a = plan.nodes[static_cast<size_t>(n.id)];
    double sum = 0.0;
    for (double f : a.fractions) {
      EXPECT_GE(f, 0.0);
      sum += f;
    }
    EXPECT_NEAR(sum, 1.0, 1e-9) << n.desc.name;
  }
}

TEST(MultiPartitionerTest, TwoProcConfigMatchesCoreShape) {
  // With exactly {CPU, GPU}, the N-way partitioner must still want to split
  // the big conv layers of VGG-16.
  const Model m = MakeVgg16();
  const MultiSoc soc = MakeExynos7420Multi();
  const MultiPlan plan = MultiPartitioner(m.graph, soc).Build();
  int split = 0;
  for (const Node& n : m.graph.nodes()) {
    if (n.desc.kind == LayerKind::kConv &&
        plan.nodes[static_cast<size_t>(n.id)].ActiveProcs() > 1) {
      ++split;
    }
  }
  EXPECT_GT(split, 5);
}

TEST(MultiPartitionerTest, NpuAttractsQuantizedConvWork) {
  // The NPU's integer throughput dominates: big conv layers should give it
  // a slice (or run on it entirely).
  const Model m = MakeAlexNet();
  const MultiSoc soc = MakeExynos7420WithNpu();
  const MultiPlan plan = MultiPartitioner(m.graph, soc).Build();
  double npu_fraction_sum = 0.0;
  int convs = 0;
  for (const Node& n : m.graph.nodes()) {
    if (n.desc.kind == LayerKind::kConv) {
      npu_fraction_sum += plan.nodes[static_cast<size_t>(n.id)].fractions[2];
      ++convs;
    }
  }
  EXPECT_GT(npu_fraction_sum / convs, 0.2);
}

TEST(MultiExecutorTest, ThreeProcessorsBeatTwo) {
  // The paper's Section 8.3 claim: the key ideas hold with an NPU added —
  // more processors, lower latency.
  for (const Model& m : MakeEvaluationModels()) {
    const MultiSoc two = MakeExynos7420Multi();
    const MultiSoc three = MakeExynos7420WithNpu();
    const MultiRunResult r2 = MultiExecutor(m.graph, two).Run(
        MultiPartitioner(m.graph, two).Build());
    const MultiRunResult r3 = MultiExecutor(m.graph, three).Run(
        MultiPartitioner(m.graph, three).Build());
    EXPECT_LT(r3.latency_us, r2.latency_us) << m.name;
    EXPECT_GT(r3.latency_us, 0.0);
  }
}

TEST(MultiExecutorTest, SingleProcessorPlanUsesOnlyThatTimeline) {
  const Model m = MakeLeNet5();
  const MultiSoc soc = MakeExynos7420WithNpu();
  MultiPlan plan;
  plan.nodes.resize(static_cast<size_t>(m.graph.size()));
  for (MultiAssignment& a : plan.nodes) {
    a.fractions = {0.0, 0.0, 1.0};  // Everything on the NPU.
  }
  const MultiRunResult r = MultiExecutor(m.graph, soc).Run(plan);
  EXPECT_GT(r.busy_us[2], 0.0);
  EXPECT_DOUBLE_EQ(r.busy_us[0], 0.0);
  EXPECT_DOUBLE_EQ(r.busy_us[1], 0.0);
  EXPECT_EQ(r.sync_count, 0);
}

TEST(MultiExecutorTest, CooperativeNodesPaySyncs) {
  const Model m = MakeLeNet5();
  const MultiSoc soc = MakeExynos7420Multi();
  MultiPlan plan;
  plan.nodes.resize(static_cast<size_t>(m.graph.size()));
  for (MultiAssignment& a : plan.nodes) {
    a.fractions = {0.5, 0.5};
  }
  // Input node assignment is ignored; all others are cooperative.
  const MultiRunResult r = MultiExecutor(m.graph, soc).Run(plan);
  EXPECT_GT(r.sync_count, 0);
}

TEST(MultiExecutorTest, BranchDistributionSpreadsAcrossThreeProcs) {
  const Model m = MakeGoogLeNet();
  const MultiSoc soc = MakeExynos7420WithNpu();
  const MultiPlan plan = MultiPartitioner(m.graph, soc).Build();
  ASSERT_FALSE(plan.branch_plans.empty());
  // Branch mappings should parallelize across processors. (All three procs
  // are not required: when one branch dominates a module's makespan, a
  // two-processor mapping already achieves the optimum and the enumerator
  // breaks ties toward fewer processors/syncs.)
  int multi_proc_groups = 0;
  for (const MultiBranchPlan& bp : plan.branch_plans) {
    uint32_t used = 0;
    for (int p : bp.assignment) {
      used |= 1u << p;
    }
    multi_proc_groups += (used & (used - 1)) != 0 ? 1 : 0;  // >= 2 bits set.
  }
  EXPECT_GE(multi_proc_groups, 5);
}

TEST(MultiPartitionerTest, EstimateRespectsGridStep) {
  // The fraction search runs on the fixed 0.25 grid: compositions of four
  // quarters with at least two active processors.
  EXPECT_EQ(FractionGrid(2).size(), 3u);
  EXPECT_EQ(FractionGrid(3).size(), 12u);
  const Model m = MakeVgg16();
  const MultiSoc soc = MakeExynos7420WithNpu();
  const MultiPlan plan = MultiPartitioner(m.graph, soc).Build();
  bool quarter = false;
  for (const MultiAssignment& a : plan.nodes) {
    for (double f : a.fractions) {
      const double scaled = f / 0.25;
      EXPECT_NEAR(scaled, std::round(scaled), 1e-9);
      quarter = quarter || std::fabs(f - 0.25) < 1e-9 || std::fabs(f - 0.75) < 1e-9;
    }
  }
  EXPECT_TRUE(quarter) << "no plan row uses a quarter point of the grid";
}

TEST(MultiPartitionerTest, ZeroChannelNodeIsFreeNotUB) {
  // A corrupt graph can carry out_shape.c == 0. SliceWork used to call
  // std::clamp(x, 1, 0) on it (hi < lo is UB) and priced a phantom channel;
  // every slice of such a node must be empty instead.
  Node in;
  in.id = 0;
  in.desc.kind = LayerKind::kInput;
  in.desc.name = "in";
  in.out_shape = Shape(1, 4, 8, 8);
  Node zero;
  zero.id = 1;
  zero.desc.kind = LayerKind::kRelu;
  zero.desc.name = "zero-c";
  zero.inputs = {0};
  zero.out_shape = Shape(1, 0, 8, 8);  // Degenerate: zero output channels.
  const Graph g = Graph::UncheckedFromNodes({in, zero});

  for (const double f : {0.25, 0.5, 1.0}) {
    const LayerWork w = SliceWork(g, g.node(1), f);
    EXPECT_EQ(w.macs, 0.0) << "fraction " << f;
    EXPECT_EQ(w.TotalBytes(), 0.0) << "fraction " << f;
  }
  const MultiPlan plan = MultiPartitioner(g, MakeExynos7420WithNpu()).Build();
  ASSERT_EQ(plan.nodes.size(), 2u);
  double sum = 0.0;
  for (double f : plan.nodes[1].fractions) {
    sum += f;
  }
  EXPECT_DOUBLE_EQ(sum, 1.0);
}

}  // namespace
}  // namespace ulayer::multi
