// Golden plan digests: an FNV-1a digest of every planner's output for every
// zoo builder, checked against the committed table in
// tests/golden/zoo_plans.txt.
//
// golden_digest_test pins outputs under fixed plans; this test pins the plans
// themselves. It covers:
//  - Partitioner on both SoCs: processor-friendly with default options, the
//    AllQU8 layer-to-processor baseline, the energy objective and the oracle
//    ablation;
//  - multi::MultiPartitioner on the CPU+GPU and CPU+GPU+NPU SoCs, including
//    the no-split and no-branch variants of the NPU study;
//  - net::NetPartitioner::Build on 2- and 3-worker uniform clusters.
//
// Any change that moves a single assignment, fraction or branch mapping fails
// here. On a mismatch the failure shows the freshly computed rows of that
// model in the file's format; if the change is intended, replace the model's
// rows in the golden file with them by hand.
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/fnv1a.h"
#include "core/partitioner.h"
#include "models/model.h"
#include "multi/multi.h"
#include "net/partition.h"

namespace ulayer {
namespace {

struct ZooCase {
  const char* name;
  Model (*make)();
};

void PrintTo(const ZooCase& zc, std::ostream* os) { *os << zc.name; }

// Every builder in models/model.h at its default resolution: the graphs the
// benches and tools plan.
const ZooCase kZoo[] = {
    {"lenet5", [] { return MakeLeNet5(); }},
    {"alexnet", [] { return MakeAlexNet(); }},
    {"vgg16", [] { return MakeVgg16(); }},
    {"googlenet", [] { return MakeGoogLeNet(); }},
    {"squeezenet", [] { return MakeSqueezeNetV11(); }},
    {"mobilenet", [] { return MakeMobileNetV1(); }},
    {"resnet18", [] { return MakeResNet18(); }},
    {"resnet50", [] { return MakeResNet50(); }},
    {"inceptionv3", [] { return MakeInceptionV3(); }},
};

// Plan bytes are folded field by field (doubles by bit pattern), so the
// digest sees every value exactly.
class Digest {
 public:
  template <typename T>
  void Add(const T& v) {
    h_ = Fnv1a64(&v, sizeof(v), h_);
  }
  void AddGroup(const BranchGroup& g) {
    Add(g.fork);
    Add(g.join);
    for (const std::vector<int>& branch : g.branches) {
      Add(branch.size());
      for (int id : branch) {
        Add(id);
      }
    }
  }
  std::string Hex() const {
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016llx", static_cast<unsigned long long>(h_));
    return hex;
  }

 private:
  uint64_t h_ = kFnv1a64Basis;
};

std::string DigestOf(const Plan& plan) {
  Digest d;
  d.Add(plan.batch);
  for (const NodeAssignment& a : plan.nodes) {
    d.Add(a.kind);
    d.Add(a.proc);
    d.Add(a.cpu_fraction);
    d.Add(a.gpu_fraction);
    d.Add(a.cpu_slice);
    d.Add(a.gpu_slice);
  }
  for (const BranchPlan& bp : plan.branch_plans) {
    d.AddGroup(bp.group);
    for (ProcKind p : bp.assignment) {
      d.Add(p);
    }
  }
  return d.Hex();
}

std::string DigestOf(const multi::MultiPlan& plan) {
  Digest d;
  for (const multi::MultiAssignment& a : plan.nodes) {
    for (double f : a.fractions) {
      d.Add(f);
    }
  }
  for (const multi::MultiBranchPlan& bp : plan.branch_plans) {
    d.AddGroup(bp.group);
    for (int p : bp.assignment) {
      d.Add(p);
    }
  }
  return d.Hex();
}

std::string DigestOf(const net::NetPlan& plan) {
  Digest d;
  d.Add(plan.kind);
  for (const std::vector<double>& row : plan.fractions) {
    d.Add(row.size());
    for (double f : row) {
      d.Add(f);
    }
  }
  for (int s : plan.stage_of_node) {
    d.Add(s);
  }
  for (int w : plan.stage_worker) {
    d.Add(w);
  }
  return d.Hex();
}

// The model's rows of the golden file, in file order.
std::string GoldenRows(const std::string& model) {
  std::ifstream in(std::string(ULAYER_SOURCE_DIR) + "/tests/golden/zoo_plans.txt");
  EXPECT_TRUE(in.good()) << "tests/golden/zoo_plans.txt not readable";
  std::string rows;
  for (std::string line; std::getline(in, line);) {
    if (line.rfind(model + " ", 0) == 0) {
      rows += line + "\n";
    }
  }
  return rows;
}

// One row per planner run: "<model> <planner> <variant> <plan digest>".
std::string FreshRows(const char* model, const Graph& g) {
  std::string rows;
  auto row = [&](const char* planner, const std::string& variant, const std::string& digest) {
    rows += std::string(model) + " " + planner + " " + variant + " " + digest + "\n";
  };

  for (const SocSpec& soc : {MakeExynos7420(), MakeExynos7880()}) {
    const TimingModel timing(soc);
    const ExecConfig pf = ExecConfig::ProcessorFriendly();
    const ExecConfig qu8 = ExecConfig::AllQU8();
    const LatencyPredictor pf_pred(timing, pf, {&g});
    const LatencyPredictor qu8_pred(timing, qu8, {&g});

    Partitioner::Options l2p;
    l2p.channel_distribution = false;
    l2p.branch_distribution = false;
    Partitioner::Options energy;
    energy.objective = Partitioner::Objective::kEnergy;
    Partitioner::Options oracle;
    oracle.use_oracle = true;

    const std::string tag = soc.name;
    row("partitioner", tag + "/pf", DigestOf(Partitioner(g, timing, pf, pf_pred).Build()));
    row("partitioner", tag + "/qu8_l2p",
        DigestOf(Partitioner(g, timing, qu8, qu8_pred, l2p).Build()));
    row("partitioner", tag + "/pf_energy",
        DigestOf(Partitioner(g, timing, pf, pf_pred, energy).Build()));
    row("partitioner", tag + "/pf_oracle",
        DigestOf(Partitioner(g, timing, pf, pf_pred, oracle).Build()));
  }

  const multi::MultiSoc two = multi::MakeExynos7420Multi();
  const multi::MultiSoc three = multi::MakeExynos7420WithNpu();
  multi::MultiPartitioner::Options no_branch;
  no_branch.branch_distribution = false;
  multi::MultiPartitioner::Options no_split = no_branch;
  no_split.channel_distribution = false;
  row("multi", "cpu+gpu", DigestOf(multi::MultiPartitioner(g, two).Build()));
  row("multi", "cpu+gpu+npu", DigestOf(multi::MultiPartitioner(g, three).Build()));
  row("multi", "cpu+gpu+npu/no_branch",
      DigestOf(multi::MultiPartitioner(g, three, no_branch).Build()));
  row("multi", "cpu+gpu+npu/no_split",
      DigestOf(multi::MultiPartitioner(g, three, no_split).Build()));

  for (const int workers : {2, 3}) {
    const net::ClusterSpec cluster = net::MakeUniformCluster(workers);
    row("net", cluster.name, DigestOf(net::NetPartitioner(g, cluster).Build()));
  }
  return rows;
}

class PlanGoldenTest : public ::testing::TestWithParam<ZooCase> {};

TEST_P(PlanGoldenTest, PlansMatchCommittedDigests) {
  const Model m = GetParam().make();
  EXPECT_EQ(GoldenRows(GetParam().name), FreshRows(GetParam().name, m.graph));
}

INSTANTIATE_TEST_SUITE_P(Zoo, PlanGoldenTest, ::testing::ValuesIn(kZoo),
                         [](const ::testing::TestParamInfo<ZooCase>& param) {
                           return std::string(param.param.name);
                         });

}  // namespace
}  // namespace ulayer
