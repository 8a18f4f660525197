// Golden output digests: an FNV-1a digest of the functional output for every
// zoo builder × ExecConfig × plan, checked against the committed table in
// tests/golden/zoo_digests.txt.
//
// Any change that moves a single output byte — a kernel, the executor's
// memory path, the prepare-time weight caches, calibration — fails here. The
// table was produced at ULAYER_SIMD=scalar with 1 CPU thread; every row must
// hold at any ISA and at 1 and 4 threads. On a mismatch the failure shows the
// freshly computed rows of that model in the file's format; if the change is
// intended, replace the model's rows in the golden file with them by hand.
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/fnv1a.h"
#include "core/executor.h"
#include "core/prepared.h"
#include "half_split_plan.h"
#include "models/model.h"
#include "parallel/thread_pool.h"
#include "tensor/rng.h"

namespace ulayer {
namespace {

struct ZooCase {
  const char* name;
  Model (*make)();
};

void PrintTo(const ZooCase& zc, std::ostream* os) { *os << zc.name; }

// Every builder in models/model.h, each at a small input size it accepts.
const ZooCase kZoo[] = {
    {"lenet5", [] { return MakeLeNet5(); }},
    {"alexnet_67", [] { return MakeAlexNet(1, 67); }},
    {"vgg16_32", [] { return MakeVgg16(1, 32); }},
    {"googlenet_32", [] { return MakeGoogLeNet(1, 32); }},
    {"squeezenet_32", [] { return MakeSqueezeNetV11(1, 32); }},
    {"mobilenet_32", [] { return MakeMobileNetV1(1, 32); }},
    {"resnet18_32", [] { return MakeResNet18(1, 32); }},
    {"resnet50_32", [] { return MakeResNet50(1, 32); }},
    {"inceptionv3_75", [] { return MakeInceptionV3(1, 75); }},
};

// The model's rows of the golden file, in file order.
std::string GoldenRows(const std::string& model) {
  std::ifstream in(std::string(ULAYER_SOURCE_DIR) + "/tests/golden/zoo_digests.txt");
  EXPECT_TRUE(in.good()) << "tests/golden/zoo_digests.txt not readable";
  std::string rows;
  for (std::string line; std::getline(in, line);) {
    if (line.rfind(model + " ", 0) == 0) {
      rows += line + "\n";
    }
  }
  return rows;
}

// One row per config: "<model> <config> <cpu digest> <gpu digest> <half digest>".
std::string FreshRows(const ZooCase& zc, const Model& m, int threads) {
  ExecConfig per_channel = ExecConfig::AllQU8();
  per_channel.per_channel_weights = true;
  const std::pair<const char*, ExecConfig> configs[] = {
      {"f32", ExecConfig::AllF32()},
      {"f16", ExecConfig::AllF16()},
      {"qu8", ExecConfig::AllQU8()},
      {"pf", ExecConfig::ProcessorFriendly()},
      {"qu8_per_channel", per_channel}};
  const Plan plans[] = {MakeSingleProcessorPlan(m.graph, ProcKind::kCpu),
                        MakeSingleProcessorPlan(m.graph, ProcKind::kGpu),
                        MakeHalfSplitPlan(m.graph)};

  const Shape in_shape = m.graph.node(0).out_shape;
  std::vector<Tensor> calib(2, Tensor(in_shape, DType::kF32));
  FillUniform(calib[0], 8200, -1.0f, 1.0f);
  FillUniform(calib[1], 8201, -1.0f, 1.0f);
  Tensor input(in_shape, DType::kF32);
  FillUniform(input, 8300, -1.0f, 1.0f);

  std::string rows;
  for (const auto& [name, config] : configs) {
    ExecConfig cfg = config;
    cfg.cpu_threads = threads;
    PreparedModel pm(m, cfg);
    if (cfg.storage == DType::kQUInt8) {
      pm.Calibrate(calib);
    }
    rows += std::string(zc.name) + " " + name;
    for (const Plan& plan : plans) {
      const RunResult r = Executor(pm, MakeExynos7420()).Run(plan, &input);
      const Tensor& out = r.output.value();
      char hex[18];
      std::snprintf(hex, sizeof(hex), " %016llx",
                    static_cast<unsigned long long>(
                        Fnv1a64(out.raw(), static_cast<size_t>(out.SizeBytes()))));
      rows += hex;
    }
    rows += "\n";
  }
  parallel::SetCpuThreads(0);
  return rows;
}

class GoldenDigestTest : public ::testing::TestWithParam<ZooCase> {};

TEST_P(GoldenDigestTest, OutputsMatchCommittedDigests) {
  Model m = GetParam().make();
  m.MaterializeWeights(0x5eed);
  const std::string golden = GoldenRows(GetParam().name);
  for (const int threads : {1, 4}) {
    ASSERT_EQ(golden, FreshRows(GetParam(), m, threads)) << "threads=" << threads;
  }
}

INSTANTIATE_TEST_SUITE_P(Zoo, GoldenDigestTest, ::testing::ValuesIn(kZoo),
                         [](const ::testing::TestParamInfo<ZooCase>& param) {
                           return std::string(param.param.name);
                         });

}  // namespace
}  // namespace ulayer
