// Thread-pool / ParallelFor unit tests plus the determinism contract:
// multi-threaded functional inference must be byte-identical to
// cpu_threads = 1 (DESIGN.md "Parallel execution model").
#include "parallel/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <mutex>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/baselines.h"
#include "core/executor.h"
#include "core/prepared.h"
#include "half_split_plan.h"
#include "models/model.h"
#include "tensor/rng.h"

namespace ulayer {
namespace {

// Restores the process-wide thread budget on scope exit so tests compose.
class ScopedThreads {
 public:
  explicit ScopedThreads(int n) { parallel::SetCpuThreads(n); }
  ~ScopedThreads() { parallel::SetCpuThreads(0); }
};

TEST(ParallelForTest, CoversRangeExactlyOnce) {
  ScopedThreads threads(4);
  std::vector<std::atomic<int>> hits(1000);
  parallel::ParallelFor(0, 1000, 7, [&](int64_t b, int64_t e) {
    for (int64_t i = b; i < e; ++i) {
      hits[static_cast<size_t>(i)].fetch_add(1, std::memory_order_relaxed);
    }
  });
  for (const auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(ParallelForTest, ChunkBoundariesIndependentOfThreadCount) {
  // The determinism contract rests on this: the same (begin, end, grain)
  // must produce the same chunk set no matter how many threads execute it.
  auto chunks_with = [](int n) {
    ScopedThreads threads(n);
    std::mutex mu;
    std::set<std::pair<int64_t, int64_t>> chunks;
    parallel::ParallelFor(3, 250, 9, [&](int64_t b, int64_t e) {
      const std::lock_guard<std::mutex> lock(mu);
      chunks.emplace(b, e);
    });
    return chunks;
  };
  const auto one = chunks_with(1);
  EXPECT_EQ(one, chunks_with(2));
  EXPECT_EQ(one, chunks_with(8));
  // Chunks tile [3, 250) without gaps or overlaps.
  int64_t expect_begin = 3;
  for (const auto& [b, e] : one) {
    EXPECT_EQ(b, expect_begin);
    EXPECT_LE(e - b, 9);
    expect_begin = e;
  }
  EXPECT_EQ(expect_begin, 250);
}

TEST(ParallelForTest, EmptyRangeNeverInvokes) {
  ScopedThreads threads(4);
  bool called = false;
  parallel::ParallelFor(5, 5, 1, [&](int64_t, int64_t) { called = true; });
  parallel::ParallelFor(5, 3, 1, [&](int64_t, int64_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelForTest, ExceptionsPropagateToCaller) {
  ScopedThreads threads(4);
  EXPECT_THROW(parallel::ParallelFor(0, 100, 1,
                                     [&](int64_t b, int64_t) {
                                       if (b == 50) {
                                         throw std::runtime_error("chunk failed");
                                       }
                                     }),
               std::runtime_error);
  // The pool must stay usable after a failed run.
  std::atomic<int64_t> sum{0};
  parallel::ParallelFor(0, 10, 1, [&](int64_t b, int64_t) { sum += b; });
  EXPECT_EQ(sum.load(), 45);
}

TEST(ParallelForTest, NestedCallsRunSerially) {
  // A ParallelFor inside a worker chunk must not deadlock; it degrades to
  // the serial path.
  ScopedThreads threads(4);
  std::vector<std::atomic<int>> hits(64);
  parallel::ParallelFor(0, 8, 1, [&](int64_t ob, int64_t oe) {
    for (int64_t o = ob; o < oe; ++o) {
      parallel::ParallelFor(0, 8, 1, [&](int64_t ib, int64_t ie) {
        for (int64_t i = ib; i < ie; ++i) {
          hits[static_cast<size_t>(o * 8 + i)].fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
  });
  for (const auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(ParallelForTest, ThreadBudgetResolution) {
  parallel::SetCpuThreads(3);
  EXPECT_EQ(parallel::CpuThreads(), 3);
  parallel::SetCpuThreads(1);
  EXPECT_EQ(parallel::CpuThreads(), 1);
  parallel::SetCpuThreads(0);  // Automatic: env override or hardware concurrency.
  EXPECT_GE(parallel::CpuThreads(), 1);
}

TEST(ParallelForTest, GrainForOpsScalesInverselyWithWork) {
  EXPECT_GE(parallel::GrainForOps(1.0), 1);
  EXPECT_GT(parallel::GrainForOps(1.0), parallel::GrainForOps(1e6));
  EXPECT_EQ(parallel::GrainForOps(1e12), 1);
}

// --- Determinism across the model zoo --------------------------------------

// Runs `m` functionally under `config` with a fixed plan and returns the
// output tensor. The plan is fixed (not re-partitioned) because cpu_threads
// also scales the *simulated* CPU latency: letting the partitioner replan
// per thread count would legitimately change which processor computes what.
Tensor RunFixedPlan(const Model& m, const ExecConfig& config, const Plan& plan,
                    const std::vector<Tensor>& calib, const Tensor& input) {
  PreparedModel pm(m, config);
  if (config.storage == DType::kQUInt8) {
    pm.Calibrate(calib);
  }
  Executor ex(pm, MakeExynos7420());
  RunResult r = ex.Run(plan, &input);
  EXPECT_TRUE(r.output.has_value());
  return std::move(*r.output);
}

void ExpectByteIdenticalAcrossThreadCounts(Model m, const Shape& in_shape,
                                           const ExecConfig& base_config) {
  m.MaterializeWeights();
  std::vector<Tensor> calib;
  for (int i = 0; i < 2; ++i) {
    Tensor t(in_shape, DType::kF32);
    FillUniform(t, 7000 + static_cast<uint64_t>(i), -1.0f, 1.0f);
    calib.push_back(std::move(t));
  }
  Tensor input(in_shape, DType::kF32);
  FillUniform(input, 7100, -1.0f, 1.0f);

  for (const Plan& plan :
       {MakeSingleProcessorPlan(m.graph, ProcKind::kCpu), MakeHalfSplitPlan(m.graph)}) {
    ExecConfig cfg = base_config;
    cfg.cpu_threads = 1;
    const Tensor serial = RunFixedPlan(m, cfg, plan, calib, input);
    cfg.cpu_threads = 4;
    const Tensor threaded = RunFixedPlan(m, cfg, plan, calib, input);
    parallel::SetCpuThreads(0);

    ASSERT_EQ(serial.dtype(), threaded.dtype()) << m.name;
    ASSERT_EQ(serial.shape(), threaded.shape()) << m.name;
    const size_t bytes =
        static_cast<size_t>(serial.NumElements() * DTypeSize(serial.dtype()));
    EXPECT_EQ(std::memcmp(serial.raw(), threaded.raw(), bytes), 0)
        << m.name << ": multi-threaded output differs from single-threaded";
  }
}

TEST(ParallelDeterminismTest, LeNetF32) {
  ExpectByteIdenticalAcrossThreadCounts(MakeLeNet5(), Shape(1, 1, 28, 28),
                                        ExecConfig::AllF32());
}

TEST(ParallelDeterminismTest, LeNetProcessorFriendly) {
  ExpectByteIdenticalAcrossThreadCounts(MakeLeNet5(), Shape(1, 1, 28, 28),
                                        ExecConfig::ProcessorFriendly());
}

TEST(ParallelDeterminismTest, SqueezeNetProcessorFriendly) {
  ExpectByteIdenticalAcrossThreadCounts(MakeSqueezeNetV11(1, 64), Shape(1, 3, 64, 64),
                                        ExecConfig::ProcessorFriendly());
}

TEST(ParallelDeterminismTest, MobileNetQU8) {
  ExpectByteIdenticalAcrossThreadCounts(MakeMobileNetV1(1, 64), Shape(1, 3, 64, 64),
                                        ExecConfig::AllQU8());
}

TEST(ParallelDeterminismTest, GoogLeNetF16) {
  ExpectByteIdenticalAcrossThreadCounts(MakeGoogLeNet(1, 64), Shape(1, 3, 64, 64),
                                        ExecConfig::AllF16());
}

}  // namespace
}  // namespace ulayer
