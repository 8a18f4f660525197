// TimingModel: converts LayerWork into simulated microseconds on a
// processor, and EnergyModel: converts busy time + traffic into millijoules.
//
// Latency model (additive, no compute/memory overlap — conservative for
// in-order mobile memory systems):
//   t = kernel_launch + macs / gmacs(compute_dtype) + bytes / bandwidth
#pragma once

#include "soc/spec.h"
#include "soc/work.h"

namespace ulayer {

class TimingModel {
 public:
  explicit TimingModel(const SocSpec& soc) : soc_(soc) {}

  const SocSpec& soc() const { return soc_; }
  const ProcessorSpec& proc(ProcKind k) const {
    return k == ProcKind::kCpu ? soc_.cpu : soc_.gpu;
  }

  // Latency (microseconds) of one kernel performing `work` on `proc`, with
  // arithmetic executed as `compute` dtype. `cpu_threads` is the CPU thread
  // budget (ExecConfig::cpu_threads): fewer threads than the CPU cluster's
  // cores scale the compute term up linearly; 0 means all cores (the
  // default, matching the paper's measurements). The GPU term ignores it.
  double KernelLatencyUs(const LayerWork& work, ProcKind proc, DType compute,
                         int cpu_threads = 0) const;

  // Latency excluding the fixed launch overhead (used when several logical
  // ops are fused into one kernel invocation).
  double KernelBodyUs(const LayerWork& work, ProcKind proc, DType compute,
                      int cpu_threads = 0) const;

  double SyncUs() const { return soc_.sync_us; }
  double MapUs() const { return soc_.map_us; }
  // CPU time spent making one asynchronous enqueue call
  // (clEnqueueNDRangeKernel returning immediately). The GPU-side launch
  // overhead is separate and lives in ProcessorSpec::kernel_launch_us.
  static constexpr double IssueCallUs() { return 2.0; }

 private:
  SocSpec soc_;
};

// Accumulates the energy of an inference run. The executor reports per-
// processor busy time and the bytes each kernel moves; the model adds SoC
// baseline power over the wall-clock makespan.
class EnergyModel {
 public:
  explicit EnergyModel(const SocSpec& soc) : soc_(soc) {}

  // Energy of `busy_us` microseconds of computation on `proc` at `compute`
  // dtype, plus DRAM energy for `bytes` of traffic. Returns millijoules.
  double ComputeEnergyMj(ProcKind proc, DType compute, double busy_us, double bytes) const;

  // DRAM energy alone for `bytes` of traffic (millijoules).
  double DramEnergyMj(double bytes) const { return bytes * soc_.dram_nj_per_byte * 1e-6; }

  // Baseline (always-on rails) energy over the run's makespan.
  double IdleEnergyMj(double makespan_us) const;

 private:
  SocSpec soc_;
};

}  // namespace ulayer
