// NN partitioner (paper Section 6): builds the execution plan.
//
// For every layer the partitioner evaluates the candidate split ratios
// p in {0.25, 0.5, 0.75} (plus the single-processor fallbacks p = 0, 1)
// using the latency predictor, and picks the fastest. With branch
// distribution enabled, divergent branch groups are planned first: all
// branch-to-processor mappings are enumerated and the one minimizing the
// makespan estimate is chosen; layers inside a branch are never split
// (Section 5).
#pragma once

#include <memory>
#include <vector>

#include "core/plan.h"
#include "core/predictor.h"

namespace ulayer {

class Partitioner {
 public:
  // What the per-layer search minimizes. The paper optimizes latency; energy
  // and energy-delay-product objectives matter for battery-bound deployments
  // (Section 7.3) and are provided as an extension.
  enum class Objective { kLatency, kEnergy, kEdp };

  struct Options {
    // Enable channel-wise workload distribution (Section 3.2). When false,
    // every layer runs on its single fastest processor — i.e. the
    // layer-to-processor baseline of the evaluation.
    bool channel_distribution = true;
    // Enable branch distribution (Section 5).
    bool branch_distribution = true;
    // Query the timing model directly instead of the fitted regression
    // (oracle ablation: isolates the cost of predictor error).
    bool use_oracle = false;
    Objective objective = Objective::kLatency;

    // --- Degraded-mode planning (DESIGN.md Section 10) ----------------------
    // When false the GPU is excluded entirely (circuit breaker tripped):
    // every layer is planned as a single-processor CPU step.
    bool gpu_available = true;
    // Scales every GPU latency estimate (observed thermal-throttle factor
    // from the runtime's degradation policy). 1.0 leaves the estimates
    // bit-identical to the unscaled path.
    double gpu_time_scale = 1.0;
  };

  // `graph` and `predictor` must outlive the partitioner.
  Partitioner(const Graph& graph, const TimingModel& timing, const ExecConfig& config,
              const LatencyPredictor& predictor, Options options);
  Partitioner(const Graph& graph, const TimingModel& timing, const ExecConfig& config,
              const LatencyPredictor& predictor)
      : Partitioner(graph, timing, config, predictor, Options()) {}

  Plan Build() const;

  // Estimated latency of the plan's critical path (used by tests and by the
  // Figure 12 bench to reason about mapping quality).
  double EstimateBranchGroupUs(const BranchGroup& group,
                               const std::vector<ProcKind>& assignment) const;

  // Estimated cooperative latency of one node at CPU fraction p.
  double EstimateCoopUs(const Node& node, double p) const;
  // Estimated single-processor latency of one node.
  double EstimateSingleUs(const Node& node, ProcKind proc) const;

  // Estimated energy (mJ) of one node: single-processor or cooperative.
  double EstimateSingleMj(const Node& node, ProcKind proc) const;
  double EstimateCoopMj(const Node& node, double p) const;

 private:
  double LayerUs(const Node& node, ProcKind proc, double fraction) const;

  const Graph& graph_;
  TimingModel timing_;
  ExecConfig config_;
  const LatencyPredictor& predictor_;
  Options options_;
};

}  // namespace ulayer
