#include "core/partitioner.h"

#include <algorithm>
#include <cassert>
#include <limits>

namespace ulayer {
namespace {

// Candidate CPU fractions for cooperative layers (Section 6).
constexpr double kSplitCandidates[] = {0.25, 0.5, 0.75};

}  // namespace

Partitioner::Partitioner(const Graph& graph, const TimingModel& timing, const ExecConfig& config,
                         const LatencyPredictor& predictor, Options options)
    : graph_(graph),
      timing_(timing),
      config_(config),
      predictor_(predictor),
      options_(std::move(options)) {}

double Partitioner::LayerUs(const Node& node, ProcKind proc, double fraction) const {
  if (fraction <= 0.0) {
    return 0.0;
  }
  double us;
  if (!options_.use_oracle) {
    us = predictor_.PredictUs(graph_, node, proc, fraction);
  } else {
    const int64_t c_end = FractionChannels(node, fraction);
    const LayerWork w = ComputeWork(graph_, node, config_.storage, 0, c_end);
    us = timing_.KernelLatencyUs(w, proc, config_.ComputeFor(proc), config_.cpu_threads);
  }
  // Degraded-mode estimate scaling. Guarded so the default scale of 1.0
  // leaves the arithmetic bit-identical to the unscaled path.
  if (proc == ProcKind::kGpu && options_.gpu_time_scale != 1.0) {
    us *= options_.gpu_time_scale;
  }
  return us;
}

double Partitioner::EstimateSingleUs(const Node& node, ProcKind proc) const {
  return LayerUs(node, proc, 1.0);
}

double Partitioner::EstimateCoopUs(const Node& node, double p) const {
  const double cpu_us = timing_.IssueCallUs() + LayerUs(node, ProcKind::kCpu, p);
  const double gpu_us =
      timing_.IssueCallUs() + timing_.MapUs() + LayerUs(node, ProcKind::kGpu, 1.0 - p);
  return std::max(cpu_us, gpu_us) + timing_.SyncUs();
}

double Partitioner::EstimateSingleMj(const Node& node, ProcKind proc) const {
  const EnergyModel energy(timing_.soc());
  const int64_t c_end = node.out_shape.c;
  const LayerWork w = ComputeWork(graph_, node, config_.storage, 0, c_end);
  const double busy = LayerUs(node, proc, 1.0);
  return energy.ComputeEnergyMj(proc, config_.ComputeFor(proc), busy, 0.0) +
         energy.DramEnergyMj(w.TotalBytes()) + energy.IdleEnergyMj(busy);
}

double Partitioner::EstimateCoopMj(const Node& node, double p) const {
  const EnergyModel energy(timing_.soc());
  const LayerWork w = ComputeWork(graph_, node, config_.storage);
  const double cpu_busy = LayerUs(node, ProcKind::kCpu, p);
  const double gpu_busy = LayerUs(node, ProcKind::kGpu, 1.0 - p);
  return energy.ComputeEnergyMj(ProcKind::kCpu, config_.ComputeFor(ProcKind::kCpu), cpu_busy,
                                0.0) +
         energy.ComputeEnergyMj(ProcKind::kGpu, config_.ComputeFor(ProcKind::kGpu), gpu_busy,
                                0.0) +
         energy.DramEnergyMj(w.TotalBytes()) + energy.IdleEnergyMj(EstimateCoopUs(node, p));
}

double Partitioner::EstimateBranchGroupUs(const BranchGroup& group,
                                          const std::vector<ProcKind>& assignment) const {
  assert(assignment.size() == group.branches.size());
  double cpu_total = 0.0;
  double gpu_total = 0.0;
  for (size_t b = 0; b < group.branches.size(); ++b) {
    double t = 0.0;
    for (int id : group.branches[b]) {
      t += LayerUs(graph_.node(id), assignment[b], 1.0);
    }
    (assignment[b] == ProcKind::kCpu ? cpu_total : gpu_total) += t;
  }
  const bool both = cpu_total > 0.0 && gpu_total > 0.0;
  // Both-processor mappings pay a fork handoff and a join synchronization.
  return std::max(cpu_total, gpu_total) + (both ? 2.0 * timing_.SyncUs() : 0.0);
}

Plan Partitioner::Build() const {
  Plan plan;
  plan.batch = graph_.BatchSize();
  plan.nodes.resize(static_cast<size_t>(graph_.size()));
  std::vector<bool> planned(static_cast<size_t>(graph_.size()), false);

  // Circuit breaker tripped: the GPU is out of the candidate set, so the
  // whole network runs as single-processor CPU steps.
  if (!options_.gpu_available) {
    for (const Node& n : graph_.nodes()) {
      if (n.desc.kind != LayerKind::kInput) {
        plan.nodes[static_cast<size_t>(n.id)] =
            NodeAssignment{StepKind::kSingle, ProcKind::kCpu, 1.0};
      }
    }
    return plan;
  }

  // --- Branch distribution (Section 5) -------------------------------------
  if (options_.branch_distribution) {
    for (const BranchGroup& group : FindBranchGroups(graph_)) {
      const size_t nb = group.branches.size();
      if (nb > 16) {
        continue;  // 2^B enumeration guard; never hit by realistic NNs.
      }
      // Best branch-to-processor mapping by exhaustive enumeration.
      double best_cost = std::numeric_limits<double>::infinity();
      uint32_t best_mask = 0;
      for (uint32_t mask = 0; mask < (1u << nb); ++mask) {
        std::vector<ProcKind> assign(nb);
        for (size_t b = 0; b < nb; ++b) {
          assign[b] = (mask >> b) & 1u ? ProcKind::kGpu : ProcKind::kCpu;
        }
        const double cost = EstimateBranchGroupUs(group, assign);
        if (cost < best_cost) {
          best_cost = cost;
          best_mask = mask;
        }
      }
      // Selectivity: adopt branch distribution only when it beats running the
      // group's layers cooperatively (channel-split) one after another.
      double coop_cost = 0.0;
      for (const auto& branch : group.branches) {
        for (int id : branch) {
          double layer_best = std::min(EstimateSingleUs(graph_.node(id), ProcKind::kCpu),
                                       EstimateSingleUs(graph_.node(id), ProcKind::kGpu));
          if (options_.channel_distribution && Splittable(graph_.node(id).desc.kind)) {
            for (const double p : kSplitCandidates) {
              layer_best = std::min(layer_best, EstimateCoopUs(graph_.node(id), p));
            }
          }
          coop_cost += layer_best;
        }
      }
      if (best_cost >= coop_cost) {
        continue;
      }
      BranchPlan bp;
      bp.group = group;
      bp.assignment.resize(nb);
      for (size_t b = 0; b < nb; ++b) {
        bp.assignment[b] = (best_mask >> b) & 1u ? ProcKind::kGpu : ProcKind::kCpu;
        for (int id : group.branches[b]) {
          plan.nodes[static_cast<size_t>(id)] =
              NodeAssignment{StepKind::kBranch, bp.assignment[b], 1.0};
          planned[static_cast<size_t>(id)] = true;
        }
      }
      plan.branch_plans.push_back(std::move(bp));
    }
  }

  // --- Per-layer planning ---------------------------------------------------
  for (const Node& n : graph_.nodes()) {
    if (planned[static_cast<size_t>(n.id)] || n.desc.kind == LayerKind::kInput) {
      continue;
    }
    NodeAssignment& a = plan.nodes[static_cast<size_t>(n.id)];
    // Objective value of a candidate assignment.
    auto single_score = [&](ProcKind proc) {
      const double us = EstimateSingleUs(n, proc);
      switch (options_.objective) {
        case Objective::kLatency:
          return us;
        case Objective::kEnergy:
          return EstimateSingleMj(n, proc);
        case Objective::kEdp:
          return us * EstimateSingleMj(n, proc);
      }
      return us;
    };
    auto coop_score = [&](double p) {
      const double us = EstimateCoopUs(n, p);
      switch (options_.objective) {
        case Objective::kLatency:
          return us;
        case Objective::kEnergy:
          return EstimateCoopMj(n, p);
        case Objective::kEdp:
          return us * EstimateCoopMj(n, p);
      }
      return us;
    };
    const double cpu_score = single_score(ProcKind::kCpu);
    const double gpu_score = single_score(ProcKind::kGpu);
    a = NodeAssignment{StepKind::kSingle,
                       cpu_score <= gpu_score ? ProcKind::kCpu : ProcKind::kGpu, 1.0};
    double best = std::min(cpu_score, gpu_score);
    if (options_.channel_distribution && Splittable(n.desc.kind)) {
      for (const double p : kSplitCandidates) {
        const double coop = coop_score(p);
        if (coop < best) {
          best = coop;
          a = NodeAssignment{StepKind::kCooperative, ProcKind::kCpu, p};
        }
      }
    }
  }
  return plan;
}

}  // namespace ulayer
