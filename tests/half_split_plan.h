// Test fixture plan shared by the executor-level suites.
#pragma once

#include "baselines/baselines.h"

namespace ulayer {

// Every splittable layer cooperative at an even CPU/GPU channel split
// (concat and softmax are never split).
inline Plan MakeHalfSplitPlan(const Graph& g) {
  Plan plan = MakeSingleProcessorPlan(g, ProcKind::kCpu);
  for (const Node& n : g.nodes()) {
    if (n.desc.kind == LayerKind::kInput || n.desc.kind == LayerKind::kSoftmax ||
        n.desc.kind == LayerKind::kConcat || n.out_shape.c < 2) {
      continue;
    }
    NodeAssignment& a = plan.nodes[static_cast<size_t>(n.id)];
    a.kind = StepKind::kCooperative;
    a.cpu_fraction = 0.5;
  }
  return plan;
}

}  // namespace ulayer
