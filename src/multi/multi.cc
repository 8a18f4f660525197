#include "multi/multi.h"

#include <algorithm>
#include <cassert>
#include <limits>

namespace ulayer::multi {

LayerWork SliceWork(const Graph& g, const Node& node, double fraction) {
  return ComputeWork(g, node, DType::kQUInt8, 0, FractionChannels(node, fraction));
}

std::vector<std::vector<double>> FractionGrid(size_t n) {
  constexpr double kStep = 0.25;
  constexpr int kSteps = 4;
  std::vector<std::vector<double>> grid;
  std::vector<int> parts(n, 0);
  auto recurse = [&](auto&& self, size_t idx, int remaining) -> void {
    if (idx + 1 == n) {
      parts[idx] = remaining;
      int active = 0;
      for (int p : parts) {
        active += p > 0 ? 1 : 0;
      }
      if (active >= 2) {
        std::vector<double> fractions(n);
        for (size_t i = 0; i < n; ++i) {
          fractions[i] = static_cast<double>(parts[i]) * kStep;
        }
        grid.push_back(std::move(fractions));
      }
      return;
    }
    for (int p = 0; p <= remaining; ++p) {
      parts[idx] = p;
      self(self, idx + 1, remaining - p);
    }
  };
  if (n > 0) {
    recurse(recurse, 0, kSteps);
  }
  return grid;
}

MultiSoc MakeExynos7420Multi() {
  const SocSpec base = MakeExynos7420();
  MultiSoc soc;
  soc.name = "Exynos7420-CPU+GPU";
  soc.procs.push_back({base.cpu, DType::kQUInt8});
  soc.procs.push_back({base.gpu, DType::kF16});
  soc.sync_us = base.sync_us;
  soc.map_us = base.map_us;
  soc.dram_nj_per_byte = base.dram_nj_per_byte;
  soc.idle_w = base.idle_w;
  return soc;
}

MultiSoc MakeExynos7420WithNpu() {
  MultiSoc soc = MakeExynos7420Multi();
  soc.name = "Exynos7420-CPU+GPU+NPU";
  // Edge-TPU-class mobile NPU: strong 8-bit integer MAC arrays, no floating
  // point to speak of, and a noticeable offload/launch latency.
  ProcessorSpec npu;
  npu.name = "EdgeNPU";
  npu.kind = ProcKind::kGpu;  // Closest existing kind; unused by this module.
  npu.gmacs_f32 = 1.0;
  npu.gmacs_f16 = 2.0;
  npu.gmacs_qu8 = 90.0;
  npu.gb_per_s = 12.0;
  npu.kernel_launch_us = 120.0;
  npu.active_w_f32 = 1.0;
  npu.active_w_f16 = 1.0;
  npu.active_w_qu8 = 1.1;
  soc.procs.push_back({npu, DType::kQUInt8});
  return soc;
}

double KernelLatencyUs(const MultiProcessor& p, const LayerWork& work) {
  const double compute_us = work.macs / (p.spec.GmacsFor(p.compute) * 1e3);
  const double memory_us = work.TotalBytes() / (p.spec.gb_per_s * 1e3);
  return p.spec.kernel_launch_us + compute_us + memory_us;
}

MultiPartitioner::MultiPartitioner(const Graph& graph, const MultiSoc& soc, Options options)
    : graph_(graph), soc_(soc), options_(options) {}

double MultiPartitioner::EstimateNodeUs(const Node& node, const MultiAssignment& a) const {
  double worst = 0.0;
  for (size_t i = 0; i < soc_.procs.size(); ++i) {
    const double f = a.fractions[i];
    if (f <= 0.0) {
      continue;
    }
    worst = std::max(worst, KernelLatencyUs(soc_.procs[i], SliceWork(graph_, node, f)));
  }
  if (a.ActiveProcs() > 1) {
    worst += soc_.sync_us + soc_.map_us;
  }
  return worst;
}

std::vector<MultiAssignment> MultiPartitioner::CandidateAssignments(bool splittable) const {
  const size_t n = soc_.procs.size();
  std::vector<MultiAssignment> out;
  // Single-processor unit vectors first.
  for (size_t i = 0; i < n; ++i) {
    MultiAssignment a;
    a.fractions.assign(n, 0.0);
    a.fractions[i] = 1.0;
    out.push_back(std::move(a));
  }
  if (!splittable || !options_.channel_distribution) {
    return out;
  }
  // All grid compositions summing to 1 with >= 2 active processors.
  for (std::vector<double>& fractions : FractionGrid(n)) {
    MultiAssignment a;
    a.fractions = std::move(fractions);
    out.push_back(std::move(a));
  }
  return out;
}

MultiPlan MultiPartitioner::Build() const {
  MultiPlan plan;
  const size_t n = soc_.procs.size();
  plan.nodes.resize(static_cast<size_t>(graph_.size()));
  for (MultiAssignment& a : plan.nodes) {
    a.fractions.assign(n, 0.0);
    a.fractions[0] = 1.0;
  }
  std::vector<bool> planned(static_cast<size_t>(graph_.size()), false);

  if (options_.branch_distribution) {
    for (const BranchGroup& group : FindBranchGroups(graph_)) {
      const size_t nb = group.branches.size();
      const std::optional<std::vector<int>> best =
          BestBranchAssignment(nb, n, [&](const std::vector<int>& assign) {
            std::vector<double> per_proc(n, 0.0);
            for (size_t b = 0; b < nb; ++b) {
              const size_t p = static_cast<size_t>(assign[b]);
              for (int id : group.branches[b]) {
                per_proc[p] +=
                    KernelLatencyUs(soc_.procs[p], SliceWork(graph_, graph_.node(id), 1.0));
              }
            }
            double worst = 0.0;
            int active = 0;
            for (size_t i = 0; i < n; ++i) {
              worst = std::max(worst, per_proc[i]);
              active += per_proc[i] > 0.0 ? 1 : 0;
            }
            return worst + (active > 1 ? 2.0 * soc_.sync_us : 0.0);
          });
      if (!best) {
        continue;
      }

      MultiBranchPlan bp;
      bp.group = group;
      bp.assignment = *best;
      for (size_t b = 0; b < nb; ++b) {
        for (int id : group.branches[b]) {
          MultiAssignment& a = plan.nodes[static_cast<size_t>(id)];
          a.fractions.assign(n, 0.0);
          a.fractions[static_cast<size_t>(bp.assignment[b])] = 1.0;
          planned[static_cast<size_t>(id)] = true;
        }
      }
      plan.branch_plans.push_back(std::move(bp));
    }
  }

  for (const Node& node : graph_.nodes()) {
    if (planned[static_cast<size_t>(node.id)] || node.desc.kind == LayerKind::kInput) {
      continue;
    }
    double best_cost = std::numeric_limits<double>::infinity();
    for (const MultiAssignment& a : CandidateAssignments(Splittable(node.desc.kind))) {
      const double cost = EstimateNodeUs(node, a);
      if (cost < best_cost) {
        best_cost = cost;
        plan.nodes[static_cast<size_t>(node.id)] = a;
      }
    }
  }
  return plan;
}

MultiRunResult MultiExecutor::Run(const MultiPlan& plan) const {
  const size_t n = soc_.procs.size();
  assert(plan.nodes.size() == static_cast<size_t>(graph_.size()));
  std::vector<double> timeline(n, 0.0);
  std::vector<double> busy(n, 0.0);
  std::vector<double> bytes(n, 0.0);
  std::vector<double> done(static_cast<size_t>(graph_.size()), 0.0);
  // Bitmask of processors each node's output is visible on.
  std::vector<uint32_t> visible(static_cast<size_t>(graph_.size()), ~0u);
  int syncs = 0;

  for (const Node& node : graph_.nodes()) {
    if (node.desc.kind == LayerKind::kInput) {
      done[static_cast<size_t>(node.id)] = 0.0;
      continue;
    }
    const MultiAssignment& a = plan.nodes[static_cast<size_t>(node.id)];
    uint32_t used = 0;
    for (size_t i = 0; i < n; ++i) {
      if (a.fractions[i] > 0.0) {
        used |= 1u << i;
      }
    }
    double ready = 0.0;
    for (int in : node.inputs) {
      double t = done[static_cast<size_t>(in)];
      if ((visible[static_cast<size_t>(in)] & used) != used) {
        t += soc_.sync_us;  // Producer output not visible on some used proc.
        ++syncs;
      }
      ready = std::max(ready, t);
    }
    double node_end = 0.0;
    for (size_t i = 0; i < n; ++i) {
      const double f = a.fractions[i];
      if (f <= 0.0) {
        continue;
      }
      const LayerWork w = SliceWork(graph_, node, f);
      const double start = std::max(ready, timeline[i]);
      const double dur = KernelLatencyUs(soc_.procs[i], w);
      timeline[i] = start + dur;
      busy[i] += dur;
      bytes[i] += w.TotalBytes();
      node_end = std::max(node_end, timeline[i]);
    }
    if (a.ActiveProcs() > 1) {
      node_end += soc_.sync_us;
      ++syncs;
      for (size_t i = 0; i < n; ++i) {
        if (a.fractions[i] > 0.0) {
          timeline[i] = node_end;
        }
      }
      visible[static_cast<size_t>(node.id)] = used;  // Merged: visible on all used.
    } else {
      visible[static_cast<size_t>(node.id)] = used;
    }
    done[static_cast<size_t>(node.id)] = node_end;
  }

  MultiRunResult r;
  r.busy_us = busy;
  r.sync_count = syncs;
  for (size_t i = 0; i < n; ++i) {
    r.latency_us = std::max(r.latency_us, timeline[i]);
  }
  for (size_t i = 0; i < n; ++i) {
    r.total_energy_mj += soc_.procs[i].spec.ActiveWattsFor(soc_.procs[i].compute) * busy[i] * 1e-3;
    r.total_energy_mj += bytes[i] * soc_.dram_nj_per_byte * 1e-6;
  }
  r.total_energy_mj += soc_.idle_w * r.latency_us * 1e-3;
  return r;
}

}  // namespace ulayer::multi
