#include "net/partition.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "net/wire.h"

namespace ulayer::net {
namespace {

// One-way cost of `bytes` over an idle link (the partitioner plans against
// uncontended links; the executor's shared timelines add queueing on top).
double LinkUs(const LinkSpec& link, int64_t bytes) {
  return static_cast<double>(FragmentCount(bytes, link.mtu_bytes)) * link.per_packet_us +
         static_cast<double>(bytes) / (link.gb_per_s * 1e3) + link.latency_us;
}

// The cost model prices work at QUInt8 storage, matching multi::SliceWork.
constexpr DType kCostDType = DType::kQUInt8;

}  // namespace

ClusterSpec MakeUniformCluster(int n) {
  const SocSpec base = MakeExynos7420();
  ClusterSpec cluster;
  cluster.name = "uniform-x" + std::to_string(n);
  cluster.coordinator_proc = base.cpu;
  cluster.coordinator_compute = DType::kQUInt8;
  for (int i = 0; i < n; ++i) {
    WorkerSpec w;
    w.name = "worker" + std::to_string(i);
    w.proc = base.cpu;
    w.compute = DType::kQUInt8;
    w.link = LinkSpec{};
    cluster.workers.push_back(std::move(w));
  }
  return cluster;
}

NetPlan MakeEvenPlan(const Graph& g, int workers) {
  NetPlan plan;
  plan.kind = NetPlanKind::kChannel;
  plan.fractions.assign(static_cast<size_t>(g.size()), std::vector<double>());
  if (workers <= 0) {
    return plan;
  }
  const double share = 1.0 / static_cast<double>(workers);
  for (const Node& node : g.nodes()) {
    if (!Splittable(node.desc.kind)) {
      continue;
    }
    plan.fractions[static_cast<size_t>(node.id)].assign(static_cast<size_t>(workers), share);
  }
  return plan;
}

std::vector<int64_t> SliceBoundaries(int64_t channels, const std::vector<double>& fractions) {
  std::vector<int64_t> bounds;
  bounds.reserve(fractions.size() + 1);
  bounds.push_back(0);
  double total = 0.0;
  for (double f : fractions) {
    total += std::max(f, 0.0);
  }
  if (total <= 0.0) {
    for (size_t i = 0; i < fractions.size(); ++i) {
      bounds.push_back(0);
    }
    return bounds;
  }
  double cum = 0.0;
  for (size_t i = 0; i < fractions.size(); ++i) {
    cum += std::max(fractions[i], 0.0) / total;
    int64_t b = static_cast<int64_t>(std::llround(cum * static_cast<double>(channels)));
    b = std::clamp<int64_t>(b, bounds.back(), channels);
    if (i + 1 == fractions.size()) {
      b = channels;  // The last boundary always closes the partition.
    }
    bounds.push_back(b);
  }
  return bounds;
}

std::string NetPlan::ToString() const {
  std::ostringstream os;
  if (kind == NetPlanKind::kChannel) {
    int split = 0;
    int single = 0;
    int local = 0;
    for (const std::vector<double>& row : fractions) {
      int active = 0;
      for (double f : row) {
        active += f > 0.0 ? 1 : 0;
      }
      if (active == 0) {
        ++local;
      } else if (active == 1) {
        ++single;
      } else {
        ++split;
      }
    }
    os << "channel plan: " << fractions.size() << " nodes (" << split << " split, " << single
       << " single-worker, " << local << " coordinator)";
  } else {
    os << "pipeline plan: " << stage_worker.size() << " stages [";
    for (size_t s = 0; s < stage_worker.size(); ++s) {
      os << (s > 0 ? " " : "")
         << (stage_worker[s] < 0 ? std::string("coord") : "w" + std::to_string(stage_worker[s]));
    }
    os << "]";
  }
  return os.str();
}

double NetPartitioner::WorkerSliceUs(int w, const Node& node, int64_t c0, int64_t c1) const {
  const WorkerSpec& spec = cluster_.workers[static_cast<size_t>(w)];
  double in_us = 0.0;
  for (int p : node.inputs) {
    const Shape& ps = graph_.node(p).out_shape;
    in_us += LinkUs(spec.link, WireSliceBytes(ps, kCostDType, 0, ps.c));
  }
  const multi::MultiProcessor proc{spec.proc, spec.compute};
  const double compute_us =
      multi::KernelLatencyUs(proc, ComputeWork(graph_, node, kCostDType, c0, c1));
  const double out_us =
      LinkUs(spec.link, WireSliceBytes(node.out_shape, kCostDType, c0, c1));
  return in_us + compute_us + out_us;
}

double NetPartitioner::EstimateNodeUs(const Node& node,
                                      const std::vector<double>& fractions) const {
  int active = 0;
  for (double f : fractions) {
    active += f > 0.0 ? 1 : 0;
  }
  if (active == 0) {
    const multi::MultiProcessor coord{cluster_.coordinator_proc, cluster_.coordinator_compute};
    return multi::KernelLatencyUs(coord,
                                  ComputeWork(graph_, node, kCostDType, 0, node.out_shape.c));
  }
  const std::vector<int64_t> bounds = SliceBoundaries(node.out_shape.c, fractions);
  double worst = 0.0;
  int slices = 0;
  for (size_t w = 0; w < fractions.size(); ++w) {
    const int64_t c0 = bounds[w];
    const int64_t c1 = bounds[w + 1];
    if (c1 <= c0) {
      continue;
    }
    ++slices;
    worst = std::max(worst, WorkerSliceUs(static_cast<int>(w), node, c0, c1));
  }
  if (slices > 1) {
    worst += cluster_.merge_us;
  }
  return worst;
}

NetPlan NetPartitioner::Build() const {
  NetPlan plan;
  const size_t nw = cluster_.workers.size();
  plan.fractions.assign(static_cast<size_t>(graph_.size()), std::vector<double>(nw, 0.0));
  std::vector<bool> planned(static_cast<size_t>(graph_.size()), false);

  if (nw > 0) {
    for (const BranchGroup& group : FindBranchGroups(graph_)) {
      const size_t nb = group.branches.size();
      // Targets: 0 = coordinator, 1..nw = workers; (nw+1)^B enumeration.
      const size_t nt = nw + 1;
      const std::optional<std::vector<int>> best =
          BestBranchAssignment(nb, nt, [&](const std::vector<int>& assign) {
            // Per-target serial cost: compute of every node in its branches,
            // plus one fork-input broadcast and one join-output return per
            // branch on a worker target.
            std::vector<double> per_target(nt, 0.0);
            for (size_t b = 0; b < nb; ++b) {
              const size_t t = static_cast<size_t>(assign[b]);
              for (int id : group.branches[b]) {
                const Node& n = graph_.node(id);
                const multi::MultiProcessor proc =
                    t == 0 ? multi::MultiProcessor{cluster_.coordinator_proc,
                                                   cluster_.coordinator_compute}
                           : multi::MultiProcessor{cluster_.workers[t - 1].proc,
                                                   cluster_.workers[t - 1].compute};
                per_target[t] += multi::KernelLatencyUs(
                    proc, ComputeWork(graph_, n, kCostDType, 0, n.out_shape.c));
              }
              if (t > 0 && !group.branches[b].empty()) {
                const LinkSpec& link = cluster_.workers[t - 1].link;
                const Shape& fork_shape = graph_.node(group.fork).out_shape;
                const Shape& tail_shape = graph_.node(group.branches[b].back()).out_shape;
                per_target[t] +=
                    LinkUs(link, WireSliceBytes(fork_shape, kCostDType, 0, fork_shape.c)) +
                    LinkUs(link, WireSliceBytes(tail_shape, kCostDType, 0, tail_shape.c));
              }
            }
            double worst = 0.0;
            int active_workers = 0;
            for (size_t t = 0; t < nt; ++t) {
              worst = std::max(worst, per_target[t]);
              active_workers += (t > 0 && per_target[t] > 0.0) ? 1 : 0;
            }
            return worst + (active_workers > 0 ? cluster_.merge_us : 0.0);
          });
      if (!best) {
        continue;
      }

      for (size_t b = 0; b < nb; ++b) {
        for (int id : group.branches[b]) {
          std::vector<double>& row = plan.fractions[static_cast<size_t>(id)];
          row.assign(nw, 0.0);
          if ((*best)[b] > 0) {
            row[static_cast<size_t>((*best)[b] - 1)] = 1.0;
          }
          planned[static_cast<size_t>(id)] = true;
        }
      }
    }
  }

  for (const Node& node : graph_.nodes()) {
    if (planned[static_cast<size_t>(node.id)] || node.desc.kind == LayerKind::kInput) {
      continue;
    }
    // Candidate rows: coordinator-local, each single worker, and (for
    // splittable layers) every grid composition across the workers.
    std::vector<std::vector<double>> candidates;
    candidates.emplace_back(nw, 0.0);
    for (size_t w = 0; w < nw; ++w) {
      std::vector<double> row(nw, 0.0);
      row[w] = 1.0;
      candidates.push_back(std::move(row));
    }
    if (nw >= 2 && Splittable(node.desc.kind)) {
      for (std::vector<double>& row : multi::FractionGrid(nw)) {
        candidates.push_back(std::move(row));
      }
    }
    double best_cost = std::numeric_limits<double>::infinity();
    for (const std::vector<double>& row : candidates) {
      const double cost = EstimateNodeUs(node, row);
      if (cost < best_cost) {
        best_cost = cost;
        plan.fractions[static_cast<size_t>(node.id)] = row;
      }
    }
  }
  return plan;
}

NetPlan NetPartitioner::BuildPipeline(int stages) const {
  NetPlan plan;
  plan.kind = NetPlanKind::kPipeline;
  const size_t nw = cluster_.workers.size();
  const int v = graph_.size();
  plan.fractions.assign(static_cast<size_t>(v), std::vector<double>(nw, 0.0));
  plan.stage_of_node.assign(static_cast<size_t>(v), -1);

  // Stage-able nodes are everything but the input (node 0 by the G002
  // invariant); stages are contiguous id ranges, worker s % nw runs stage s.
  const int first = 1;
  const int count = v - first;
  const int s_max =
      std::max(1, std::min({stages, static_cast<int>(nw == 0 ? 1 : nw), count}));
  plan.stage_worker.resize(static_cast<size_t>(s_max));
  for (int s = 0; s < s_max; ++s) {
    plan.stage_worker[static_cast<size_t>(s)] =
        nw == 0 ? -1 : static_cast<int>(static_cast<size_t>(s) % nw);
  }

  // Cost of stage `s` covering node ids [a, b].
  auto stage_cost = [&](int s, int a, int b) {
    const int w = plan.stage_worker[static_cast<size_t>(s)];
    const multi::MultiProcessor proc =
        w < 0 ? multi::MultiProcessor{cluster_.coordinator_proc, cluster_.coordinator_compute}
              : multi::MultiProcessor{cluster_.workers[static_cast<size_t>(w)].proc,
                                      cluster_.workers[static_cast<size_t>(w)].compute};
    double cost = 0.0;
    for (int id = a; id <= b; ++id) {
      const Node& n = graph_.node(id);
      cost += multi::KernelLatencyUs(proc, ComputeWork(graph_, n, kCostDType, 0,
                                                       n.out_shape.c));
    }
    if (w >= 0) {
      const LinkSpec& link = cluster_.workers[static_cast<size_t>(w)].link;
      // Boundary traffic on this worker's link: producers outside [a, b]
      // consumed inside (in-transfer), plus every node inside whose output
      // is consumed outside — or is the network output (out-transfer).
      for (int id = a; id <= b; ++id) {
        for (int p : graph_.node(id).inputs) {
          if (p < a) {
            const Shape& ps = graph_.node(p).out_shape;
            cost += LinkUs(link, WireSliceBytes(ps, kCostDType, 0, ps.c));
          }
        }
      }
      for (int id = a; id <= b; ++id) {
        bool crosses = id == v - 1;
        for (int q = b + 1; q < v && !crosses; ++q) {
          for (int p : graph_.node(q).inputs) {
            if (p == id) {
              crosses = true;
              break;
            }
          }
        }
        if (crosses) {
          const Shape& os = graph_.node(id).out_shape;
          cost += LinkUs(link, WireSliceBytes(os, kCostDType, 0, os.c));
        }
      }
    }
    return cost;
  };

  // DP over (stage, first uncovered node) minimizing the bottleneck stage.
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<std::vector<double>> f(static_cast<size_t>(s_max + 1),
                                     std::vector<double>(static_cast<size_t>(count + 1), inf));
  std::vector<std::vector<int>> cut(static_cast<size_t>(s_max + 1),
                                    std::vector<int>(static_cast<size_t>(count + 1), -1));
  f[0][0] = 0.0;
  for (int s = 1; s <= s_max; ++s) {
    for (int j = s; j <= count; ++j) {
      for (int i = s - 1; i < j; ++i) {
        if (f[static_cast<size_t>(s - 1)][static_cast<size_t>(i)] == inf) {
          continue;
        }
        const double c =
            std::max(f[static_cast<size_t>(s - 1)][static_cast<size_t>(i)],
                     stage_cost(s - 1, first + i, first + j - 1));
        if (c < f[static_cast<size_t>(s)][static_cast<size_t>(j)]) {
          f[static_cast<size_t>(s)][static_cast<size_t>(j)] = c;
          cut[static_cast<size_t>(s)][static_cast<size_t>(j)] = i;
        }
      }
    }
  }
  // Walk the cuts back into stage assignments.
  int j = count;
  for (int s = s_max; s >= 1; --s) {
    const int i = cut[static_cast<size_t>(s)][static_cast<size_t>(j)];
    for (int id = first + std::max(i, 0); id < first + j; ++id) {
      plan.stage_of_node[static_cast<size_t>(id)] = s - 1;
      const int w = plan.stage_worker[static_cast<size_t>(s - 1)];
      if (w >= 0) {
        plan.fractions[static_cast<size_t>(id)][static_cast<size_t>(w)] = 1.0;
      }
    }
    j = std::max(i, 0);
  }
  return plan;
}

}  // namespace ulayer::net
