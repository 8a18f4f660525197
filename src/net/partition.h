// Cluster description and the N-node distributed partitioner
// (DESIGN.md Section 15).
//
// This generalizes src/multi from N processors inside one SoC to N simulated
// nodes behind links: the same channel-wise fraction search (over
// multi::FractionGrid) and branch distribution (BestBranchAssignment over
// FindBranchGroups), but the cost model adds what a SoC never pays — input
// broadcast and result-slice return over each worker's link. A second plan
// kind partitions the graph into contiguous pipeline stages for
// throughput-oriented serving: latency per item is worse (every boundary
// crosses a link) but stages overlap across a stream of items.
#pragma once

#include <string>
#include <vector>

#include "multi/multi.h"
#include "net/link.h"
#include "nn/branch.h"
#include "soc/spec.h"

namespace ulayer::net {

// One simulated worker node: its processor, the dtype its roofline prices
// compute at, and its link to the coordinator. Functional execution always
// runs the deterministic CPU-flavor kernels regardless of `compute` — that
// is what makes re-routing a slice to any surviving node byte-identical —
// so `compute` only shapes the timing model.
struct WorkerSpec {
  std::string name;
  ProcessorSpec proc;
  DType compute = DType::kQUInt8;
  LinkSpec link;
};

struct ClusterSpec {
  std::string name;
  ProcessorSpec coordinator_proc;       // Computes non-splittable nodes,
                                        // merges, and absorbs re-routes.
  DType coordinator_compute = DType::kQUInt8;
  std::vector<WorkerSpec> workers;
  double merge_us = 40.0;               // Coordinator cost per slice merge.
  double heartbeat_timeout_us = 2000.0; // Silence window before a worker is
                                        // declared lost.
  int max_retransmits = 3;              // Bounded retransmit attempts per
                                        // message beyond the first.
  double retransmit_backoff_us = 100.0; // Base of the exponential backoff.
};

// `n` identical CPU-class workers behind 1 GB/s / 100us / 1472B links,
// coordinated by the same processor. The default cluster of the tools,
// benches and tests.
ClusterSpec MakeUniformCluster(int n);

enum class NetPlanKind : uint8_t { kChannel, kPipeline };

struct NetPlan;

// Even channel distribution: every splittable node gets fraction 1/n on each
// of the `workers` workers; everything else stays on the coordinator. Not
// latency-optimal (NetPartitioner::Build may well keep a small model local
// when links dominate) — this is the plan smokes and tests use to guarantee
// every worker participates, so fault injection and recovery actually engage.
NetPlan MakeEvenPlan(const Graph& g, int workers);

struct NetPlan {
  NetPlanKind kind = NetPlanKind::kChannel;

  // Per node id, per worker: the output-channel fraction the worker
  // computes. An all-zero (or empty) row means the coordinator computes the
  // node locally. Rows always renormalize over the workers still alive at
  // execution time, so a plan built for N nodes stays valid as workers die.
  std::vector<std::vector<double>> fractions;

  // kPipeline only: stage index per node id (-1 = coordinator, e.g. the
  // input node) and the worker id running each stage (-1 = coordinator).
  std::vector<int> stage_of_node;
  std::vector<int> stage_worker;

  std::string ToString() const;
};

class NetPartitioner {
 public:
  NetPartitioner(const Graph& graph, const ClusterSpec& cluster)
      : graph_(graph), cluster_(cluster) {}

  // Latency-oriented channel/branch distribution (one item at a time).
  NetPlan Build() const;

  // Throughput-oriented pipeline partitioning: contiguous node ranges
  // assigned round-robin to workers, stage count = min(stages, workers,
  // non-input nodes). Minimizes the bottleneck stage (compute + boundary
  // transfer) by dynamic programming.
  NetPlan BuildPipeline(int stages) const;

  // Estimated latency of one node under a fraction row (transfer-inclusive).
  double EstimateNodeUs(const Node& node, const std::vector<double>& fractions) const;

 private:
  double WorkerSliceUs(int w, const Node& node, int64_t c0, int64_t c1) const;

  const Graph& graph_;
  const ClusterSpec& cluster_;
};

// Cumulative-rounding slice boundaries: splits [0, C) across `fractions`
// (renormalized over their positive sum) so the slices exactly partition
// [0, C) for any fraction vector and any C — the invariant byte-identical
// merging rests on. Entries may receive an empty slice when C is small or
// rounding collapses them; callers skip those. Returns {b_0=0, ..., b_k=C}.
std::vector<int64_t> SliceBoundaries(int64_t channels, const std::vector<double>& fractions);

}  // namespace ulayer::net
