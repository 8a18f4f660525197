// Branch detection for branch distribution (paper Section 5).
//
// A branch group is a fork node whose output feeds multiple independent
// linear chains that reconverge at a single concat node (GoogLeNet Inception
// modules, SqueezeNet Fire modules). Branch distribution assigns whole
// branches to processors instead of splitting each layer.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <vector>

#include "nn/graph.h"

namespace ulayer {

struct BranchGroup {
  int fork = -1;  // Node whose output all branches consume.
  int join = -1;  // The concat node where branches reconverge.
  // Each branch is the ordered list of node ids between fork and join
  // (exclusive of both). Branches are independent linear chains.
  std::vector<std::vector<int>> branches;
};

// Finds all branch groups in `g`. For each concat node, walks each input
// backwards through single-input/single-consumer chains; if every chain
// starts at the same fork node, the concat closes a branch group.
std::vector<BranchGroup> FindBranchGroups(const Graph& g);

// True if any layer of the network belongs to a branch group (Table 1's
// "Branch Distribution applicability" column).
bool HasBranches(const Graph& g);

// Exhaustive N^B branch-to-target search shared by the N-processor and
// N-node partitioners: evaluates `cost` on every assignment of one target in
// [0, targets) to each of `branches` branches, in lexicographic order (branch
// 0 most significant), and returns the first assignment of strictly minimal
// cost (all zeros if no cost is finite). Returns nullopt without evaluating
// anything when targets^branches exceeds 1e6, a guard against pathological
// graphs.
std::optional<std::vector<int>> BestBranchAssignment(
    size_t branches, size_t targets, const std::function<double(const std::vector<int>&)>& cost);

}  // namespace ulayer
