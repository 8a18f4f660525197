#include "nn/branch.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace ulayer {

std::vector<BranchGroup> FindBranchGroups(const Graph& g) {
  std::vector<BranchGroup> groups;

  // Precompute consumer counts once.
  std::vector<int> consumer_count(static_cast<size_t>(g.size()), 0);
  for (const Node& n : g.nodes()) {
    for (int in : n.inputs) {
      ++consumer_count[static_cast<size_t>(in)];
    }
  }

  for (const Node& n : g.nodes()) {
    // Branches reconverge at a concat (Inception/Fire) or an element-wise
    // add (ResNet residual blocks).
    const bool is_join =
        n.desc.kind == LayerKind::kConcat || n.desc.kind == LayerKind::kEltwiseAdd;
    if (!is_join || n.inputs.size() < 2) {
      continue;
    }
    BranchGroup bg;
    bg.join = n.id;
    int fork = -1;
    bool ok = true;
    for (int in : n.inputs) {
      // The join may consume the fork directly (a ResNet identity shortcut):
      // that is an empty branch.
      if (consumer_count[static_cast<size_t>(in)] > 1) {
        if (fork == -1) {
          fork = in;
        } else if (fork != in) {
          ok = false;
          break;
        }
        bg.branches.emplace_back();
        continue;
      }
      // Walk backwards through a linear chain: every node on the branch must
      // have exactly one input and exactly one consumer.
      std::vector<int> chain;
      int cur = in;
      while (true) {
        const Node& cn = g.node(cur);
        if (cn.inputs.size() != 1 || consumer_count[static_cast<size_t>(cur)] != 1) {
          ok = false;
          break;
        }
        chain.push_back(cur);
        const int prev = cn.inputs[0];
        // The fork is the first node with multiple consumers (or a node we
        // already identified as the fork).
        if (consumer_count[static_cast<size_t>(prev)] > 1) {
          if (fork == -1) {
            fork = prev;
          } else if (fork != prev) {
            ok = false;
          }
          break;
        }
        cur = prev;
      }
      if (!ok) {
        break;
      }
      std::reverse(chain.begin(), chain.end());
      bg.branches.push_back(std::move(chain));
    }
    if (ok && fork != -1 && bg.branches.size() == n.inputs.size()) {
      bg.fork = fork;
      groups.push_back(std::move(bg));
    }
  }
  return groups;
}

bool HasBranches(const Graph& g) { return !FindBranchGroups(g).empty(); }

std::optional<std::vector<int>> BestBranchAssignment(
    size_t branches, size_t targets, const std::function<double(const std::vector<int>&)>& cost) {
  if (std::pow(static_cast<double>(targets), static_cast<double>(branches)) > 1e6) {
    return std::nullopt;
  }
  std::vector<int> assign(branches, 0);
  std::vector<int> best(branches, 0);
  double best_cost = std::numeric_limits<double>::infinity();
  auto recurse = [&](auto&& self, size_t b) -> void {
    if (b == branches) {
      const double c = cost(assign);
      if (c < best_cost) {
        best_cost = c;
        best = assign;
      }
      return;
    }
    for (size_t t = 0; t < targets; ++t) {
      assign[b] = static_cast<int>(t);
      self(self, b + 1);
    }
  };
  recurse(recurse, 0);
  return best;
}

}  // namespace ulayer
