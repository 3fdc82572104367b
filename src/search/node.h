// SearchNode: one partial flip chain of the branch-and-bound search, with
// its evaluation pinned at creation and its canonical (order-independent)
// identity precomputed for the transposition cache and for deterministic
// tie-breaking.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "attack/candidates.h"
#include "nn/quant/qmodel.h"

namespace rowpress::search {

// Flips are keyed by attack::pack_ref — the scorer's tie-break key, so the
// canonical (sorted) key below is also a valid exclusion set for it.
using attack::pack_ref;
using attack::unpack_ref;

/// splitmix64-combined hash of a canonical key (order-sensitive over the
/// sorted vector, so equal flip *sets* hash equally).
inline std::uint64_t hash_key(const std::vector<std::int64_t>& key) {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (const std::int64_t v : key) {
    std::uint64_t x = h ^ static_cast<std::uint64_t>(v);
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    h = x ^ (x >> 31);
  }
  return h;
}

struct SearchNode {
  std::shared_ptr<const SearchNode> parent;  ///< null at the root
  nn::WeightBitRef flip{};                   ///< meaningless at the root
  int depth = 0;                             ///< committed flips (chain length)

  // Pinned evaluation (see search/expand.h): measured once when the node is
  // created, identical regardless of which pool worker measured it.
  double loss = 0.0;      ///< attack-batch loss after the chain
  double accuracy = 0.0;  ///< eval-subset accuracy after the chain
  double score = 0.0;     ///< objective score (higher = closer to goal)

  /// Admissible lower bound on the total length of any goal chain extending
  /// this one: depth + flips-to-go estimate.  Nodes with bound >= incumbent
  /// length are pruned.
  double bound = 0.0;

  /// Canonical identity: the chain's packed flips, sorted — permutations of
  /// the same flip set share it (XOR flips commute, so they also share the
  /// resulting weights).  Keys the transposition cache and final tie-breaks.
  std::vector<std::int64_t> key;
  std::uint64_t key_hash = 0;

  /// The chain in committed (root -> leaf) order.
  std::vector<nn::WeightBitRef> chain() const {
    std::vector<nn::WeightBitRef> out(static_cast<std::size_t>(depth));
    const SearchNode* n = this;
    for (int i = depth - 1; i >= 0; --i, n = n->parent.get()) out[i] = n->flip;
    return out;
  }

  /// The chain's nodes in committed order (for per-flip loss/accuracy).
  static std::vector<const SearchNode*> path(const SearchNode* leaf) {
    std::vector<const SearchNode*> out(static_cast<std::size_t>(leaf->depth));
    const SearchNode* n = leaf;
    for (int i = leaf->depth - 1; i >= 0; --i, n = n->parent.get()) out[i] = n;
    return out;
  }
};

using NodePtr = std::shared_ptr<const SearchNode>;

/// Child key: parent's sorted key with one packed flip inserted in order.
inline std::vector<std::int64_t> extend_key(
    const std::vector<std::int64_t>& parent_key, std::int64_t packed) {
  std::vector<std::int64_t> key;
  key.reserve(parent_key.size() + 1);
  auto it = parent_key.begin();
  while (it != parent_key.end() && *it < packed) key.push_back(*it++);
  key.push_back(packed);
  key.insert(key.end(), it, parent_key.end());
  return key;
}

}  // namespace rowpress::search
