// Search-dispatching attack runners: the campaign-facing entry points that
// select between the greedy progressive BFA and the branch-and-bound
// engine (`--search greedy|bnb`).
//
// kGreedy delegates to attack::run_profile_attack / run_unconstrained_attack
// unchanged — same calls, same RNG consumption — so greedy chains stay
// byte-identical to builds that predate the search subsystem.  kBranchAndBound
// takes its feasible-bit set and its worker replicas from
// attack::prepare_trial, the greedy runner's trial setup (the search must
// attack the same physical placement the greedy search would), optionally
// runs the greedy probe as the incumbent, then runs the engine with the
// DepletionObjective.
#pragma once

#include "attack/runner.h"
#include "search/bnb.h"

namespace rowpress::search {

struct SearchRunSetup {
  attack::AttackRunSetup base;
  SearchConfig config;
};

/// DRAM-profile-aware attack under the configured search engine.
attack::AttackResult run_profile_attack(const models::ModelSpec& spec,
                                        const nn::ModelState& trained,
                                        const data::SplitDataset& data,
                                        const profile::BitFlipProfile& prof,
                                        const dram::Geometry& geom,
                                        const SearchRunSetup& setup,
                                        SearchStats* stats = nullptr);

/// Unconstrained attack under the configured search engine.
attack::AttackResult run_unconstrained_attack(const models::ModelSpec& spec,
                                              const nn::ModelState& trained,
                                              const data::SplitDataset& data,
                                              const SearchRunSetup& setup,
                                              SearchStats* stats = nullptr);

}  // namespace rowpress::search
