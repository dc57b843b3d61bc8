// Planner interface: given a ShuffleProblem, produce an AssignmentPlan.
//
// Implementations (all from the paper):
//   EvenPlanner         — naive even split (Figure 4 baseline)
//   GreedyPlanner       — MOTAG greedy heuristic, the runtime algorithm
//   SeparableDpPlanner  — exact optimal fixed-plan DP in O(P * N^2)
//   AlgorithmOnePlanner — the paper's Algorithm 1 (an adaptive upper bound,
//                         for the figures only; not in make_planner)
#pragma once

#include <memory>
#include <string>

#include "core/plan.h"
#include "core/types.h"

namespace shuffledef::core {

class Planner {
 public:
  virtual ~Planner() = default;

  /// Compute an assignment plan for the problem.  Must return a plan that
  /// validates against `problem` (sizes >= 0, sums to N, P entries).
  [[nodiscard]] virtual AssignmentPlan plan(const ShuffleProblem& problem) const = 0;

  [[nodiscard]] virtual std::string name() const = 0;
};

/// Factory by name ("even", "greedy", "dp"); throws on unknown.
std::unique_ptr<Planner> make_planner(const std::string& name);

}  // namespace shuffledef::core
