// Exact optimal fixed-plan DP ("dp" planner).
//
// For a fixed size vector x_1..x_P the objective separates:
//   E(S) = sum_i g(x_i),   g(x) = x * C(N-x, M) / C(N, M)
// so the optimum is a classic resource-allocation dynamic program:
//   D(p, n) = max_{0<=x<=n} g(x) + D(p-1, n-x),  D(0, n) = 0 iff n == 0.
//
// The worst case is O(P * N^2) time and O(P * N) space, but each cell's max
// is found by an exact two-level block-bound search instead of a full scan:
// block maxima of g and of D(p-1, .) at 16 and 256 entries bound every
// candidate of a block, and a block is skipped when its bound is strictly
// below a real candidate already seen, or equal to it and the block starts
// at no smaller index.
// Round-to-nearest addition is monotone, so fl(g(x) + D(p-1, n-x)) never
// exceeds fl(max g + max D) and a skipped candidate is strictly below the
// cell's max: the value and the first argmax — the plain scan's strict
// `v > best` tie-break — come out bit-identical to the full scan, and with
// them every plan.  Of the last stage only D(P, N) is solved.  In practice
// this skips most candidates: plan() at N = 10^4 runs 5-28x faster than the
// full scan (least on the flat-topped M = 1 problems), value() at the
// paper's N = 1000, P = 200 about 3.5x.
//
// Its value provably upper-bounds every planner that emits a fixed plan
// (greedy, even, Algorithm 1's extracted plan).  Tests verify that it stays
// within a few percent under Algorithm 1's adaptive value on small
// instances, which justifies using it as the "Dynamic Programming" series
// at full paper scale, and pin it bit for bit against the plain scalar
// recurrence
// (tests/core/planner_oracle_test.cpp).
#pragma once

#include "core/planner.h"

namespace shuffledef::core {

class SeparableDpPlanner final : public Planner {
 public:
  /// The optimal expected savings over all fixed plans.
  [[nodiscard]] double value(const ShuffleProblem& problem) const;

  [[nodiscard]] AssignmentPlan plan(const ShuffleProblem& problem) const override;

  [[nodiscard]] std::string name() const override { return "dp"; }
};

}  // namespace shuffledef::core
