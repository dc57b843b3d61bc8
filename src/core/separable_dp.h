// Exact optimal fixed-plan DP ("dp" planner).
//
// For a fixed size vector x_1..x_P the objective separates:
//   E(S) = sum_i g(x_i),   g(x) = x * C(N-x, M) / C(N, M)
// so the optimum is a classic resource-allocation dynamic program:
//   D(p, n) = max_{0<=x<=n} g(x) + D(p-1, n-x),  D(1, n) = g(n).
// Every cell keeps its first argmax, the plain scan's strict `v > best`
// tie-break, and the plan is walked back from D(P, N).
//
// Two exact searches solve it; both skip a candidate x only when an upper
// bound on g(x) + D(p-1, n-x) is strictly below a real candidate already
// seen, or equal to it at no smaller index.  Round-to-nearest addition is
// monotone, so fl(g(x) + D) never exceeds fl(g(x) + bound) and a skipped
// candidate can neither beat the cell's max nor tie it earlier: the value
// and the first argmax — hence every plan — are bit-identical to the full
// scan.
//
// Top-down, first.  D(P, N) is solved with memoisation, and only the cells
// that a surviving candidate needs are computed.  An unsolved child is
// bounded by Jensen's inequality on ĝ, the upper concave envelope of g over
// [0, N]:
//   D(q, m) = sum_i g(x_i) <= q * ĝ(m / q).
// ĝ's vertices are points of g, so q * ĝ(m / q) is exact to a few ulps.  A
// relative margin of (q + 8) 2^-50 covers the q - 1 roundings inside the
// computed D, and an absolute q (N + 2) 2^-48 max g covers the envelope's
// own floating-point construction, so the bound is never below the computed
// D.  Blocks of x are bounded by the block maxima of g plus the envelope
// bound at its peak clamped into the block's window, one evaluation per
// block.  The memo is sparse, keyed by (p, n), and the work stack is
// explicit: at most P - 1 frames, however large P is.
//
// When M-hat < P the even split lies where the envelope follows g, the bound
// is tight, and a solve needs P - 1 cells when P divides N and about P^2/4
// otherwise: at most 117 on the campaigns' problems at P = 20.  When
// M-hat >= P the optimum dumps clients in one bucket in g's convex tail,
// the bound is loose and the cells needed run into the thousands.  So the
// solve falls back to the bottom-up search when the even split's bucket
// sizes are not envelope vertices (the root's bound is not attained), or
// once the top-down has started 8 cells per replica.
//
// Bottom-up, the fallback.  Every cell of every stage, in O(P * N^2) worst
// case time and O(P * N) space; each cell's max comes from a two-level
// block-bound search: block maxima of g and of D(p-1, .) at 16 and 256
// entries bound every candidate of a block.  Of the last stage only
// D(P, N) is solved.
//
// Same host, plan() at N ~ 10^4, P = 10-20: M = 1 and M = 3 (M < P) run in
// 0.2-0.4 ms, 180-400x faster than the bottom-up search alone; M >= P
// problems take the bottom-up search's 8-38 ms.
//
// Its value provably upper-bounds every planner that emits a fixed plan
// (greedy, even, Algorithm 1's extracted plan).  Tests verify that it stays
// within a few percent under Algorithm 1's adaptive value on small
// instances, which justifies using it as the "Dynamic Programming" series
// at full paper scale, and pin both searches bit for bit against the plain
// scalar recurrence (tests/core/planner_oracle_test.cpp).
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
