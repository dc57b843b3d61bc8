// Algorithm 1 from the paper: Optimal-Assign(N, M, P).
//
// The recurrence decomposes the shuffle over the "last" replica:
//
//   S(n, m, 1) = n if m == 0 else 0
//   S(n, m, p) = max_{1<=a<=n-1} sum_b Pr(b | a) * [S(a, b, 1) + S(n-a, m-b, p-1)]
//   Pr(b | a)  = C(m, b) * C(n-m, a-b) / C(n, a)          (hypergeometric)
//
// and is solved bottom-up, exactly as the paper's Algorithm 1 builds the
// save_no / assign_no lookup tables: a plain, serial transcription that
// scans every candidate a and every b.  The paper quotes O(N^3 M^2 P) time
// and reports tens of hours in Matlab for N = 1000; here it serves the
// Figure 3 inset and Figure 5 at N <= 100, and the tests.
//
// Note on semantics: because the recurrence re-optimizes the remaining
// replicas *conditioned on b* (the bots that landed in the bucket just
// cut), its value upper-bounds every fixed size-vector plan — and the bound
// is strict on many instances, by a few percent (see
// tests/core/algorithm_one_test).  No deployable plan is adaptive in this
// sense (all buckets are cut before the random assignment is realized), so
// the achievable optimum is the fixed-plan one computed by
// SeparableDpPlanner in O(P·N^2), which is what the defense plans with.
#pragma once

#include <cstddef>

#include "core/planner.h"
#include "obs/registry.h"

namespace shuffledef::core {

class AlgorithmOnePlanner final : public Planner {
 public:
  /// Largest N the tabular DP accepts.
  static constexpr Count kMaxClients = 60000;
  /// Guard against accidental monster allocations (value + argmax tables);
  /// checked before anything is allocated.
  static constexpr std::size_t kMemoryLimitBytes = std::size_t{2} << 30;

  /// `registry` (nullptr = uninstrumented) receives the counters
  /// "planner.algorithm1.{solves,layers,cells}" and the
  /// "planner.algorithm1.solve" span.
  explicit AlgorithmOnePlanner(obs::Registry* registry = nullptr);

  /// The optimal expected number of benign clients saved, S(N, M, P).
  [[nodiscard]] double value(const ShuffleProblem& problem) const;

  /// Extract a concrete plan by walking the assign_no table.  The walk needs
  /// a bot count for each reduced subproblem; bots are not observable, so
  /// the expected remainder round(m * (n-a) / n) is used (documented
  /// deviation: the paper does not specify the extraction rule).
  [[nodiscard]] AssignmentPlan plan(const ShuffleProblem& problem) const override;

  [[nodiscard]] std::string name() const override { return "algorithm1"; }

 private:
  struct Tables;
  [[nodiscard]] Tables solve(const ShuffleProblem& problem, bool keep_argmax) const;

  obs::Registry* registry_;
  obs::Counter solves_;
  obs::Counter layers_;
  obs::Counter cells_;
};

}  // namespace shuffledef::core
