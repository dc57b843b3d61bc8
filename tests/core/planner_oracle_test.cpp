// Oracle-grade battery for the planners.
//
// AlgorithmOnePlanner (the paper's Algorithm 1, solved bottom-up with
// incremental pmf updates and compensated sums) is checked against an
// independent top-down transcription of the same recurrence that evaluates
// every hypergeometric term directly.  The SeparableDp planner's two
// searches (top-down under the envelope bound, bottom-up block-bound) are
// pinned bit for bit against the plain scalar recurrence they replaced, and
// bounded above by Algorithm 1 (an adaptive upper bound) on a small grid.
//
// Runs under the "planner_oracle" ctest label (the CI differential lane).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/algorithm_one.h"
#include "core/separable_dp.h"
#include "util/math.h"
#include "util/random.h"

namespace shuffledef::core {
namespace {

// Top-down, memoized transcription of Algorithm 1's recurrence:
//   S(n, m, 1) = n if m == 0 else 0
//   S(n, m, p) = max_{1<=a<=n-1} Q(n, m, p, a)                 (p >= 2, n >= 2)
//   Q(n, m, p, a) = sum_b Pr(b | a) * ([b == 0] * a + S(n-a, m-b, p-1))
// Every Pr(b | a) comes straight from util::hypergeometric_pmf and the sums
// are plain, so it shares neither the planner's bottom-up table layout, its
// incremental pmf walk, its compensated summation nor its m == 0 shortcut.
// S does not depend on the top-level N, so one instance serves a whole test.
class TopDownAlgorithmOne {
 public:
  double value(Count n, Count m, Count p) {
    if (p == 1 || n <= 1) return m == 0 ? static_cast<double>(n) : 0.0;
    const auto key = std::make_tuple(n, m, p);
    if (const auto it = memo_.find(key); it != memo_.end()) return it->second;
    double best = -1.0;
    for (Count a = 1; a <= n - 1; ++a) best = std::max(best, split(n, m, p, a));
    memo_.emplace(key, best);
    return best;
  }

  // Q(n, m, p, a): expected saves from cutting a bucket of size a off cell
  // (n, m, p) and continuing optimally.
  double split(Count n, Count m, Count p, Count a) {
    double q = 0.0;
    for (Count b = std::max<Count>(0, a - (n - m)); b <= std::min(a, m); ++b) {
      const double pr = util::hypergeometric_pmf(n, m, a, b);
      const double cut = b == 0 ? static_cast<double>(a) : 0.0;
      q += pr * (cut + value(n - a, m - b, p - 1));
    }
    return q;
  }

 private:
  std::map<std::tuple<Count, Count, Count>, double> memo_;
};

std::string describe(const ShuffleProblem& pb) {
  return "N=" + std::to_string(pb.clients) + " M=" + std::to_string(pb.bots) +
         " P=" + std::to_string(pb.replicas);
}

// Value within 1e-10 relative of the oracle.  The plan is walked with the
// planner's extraction rule (the expected bot remainder round(m (n-a) / n));
// every bucket it cuts must be an argmax of the oracle's Q at that cell, up
// to a 1e-9 relative value tie that the two summation orders may break
// differently.
void expect_matches_top_down(const AlgorithmOnePlanner& alg1,
                             TopDownAlgorithmOne& oracle,
                             const ShuffleProblem& pb) {
  const std::string ctx = describe(pb);
  const double want = oracle.value(pb.clients, pb.bots, pb.replicas);
  const double got = alg1.value(pb);
  EXPECT_LE(std::abs(got - want), 1e-10 * std::max({std::abs(want), 1.0}))
      << ctx << " got=" << got << " want=" << want;

  const std::vector<Count> counts = alg1.plan(pb).counts();
  ASSERT_EQ(counts.size(), static_cast<std::size_t>(pb.replicas)) << ctx;
  Count n = pb.clients;
  Count m = pb.bots;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const Count p = pb.replicas - static_cast<Count>(i);
    const Count a = counts[i];
    if (p == 1 || n <= 1 || m == 0) {
      // No split is made: everything left goes on this replica.
      EXPECT_EQ(a, n) << ctx << " bucket " << i;
      return;
    }
    ASSERT_TRUE(a >= 1 && a <= n - 1)
        << ctx << " bucket " << i << " cuts " << a << " of n=" << n;
    const double best = oracle.value(n, m, p);
    const double q = oracle.split(n, m, p, a);
    EXPECT_LE(best - q, 1e-9 * std::max(best, 1.0))
        << ctx << " bucket " << i << ": split " << a << " of (n=" << n
        << ", m=" << m << ", p=" << p << ") scores " << q << ", optimum "
        << best;
    const double expected_left = static_cast<double>(m) *
                                 static_cast<double>(n - a) /
                                 static_cast<double>(n);
    m = std::min<Count>(static_cast<Count>(std::llround(expected_left)), n - a);
    n -= a;
  }
}

TEST(PlannerOracle, ExhaustiveTinyGridUncutUnpruned) {
  // Algorithm 1 is the plain recurrence (no symmetry cut, no pruning), so it
  // must match the top-down oracle on every tiny cell.
  const AlgorithmOnePlanner alg1;
  TopDownAlgorithmOne oracle;
  for (Count n = 4; n <= 12; ++n) {
    for (Count m = 0; m <= n - 2; ++m) {
      expect_matches_top_down(alg1, oracle, {n, m, 3});
    }
  }
}

// A few jointly-randomized (N, M, P) problems per trial; the seed is the
// trial index so any failure reproduces standalone.
class PlannerOracleRandomized : public ::testing::TestWithParam<int> {};

TEST_P(PlannerOracleRandomized, MatchesReference) {
  util::Rng rng(977001 + GetParam());
  const AlgorithmOnePlanner alg1;
  TopDownAlgorithmOne oracle;
  for (int trial = 0; trial < 3; ++trial) {
    const auto n = static_cast<Count>(rng.uniform_int(20, 160));
    const auto m =
        static_cast<Count>(rng.uniform_int(0, std::min<Count>(n - 2, 12)));
    const auto p = static_cast<Count>(rng.uniform_int(2, 8));
    expect_matches_top_down(alg1, oracle, {n, m, p});
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, PlannerOracleRandomized,
                         ::testing::Range(0, 8));

TEST(PlannerOracle, SeparableDpMatchesAlgorithmOneOnSmallGrid) {
  // The pruned SeparableDp search must still produce the fixed-plan
  // optimum: on small instances the adaptive value upper-bounds it and the
  // extracted plan must replay to the DP value.  Bit-exact equality with the
  // plain scalar recurrence is pinned by
  // SeparableDpPrunedMatchesScalarRecurrence below.
  const SeparableDpPlanner dp;
  const AlgorithmOnePlanner alg1;
  for (Count n = 6; n <= 30; n += 4) {
    for (Count m = 1; m <= 4; ++m) {
      for (Count p = 2; p <= 4; ++p) {
        const ShuffleProblem pb{n, m, p};
        const double adaptive = alg1.value(pb);
        const double fixed = dp.value(pb);
        EXPECT_LE(fixed, adaptive + 1e-9)
            << "fixed plan beat the adaptive bound at N=" << n << " M=" << m
            << " P=" << p;
        const AssignmentPlan plan = dp.plan(pb);
        double replay = 0.0;
        for (const Count x : plan.counts()) {
          replay += static_cast<double>(x) * util::prob_no_bots(n, m, x);
        }
        EXPECT_NEAR(replay, fixed, 1e-9 * std::max(1.0, fixed))
            << "extracted plan does not achieve the DP value at N=" << n
            << " M=" << m << " P=" << p;
      }
    }
  }
}

TEST(PlannerOracle, SeparableDpTieBreakIsFirstArgmax) {
  // The pruned search must reproduce the scalar loop's strict `v > best`
  // tie-break: with M = 0 every split of n saves everything, so
  // g(x) + D(p-1, n-x) ties across all x and the scan keeps x = 0, its first
  // candidate, in every cell.  The plan therefore leaves every bucket empty
  // but the last, which takes all 40 clients.
  const SeparableDpPlanner dp;
  const AssignmentPlan plan = dp.plan({40, 0, 4});
  ASSERT_EQ(plan.counts().size(), 4u);
  EXPECT_EQ(plan.counts()[3], 40);  // walk-back order: last bucket dumped
  EXPECT_EQ(dp.value({40, 0, 4}), 40.0);
}

// The plain scalar recurrence SeparableDpPlanner is specified by: the same
// g(x) and the same candidate cap, every candidate x scanned, strict
// `v > best` (first argmax wins).  Solved once at `max_p` replicas, it keeps
// every stage's row and argmax table, so the answers for all P <= max_p
// come from one sweep.  Each stage runs x in the outer loop and n in the
// inner one: every cell still sees its candidates in ascending x through
// the same strict comparison, but the inner iterations are independent,
// which runs about 2.5x faster than carrying one cell's best through the
// loop.
class ScalarSeparableDp {
 public:
  ScalarSeparableDp(Count n_clients, Count bots, Count max_p)
      : n_(n_clients) {
    const Count x_max = bots == 0 ? n_ : n_ - bots;
    std::vector<double> g(static_cast<std::size_t>(n_ + 1), 0.0);
    for (Count x = 0; x <= x_max; ++x) {
      g[static_cast<std::size_t>(x)] =
          static_cast<double>(x) * util::prob_no_bots(n_, bots, x);
    }
    d_.push_back(g);
    std::vector<Count> take_all(static_cast<std::size_t>(n_ + 1));
    for (Count n = 0; n <= n_; ++n) take_all[static_cast<std::size_t>(n)] = n;
    arg_.push_back(take_all);
    // Cell n's candidates are 0 <= x <= min(n, cap).
    const Count cap = x_max == 0 ? n_ : x_max;
    for (Count p = 2; p <= max_p; ++p) {
      const std::vector<double>& prev = d_.back();
      std::vector<double> row(static_cast<std::size_t>(n_ + 1), -1.0);
      std::vector<Count> arg(static_cast<std::size_t>(n_ + 1), 0);
      for (Count x = 0; x <= cap; ++x) {
        const double gx = g[static_cast<std::size_t>(x)];
        for (Count n = x; n <= n_; ++n) {
          const double v = gx + prev[static_cast<std::size_t>(n - x)];
          if (v > row[static_cast<std::size_t>(n)]) {
            row[static_cast<std::size_t>(n)] = v;
            arg[static_cast<std::size_t>(n)] = x;
          }
        }
      }
      d_.push_back(std::move(row));
      arg_.push_back(std::move(arg));
    }
  }

  [[nodiscard]] double value(Count p) const {
    return d_[static_cast<std::size_t>(p - 1)][static_cast<std::size_t>(n_)];
  }

  [[nodiscard]] std::vector<Count> plan(Count p) const {
    std::vector<Count> counts;
    Count n = n_;
    for (Count q = p; q >= 1; --q) {
      const Count x =
          arg_[static_cast<std::size_t>(q - 1)][static_cast<std::size_t>(n)];
      counts.push_back(x);
      n -= x;
    }
    return counts;
  }

 private:
  Count n_;
  std::vector<std::vector<double>> d_;
  std::vector<std::vector<Count>> arg_;
};

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// Checks value() and plan() for every P in [min_p, max_p] against one
// reference sweep; returns the number of mismatching problems (details via
// EXPECT).
int expect_matches_scalar(Count n, Count m, Count min_p, Count max_p) {
  const SeparableDpPlanner dp;
  const ScalarSeparableDp ref(n, m, max_p);
  int mismatches = 0;
  for (Count p = min_p; p <= max_p; ++p) {
    const ShuffleProblem pb{n, m, p};
    const double got = dp.value(pb);
    const bool value_ok = same_bits(got, ref.value(p));
    const std::vector<Count> plan = dp.plan(pb).counts();
    const bool plan_ok = plan == ref.plan(p);
    EXPECT_TRUE(value_ok) << "N=" << n << " M=" << m << " P=" << p
                          << " value " << got << " vs scalar " << ref.value(p);
    EXPECT_EQ(plan, ref.plan(p)) << "N=" << n << " M=" << m << " P=" << p;
    if (!value_ok || !plan_ok) ++mismatches;
  }
  return mismatches;
}

TEST(PlannerOracle, SeparableDpPrunedMatchesScalarRecurrence) {
  // Either search skips candidates only when a bound is strictly
  // below (or tied at a later index than) a real candidate, so its value and
  // first argmax must equal the full scan bit for bit -- not merely within a
  // tolerance.  Exhaustive small grid, every M including the degenerate
  // M = 0 (every split ties) and M = N (every g is 0).
  int mismatches = 0;
  for (Count n = 0; n <= 120 && mismatches < 5; ++n) {
    for (Count m = 0; m <= n; ++m) mismatches += expect_matches_scalar(n, m, 1, 12);
  }
  EXPECT_EQ(mismatches, 0);

  // Degenerate cases at a size that spans several coarse blocks.
  const SeparableDpPlanner dp;
  std::vector<Count> dump_last(10, 0);
  dump_last.back() = 1000;
  EXPECT_EQ(dp.plan({1000, 1000, 10}).counts(), dump_last);  // g == 0
  EXPECT_EQ(dp.value({1000, 1000, 10}), 0.0);
  EXPECT_EQ(dp.plan({1000, 0, 10}).counts(), dump_last);  // all splits tie
  EXPECT_EQ(dp.value({1000, 0, 10}), 1000.0);

  // Campaign-scale problems that the dp campaigns re-plan, from the
  // strongly pruned (M = 1000) to the flat-topped concave M = 1.
  EXPECT_EQ(expect_matches_scalar(10003, 1000, 20, 20), 0);
  EXPECT_EQ(expect_matches_scalar(9832, 1, 20, 20), 0);
  EXPECT_EQ(expect_matches_scalar(4936, 65, 10, 10), 0);
  EXPECT_EQ(expect_matches_scalar(2978, 3, 10, 10), 0);
}

TEST(PlannerOracle, SeparableDpTopDownAndFallbackMatchScalarRecurrence) {
  // The planner solves top-down when the envelope bound is tight at the
  // root and falls back to the bottom-up search otherwise, or once the
  // top-down has started its cell budget.  Shapes for every path, each
  // checked bit for bit (paths as measured when the cases were chosen):
  //   top-down completes: M < P with P not dividing N, so the buckets of
  //   N/P rounded down and up tie up to rounding in every order, and
  //   (1000, 50, 200), whose work stack reaches fig05's depth;
  EXPECT_EQ(expect_matches_scalar(1864, 5, 20, 20), 0);
  EXPECT_EQ(expect_matches_scalar(9833, 3, 20, 20), 0);
  EXPECT_EQ(expect_matches_scalar(1000, 50, 200, 200), 0);
  //   the envelope is loose at the root (M >= P), straight to bottom-up;
  EXPECT_EQ(expect_matches_scalar(1864, 38, 20, 20), 0);
  EXPECT_EQ(expect_matches_scalar(2000, 200, 10, 10), 0);
  EXPECT_EQ(expect_matches_scalar(1000, 500, 200, 200), 0);
  //   tight at the root but over budget: about P^2/4 cells at P = 150, and
  //   M = P, where the dump bucket makes the envelope loose below the root.
  EXPECT_EQ(expect_matches_scalar(1000, 50, 150, 150), 0);
  EXPECT_EQ(expect_matches_scalar(1000, 100, 100, 100), 0);
}

}  // namespace
}  // namespace shuffledef::core
