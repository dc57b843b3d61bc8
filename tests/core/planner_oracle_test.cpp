// Oracle-grade differential battery for the rewritten Algorithm-1 solver.
//
// ReferenceAlgorithmOne (algorithm_one_reference.h) is the frozen
// pre-optimization planner; every mechanism added since the freeze — the
// batched pmf-walk kernels, branch-and-bound pruning and cross-round
// warm-starting — must reproduce its values to <= 1e-10 relative and its
// plans exactly up to provable value ties.  Randomized sweeps draw (N, M, P,
// tail_epsilon, a_cap, symmetry_cut, threads) jointly so option
// interactions are covered, not just one-factor-at-a-time.  The
// SeparableDp block-bound search is pinned bit for bit against the plain
// scalar recurrence it replaced.
//
// Runs under both the "planner_oracle" ctest label (the CI differential
// lane) and the "threading" label (the TSan lane covers the kernels inside
// the chunked parallel sweep).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "core/algorithm_one.h"
#include "core/algorithm_one_reference.h"
#include "core/planner.h"
#include "core/separable_dp.h"
#include "util/math.h"
#include "util/random.h"

namespace shuffledef::core {
namespace {

constexpr double kValueTol = 1e-10;

AlgorithmOneOptions opts_with(double tail_epsilon, Count a_cap,
                              bool symmetry_cut, Count threads,
                              bool prune = true) {
  AlgorithmOneOptions o;
  o.tail_epsilon = tail_epsilon;
  o.a_cap = a_cap;
  o.symmetry_cut = symmetry_cut;
  o.threads = threads;
  o.prune = prune;
  return o;
}

std::string describe(const ShuffleProblem& pb, const AlgorithmOneOptions& o) {
  return "N=" + std::to_string(pb.clients) + " M=" + std::to_string(pb.bots) +
         " P=" + std::to_string(pb.replicas) +
         " eps=" + std::to_string(o.tail_epsilon) +
         " a_cap=" + std::to_string(o.a_cap) +
         " sym=" + std::to_string(o.symmetry_cut) +
         " threads=" + std::to_string(o.threads);
}

void expect_value_close(double got, double want, const std::string& ctx) {
  const double scale = std::max({std::abs(got), std::abs(want), 1.0});
  EXPECT_LE(std::abs(got - want), kValueTol * scale)
      << ctx << " got=" << got << " want=" << want;
}

std::vector<Count> sorted_counts(const AssignmentPlan& plan) {
  std::vector<Count> counts = plan.counts();
  std::sort(counts.begin(), counts.end());
  return counts;
}

// Expected value of cutting a bucket of size `a` from cell (n, m, p) and
// continuing optimally, evaluated entirely by the frozen oracle:
//   Q(a) = sum_b Pr(b | a) * (S(a, b, 1) + S_ref(n - a, m - b, p - 1)).
double oracle_split_quality(const ShuffleProblem& pb, Count a,
                            AlgorithmOneOptions o) {
  o.threads = 1;
  double q = 0.0;
  for (Count b = 0; b <= std::min(pb.bots, a); ++b) {
    const double pr = util::hypergeometric_pmf(pb.clients, pb.bots, a, b);
    if (pr <= 0.0) continue;
    const Count rn = pb.clients - a;
    const Count rm = pb.bots - b;
    if (rm > rn) continue;  // zero-probability support edge
    const double cut = b == 0 ? static_cast<double>(a) : 0.0;
    double rest;
    if (pb.replicas == 2) {
      rest = rm == 0 ? static_cast<double>(rn) : 0.0;
    } else {
      rest = ReferenceAlgorithmOne(o).value({rn, rm, pb.replicas - 1});
    }
    q += pr * (cut + rest);
  }
  return q;
}

// Plans must match the oracle bucket-for-bucket (counts are in cut order).
// The one sanctioned exception is an exact-arithmetic value tie that the
// batched kernels' different (but equally exact) floating-point evaluation
// order resolves to a different argmax than the oracle's scalar loop.
// When the plans first diverge, both chosen splits are re-scored through
// the oracle itself; the divergence is accepted only if the two splits are
// value-equivalent to <= 1e-9 relative, proving a tie rather than a wrong
// argmax.  The walk reduces (n, m) with the same expected-bot-remainder
// rule both planners use for extraction.
void expect_plan_matches_oracle(const ShuffleProblem& pb,
                                const AlgorithmOneOptions& o,
                                const AssignmentPlan& got,
                                const AssignmentPlan& oracle_plan) {
  const std::vector<Count>& gp = got.counts();
  const std::vector<Count>& op = oracle_plan.counts();
  ASSERT_EQ(gp.size(), op.size()) << describe(pb, o);
  Count n = pb.clients;
  Count m = pb.bots;
  for (std::size_t i = 0; i < gp.size(); ++i) {
    const Count p = pb.replicas - static_cast<Count>(i);
    if (gp[i] == op[i]) {
      const Count a = gp[i];
      if (p == 1 || a >= n) return;  // tail is forced (or all dumped)
      const double expected_left = static_cast<double>(m) *
                                   static_cast<double>(n - a) /
                                   static_cast<double>(n);
      m = std::min<Count>(static_cast<Count>(std::llround(expected_left)),
                          n - a);
      n -= a;
      continue;
    }
    const ShuffleProblem cell{n, m, p};
    ASSERT_TRUE(gp[i] >= 1 && gp[i] <= n - 1 && op[i] >= 1 && op[i] <= n - 1)
        << describe(pb, o) << ": structural plan divergence at bucket " << i
        << " (got " << gp[i] << ", oracle " << op[i] << " of n=" << n << ")";
    const double qg = oracle_split_quality(cell, gp[i], o);
    const double qo = oracle_split_quality(cell, op[i], o);
    const double scale = std::max({std::abs(qg), std::abs(qo), 1.0});
    EXPECT_LE(std::abs(qg - qo), 1e-9 * scale)
        << describe(pb, o) << ": bucket " << i << " split " << gp[i]
        << " (scores " << qg << ") vs oracle split " << op[i] << " (scores "
        << qo << ") is not a value tie";
    return;  // after a tie the walks legitimately diverge
  }
}

void check_config(const ShuffleProblem& pb, const AlgorithmOneOptions& o) {
  const ReferenceAlgorithmOne oracle(o);
  const AlgorithmOnePlanner prod(o);
  const std::string ctx = describe(pb, o);
  expect_value_close(prod.value(pb), oracle.value(pb), ctx);
  expect_plan_matches_oracle(pb, o, prod.plan(pb), oracle.plan(pb));
}

TEST(PlannerOracle, ExhaustiveTinyGridDefaultOptions) {
  for (Count n = 4; n <= 12; ++n) {
    for (Count m = 0; m <= n - 2; ++m) {
      for (Count p = 2; p <= 4; ++p) {
        check_config({n, m, p}, opts_with(0.0, 0, true, 1));
      }
    }
  }
}

TEST(PlannerOracle, ExhaustiveTinyGridUncutUnpruned) {
  for (Count n = 4; n <= 12; ++n) {
    for (Count m = 0; m <= n - 2; ++m) {
      check_config({n, m, 3}, opts_with(0.0, 0, false, 1, /*prune=*/false));
    }
  }
}

// One jointly-randomized configuration per trial; the seed is the trial
// index so any failure reproduces standalone.
class PlannerOracleRandomized : public ::testing::TestWithParam<int> {};

TEST_P(PlannerOracleRandomized, MatchesReference) {
  util::Rng rng(977001 + GetParam());
  for (int trial = 0; trial < 6; ++trial) {
    const auto n = static_cast<Count>(rng.uniform_int(20, 260));
    const auto m =
        static_cast<Count>(rng.uniform_int(0, std::min<Count>(n - 2, 14)));
    const auto p = static_cast<Count>(rng.uniform_int(2, 8));
    const double eps = rng.uniform_int(0, 1) != 0 ? 1e-12 : 0.0;
    const Count a_cap =
        rng.uniform_int(0, 2) == 0
            ? static_cast<Count>(rng.uniform_int(4, std::max<Count>(5, n / 2)))
            : 0;
    const bool sym = rng.uniform_int(0, 1) != 0;
    const auto threads = static_cast<Count>(rng.uniform_int(0, 1) * 3 + 1);
    check_config({n, m, p}, opts_with(eps, a_cap, sym, threads));
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, PlannerOracleRandomized,
                         ::testing::Range(0, 8));

TEST(PlannerOracle, MidScaleSpotChecks) {
  // A few larger instances (the randomized sweep stays small so the frozen
  // oracle's runtime does not dominate CI).
  check_config({1200, 8, 5}, opts_with(1e-12, 0, true, 1));
  check_config({2000, 6, 4}, opts_with(0.0, 0, true, 4));
}

TEST(PlannerOracle, ThreadCountsAgreeBitwise) {
  // Stronger than the oracle tolerance: the chunked sweep is documented
  // bit-identical across thread counts.
  util::Rng rng(555101);
  for (int trial = 0; trial < 10; ++trial) {
    const auto n = static_cast<Count>(rng.uniform_int(30, 400));
    const auto m =
        static_cast<Count>(rng.uniform_int(0, std::min<Count>(n - 2, 12)));
    const auto p = static_cast<Count>(rng.uniform_int(2, 7));
    const ShuffleProblem pb{n, m, p};
    const auto o1 = opts_with(1e-12, 0, true, 1);
    const auto o4 = opts_with(1e-12, 0, true, 4);
    EXPECT_EQ(AlgorithmOnePlanner(o1).value(pb),
              AlgorithmOnePlanner(o4).value(pb))
        << describe(pb, o1);
    EXPECT_EQ(AlgorithmOnePlanner(o1).plan(pb).counts(),
              AlgorithmOnePlanner(o4).plan(pb).counts())
        << describe(pb, o1);
  }
}

TEST(PlannerOracle, TailEpsilonZeroAndTinyAgree) {
  // tail_epsilon = 1e-12 must stay within the oracle tolerance of the
  // exact solve (the truncated terms are below measurement noise).
  util::Rng rng(424242);
  for (int trial = 0; trial < 8; ++trial) {
    const auto n = static_cast<Count>(rng.uniform_int(50, 500));
    const auto m =
        static_cast<Count>(rng.uniform_int(1, std::min<Count>(n - 2, 10)));
    const ShuffleProblem pb{n, m, 4};
    expect_value_close(
        AlgorithmOnePlanner(opts_with(1e-12, 0, true, 1)).value(pb),
        AlgorithmOnePlanner(opts_with(0.0, 0, true, 1)).value(pb),
        describe(pb, opts_with(1e-12, 0, true, 1)));
  }
}

TEST(PlannerOracle, FactoryExposesReferencePlanner) {
  const auto prod = make_planner("algorithm1");
  const auto ref = make_planner("algorithm1_reference");
  const ShuffleProblem pb{60, 5, 3};
  EXPECT_EQ(ref->name(), "algorithm1_reference");
  EXPECT_EQ(sorted_counts(prod->plan(pb)), sorted_counts(ref->plan(pb)));
}

TEST(PlannerOracle, SeparableDpMatchesAlgorithmOneOnSmallGrid) {
  // The pruned SeparableDp search must still produce the fixed-plan
  // optimum: on small instances the adaptive value upper-bounds it and the
  // extracted plan must replay to the DP value.  Bit-exact equality with the
  // plain scalar recurrence is pinned by
  // SeparableDpPrunedMatchesScalarRecurrence below.
  const SeparableDpPlanner dp;
  for (Count n = 6; n <= 30; n += 4) {
    for (Count m = 1; m <= 4; ++m) {
      for (Count p = 2; p <= 4; ++p) {
        const ShuffleProblem pb{n, m, p};
        const double adaptive =
            AlgorithmOnePlanner(opts_with(0.0, 0, true, 1)).value(pb);
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
  // g(x) + D(p-1, n-x) ties across all x and the extracted plan must be the
  // first-argmax one (all weight on x = 0 until the final bucket... i.e.
  // the scan picks index 0 on every tie).
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
// come from one sweep.
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
    for (Count p = 2; p <= max_p; ++p) {
      const std::vector<double>& prev = d_.back();
      std::vector<double> row(static_cast<std::size_t>(n_ + 1));
      std::vector<Count> arg(static_cast<std::size_t>(n_ + 1));
      for (Count n = 0; n <= n_; ++n) {
        const Count hi = std::min(n, x_max == 0 ? n : x_max);
        double best = -1.0;
        Count best_x = 0;
        for (Count x = 0; x <= hi; ++x) {
          const double v = g[static_cast<std::size_t>(x)] +
                           prev[static_cast<std::size_t>(n - x)];
          if (v > best) {
            best = v;
            best_x = x;
          }
        }
        row[static_cast<std::size_t>(n)] = best;
        arg[static_cast<std::size_t>(n)] = best_x;
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
  // The block-bound search skips candidates only when a bound is strictly
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

}  // namespace
}  // namespace shuffledef::core
