// Cross-planner properties: validity, orderings, and the paper's headline
// algorithmic claims (greedy ~ optimal, even-split collapse).
#include <gtest/gtest.h>
#include <memory>

#include "core/even_planner.h"
#include "core/greedy_planner.h"
#include "core/plan.h"
#include "core/planner.h"
#include "core/separable_dp.h"

namespace shuffledef::core {
namespace {

struct ProblemCase {
  Count n, m, p;
};

std::ostream& operator<<(std::ostream& os, const ProblemCase& c) {
  return os << "N=" << c.n << " M=" << c.m << " P=" << c.p;
}

class AllPlanners : public ::testing::TestWithParam<ProblemCase> {};

TEST_P(AllPlanners, PlansAreValid) {
  const auto [n, m, p] = GetParam();
  const ShuffleProblem problem{n, m, p};
  for (const char* name : {"even", "greedy", "dp"}) {
    const auto planner = make_planner(name);
    const auto plan = planner->plan(problem);
    EXPECT_NO_THROW(plan.validate_for(problem)) << name;
  }
}

TEST_P(AllPlanners, DpDominatesGreedyDominatesNothingLost) {
  const auto [n, m, p] = GetParam();
  const ShuffleProblem problem{n, m, p};
  const double e_even = expected_saved(problem, EvenPlanner().plan(problem));
  const double e_greedy = expected_saved(problem, GreedyPlanner().plan(problem));
  const double e_dp = expected_saved(problem, SeparableDpPlanner().plan(problem));
  // The separable DP is the exact fixed-plan optimum.
  EXPECT_GE(e_dp + 1e-9, e_greedy);
  EXPECT_GE(e_dp + 1e-9, e_even);
  // And its plan's evaluation equals its claimed value.
  EXPECT_NEAR(e_dp, SeparableDpPlanner().value(problem), 1e-9);
}

TEST_P(AllPlanners, GreedyIsNearOptimal) {
  // Figure 3's claim: the greedy curve overlaps the DP curve.  Allow a small
  // relative slack — "near-optimal", not always exactly optimal.
  const auto [n, m, p] = GetParam();
  const ShuffleProblem problem{n, m, p};
  const double e_greedy = expected_saved(problem, GreedyPlanner().plan(problem));
  const double e_dp = SeparableDpPlanner().value(problem);
  if (e_dp > 0.0) {
    EXPECT_GE(e_greedy, 0.90 * e_dp) << "greedy=" << e_greedy << " dp=" << e_dp;
  } else {
    EXPECT_DOUBLE_EQ(e_greedy, 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AllPlanners,
    ::testing::Values(ProblemCase{10, 0, 3}, ProblemCase{10, 1, 3},
                      ProblemCase{10, 5, 3}, ProblemCase{10, 10, 3},
                      ProblemCase{50, 5, 10}, ProblemCase{50, 25, 10},
                      ProblemCase{100, 10, 5}, ProblemCase{100, 10, 50},
                      ProblemCase{100, 80, 20}, ProblemCase{200, 7, 13},
                      ProblemCase{200, 100, 40}, ProblemCase{500, 50, 25},
                      ProblemCase{3, 1, 8}, ProblemCase{1, 1, 2},
                      ProblemCase{1000, 100, 100}));

TEST(EvenPlanner, SplitsAsEvenlyAsPossible) {
  const auto plan = EvenPlanner().plan({11, 2, 4});
  ASSERT_EQ(plan.replica_count(), 4u);
  EXPECT_EQ(plan[0], 3);
  EXPECT_EQ(plan[1], 3);
  EXPECT_EQ(plan[2], 3);
  EXPECT_EQ(plan[3], 2);
}

TEST(GreedyPlanner, UsesSingleReplicaOptimumBucketSize) {
  // N=1000, M=99: omega = 10; all but the last replica get 10.
  const auto plan = GreedyPlanner().plan({1000, 99, 5});
  for (std::size_t i = 0; i + 1 < plan.replica_count(); ++i) {
    EXPECT_EQ(plan[i], 10);
  }
  EXPECT_EQ(plan[4], 1000 - 4 * 10);
}

TEST(GreedyPlanner, MoreBotsThanClientsYieldsSingletons) {
  const auto plan = GreedyPlanner().plan({10, 10, 4});
  EXPECT_EQ(plan[0], 1);
  EXPECT_EQ(plan[1], 1);
  EXPECT_EQ(plan[2], 1);
  EXPECT_EQ(plan[3], 7);
}

TEST(GreedyPlanner, FewClientsManyReplicasLeavesEmpties) {
  const auto plan = GreedyPlanner().plan({3, 1, 8});
  Count nonzero = 0;
  for (std::size_t i = 0; i < plan.replica_count(); ++i) {
    if (plan[i] > 0) ++nonzero;
  }
  EXPECT_LE(nonzero, 3);
  EXPECT_EQ(plan.total_clients(), 3);
}

TEST(SeparableDp, BeatsEvenSplitWhenBotsOutnumberReplicas) {
  // Figure 4's regime: M >> P makes even-split save almost nothing while
  // the optimized plan still carves out bot-free buckets.
  const ShuffleProblem problem{1000, 500, 100};
  const double e_even = expected_saved(problem, EvenPlanner().plan(problem));
  const double e_dp = SeparableDpPlanner().value(problem);
  EXPECT_LT(e_even, 0.15 * e_dp);
}

TEST(GreedyPlanner, MatchesEvenSplitRegimeWhenBotsScarce) {
  // Figure 4's other half: for M < P greedy and even-split perform alike.
  const ShuffleProblem problem{1000, 50, 200};
  const double e_even = expected_saved(problem, EvenPlanner().plan(problem));
  const double e_greedy =
      expected_saved(problem, GreedyPlanner().plan(problem));
  EXPECT_NEAR(e_greedy, e_even, 0.1 * e_even);
  EXPECT_GE(e_greedy + 1e-9, e_even);  // greedy never does worse
}

TEST(SeparableDp, MatchesExhaustivePartitionSearchOnTinyInstances) {
  // Enumerate all compositions of N into P buckets for tiny cases.
  for (const auto& [n, m, p] : {ProblemCase{6, 2, 2}, ProblemCase{7, 3, 3},
                                ProblemCase{8, 1, 2}, ProblemCase{9, 4, 3}}) {
    const ShuffleProblem problem{n, m, p};
    double best = -1.0;
    if (p == 2) {
      for (Count a = 0; a <= n; ++a) {
        best = std::max(best, expected_saved(problem, AssignmentPlan({a, n - a})));
      }
    } else {
      for (Count a = 0; a <= n; ++a) {
        for (Count b = 0; a + b <= n; ++b) {
          best = std::max(best, expected_saved(
                                    problem, AssignmentPlan({a, b, n - a - b})));
        }
      }
    }
    EXPECT_NEAR(SeparableDpPlanner().value(problem), best, 1e-9)
        << "N=" << n << " M=" << m << " P=" << p;
  }
}

TEST(MakePlanner, UnknownNameThrows) {
  EXPECT_THROW(make_planner("nope"), std::invalid_argument);
  // Algorithm 1 is an adaptive upper bound for the figures, not a planner
  // the defense can run.
  EXPECT_THROW(make_planner("algorithm1"), std::invalid_argument);
}

TEST(MakePlanner, NamesRoundTrip) {
  EXPECT_EQ(make_planner("even")->name(), "even");
  EXPECT_EQ(make_planner("greedy")->name(), "greedy");
  EXPECT_EQ(make_planner("dp")->name(), "dp");
}

}  // namespace
}  // namespace shuffledef::core
