#include "core/plan.h"

#include <gtest/gtest.h>

#include <ostream>

#include "util/random.h"

namespace shuffledef::core {
namespace {

TEST(ShuffleProblem, ValidatesInvariants) {
  EXPECT_NO_THROW((ShuffleProblem{10, 3, 2}.validate()));
  EXPECT_THROW((ShuffleProblem{10, 11, 2}.validate()), std::invalid_argument);
  EXPECT_THROW((ShuffleProblem{-1, 0, 2}.validate()), std::invalid_argument);
  EXPECT_THROW((ShuffleProblem{10, 3, 0}.validate()), std::invalid_argument);
  EXPECT_EQ((ShuffleProblem{10, 3, 2}.benign()), 7);
}

TEST(AssignmentPlan, ValidatesAgainstProblem) {
  const ShuffleProblem problem{10, 2, 3};
  EXPECT_NO_THROW(AssignmentPlan({4, 3, 3}).validate_for(problem));
  EXPECT_THROW(AssignmentPlan({4, 3}).validate_for(problem),
               std::invalid_argument);  // wrong width
  EXPECT_THROW(AssignmentPlan({4, 3, 4}).validate_for(problem),
               std::invalid_argument);  // wrong sum
  EXPECT_THROW(AssignmentPlan({11, 3, -4}).validate_for(problem),
               std::invalid_argument);  // negative bucket
}

TEST(AssignmentPlan, Accessors) {
  const AssignmentPlan plan({5, 0, 2});
  EXPECT_EQ(plan.replica_count(), 3u);
  EXPECT_EQ(plan.total_clients(), 7);
  EXPECT_EQ(plan[0], 5);
  EXPECT_EQ(plan.to_string(), "[5, 0, 2]");
}

TEST(ExpectedSaved, NoBotsSavesEveryone) {
  const ShuffleProblem problem{12, 0, 4};
  EXPECT_DOUBLE_EQ(expected_saved(problem, AssignmentPlan({3, 3, 3, 3})), 12.0);
}

TEST(ExpectedSaved, AllBotsSavesNobody) {
  const ShuffleProblem problem{6, 6, 3};
  EXPECT_DOUBLE_EQ(expected_saved(problem, AssignmentPlan({2, 2, 2})), 0.0);
}

TEST(ExpectedSaved, HandComputedSmallCase) {
  // N=4, M=1, plan {2,2}: each bucket clean w.p. C(2,1)/C(4,1) = 1/2,
  // E(S) = 2*(1/2) + 2*(1/2) = 2.
  const ShuffleProblem problem{4, 1, 2};
  EXPECT_NEAR(expected_saved(problem, AssignmentPlan({2, 2})), 2.0, 1e-12);
  // Plan {1,3}: 1*C(3,1)/C(4,1) + 3*C(1,1)/C(4,1) = 3/4 + 3/4 = 1.5.
  EXPECT_NEAR(expected_saved(problem, AssignmentPlan({1, 3})), 1.5, 1e-12);
}

/// Brute-force E(S) by enumerating every placement of bots into client slots
/// (clients distinguishable), for small instances.
double brute_force_expected_saved(const ShuffleProblem& problem,
                                  const AssignmentPlan& plan) {
  const auto n = static_cast<int>(problem.clients);
  const auto m = static_cast<int>(problem.bots);
  // Assign clients 0..n-1 to buckets per plan; enumerate all C(n, m)
  // bot-position subsets via bitmask (n <= ~16).
  std::vector<int> bucket_of(static_cast<std::size_t>(n));
  int cursor = 0;
  for (std::size_t b = 0; b < plan.replica_count(); ++b) {
    for (Count k = 0; k < plan[b]; ++k) {
      bucket_of[static_cast<std::size_t>(cursor++)] = static_cast<int>(b);
    }
  }
  double total = 0.0;
  std::int64_t placements = 0;
  for (unsigned mask = 0; mask < (1u << n); ++mask) {
    if (__builtin_popcount(mask) != m) continue;
    ++placements;
    std::vector<bool> attacked(plan.replica_count(), false);
    for (int i = 0; i < n; ++i) {
      if (mask & (1u << i)) attacked[static_cast<std::size_t>(bucket_of[static_cast<std::size_t>(i)])] = true;
    }
    for (std::size_t b = 0; b < plan.replica_count(); ++b) {
      if (!attacked[b]) total += static_cast<double>(plan[b]);
    }
  }
  return total / static_cast<double>(placements);
}

struct EvalCase {
  Count n, m;
  std::vector<Count> sizes;
};

// Names each instantiated case after its contents; without it gtest prints
// the raw bytes, which include the vector's heap address and so change from
// run to run.
std::ostream& operator<<(std::ostream& os, const EvalCase& c) {
  os << "N=" << c.n << " M=" << c.m << " sizes=";
  for (std::size_t i = 0; i < c.sizes.size(); ++i) {
    os << (i == 0 ? "" : ",") << c.sizes[i];
  }
  return os;
}

class ExpectedSavedBruteForce : public ::testing::TestWithParam<EvalCase> {};

TEST_P(ExpectedSavedBruteForce, MatchesEnumeration) {
  const auto& c = GetParam();
  const ShuffleProblem problem{c.n, c.m, static_cast<Count>(c.sizes.size())};
  const AssignmentPlan plan(c.sizes);
  EXPECT_NEAR(expected_saved(problem, plan),
              brute_force_expected_saved(problem, plan), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ExpectedSavedBruteForce,
    ::testing::Values(EvalCase{6, 2, {2, 2, 2}}, EvalCase{6, 2, {1, 2, 3}},
                      EvalCase{8, 3, {4, 4}}, EvalCase{8, 3, {1, 1, 6}},
                      EvalCase{10, 1, {5, 5}}, EvalCase{10, 4, {2, 3, 5}},
                      EvalCase{12, 5, {3, 3, 3, 3}},
                      EvalCase{9, 2, {0, 4, 5}}));

TEST(ExpectedCleanReplicas, MatchesSumOfProbabilities) {
  const ShuffleProblem problem{10, 2, 3};
  const AssignmentPlan plan({5, 3, 2});
  const double expected = prob_replica_clean(problem, 5) +
                          prob_replica_clean(problem, 3) +
                          prob_replica_clean(problem, 2);
  EXPECT_NEAR(expected_clean_replicas(problem, plan), expected, 1e-12);
}

TEST(ExpectedSaved, MonteCarloAgreement) {
  const ShuffleProblem problem{100, 10, 5};
  const AssignmentPlan plan({8, 8, 8, 8, 68});
  util::Rng rng(99);
  double total = 0.0;
  const int reps = 40000;
  for (int r = 0; r < reps; ++r) {
    const auto bots = rng.multivariate_hypergeometric(plan.counts(), 10);
    for (std::size_t i = 0; i < bots.size(); ++i) {
      if (bots[i] == 0) total += static_cast<double>(plan[i]);
    }
  }
  EXPECT_NEAR(total / reps, expected_saved(problem, plan), 0.3);
}

}  // namespace
}  // namespace shuffledef::core
