#include "core/plan_metrics.h"

#include <gtest/gtest.h>

#include <ostream>

#include "util/random.h"
#include "util/stats.h"

namespace shuffledef::core {
namespace {

TEST(PairClean, MatchesSingleWhenOtherEmpty) {
  const ShuffleProblem problem{20, 4, 2};
  EXPECT_NEAR(prob_pair_clean(problem, 5, 0), prob_replica_clean(problem, 5),
              1e-12);
}

TEST(PairClean, RejectsOversizedPairs) {
  const ShuffleProblem problem{10, 2, 2};
  EXPECT_THROW(prob_pair_clean(problem, 6, 5), std::invalid_argument);
}

TEST(SavedMoments, MeanMatchesExpectedSaved) {
  const ShuffleProblem problem{100, 10, 5};
  const AssignmentPlan plan({8, 8, 8, 8, 68});
  const auto m = saved_count_moments(problem, plan);
  EXPECT_NEAR(m.mean, expected_saved(problem, plan), 1e-9);
}

TEST(SavedMoments, DegenerateCases) {
  // No bots: S = N deterministically.
  const ShuffleProblem no_bots{30, 0, 3};
  const auto m0 = saved_count_moments(no_bots, AssignmentPlan({10, 10, 10}));
  EXPECT_DOUBLE_EQ(m0.mean, 30.0);
  EXPECT_NEAR(m0.variance, 0.0, 1e-9);
  // All bots: S = 0 deterministically.
  const ShuffleProblem all_bots{30, 30, 3};
  const auto m1 = saved_count_moments(all_bots, AssignmentPlan({10, 10, 10}));
  EXPECT_DOUBLE_EQ(m1.mean, 0.0);
  EXPECT_NEAR(m1.variance, 0.0, 1e-9);
}

TEST(SavedMoments, HandComputedTwoBuckets) {
  // N=4, M=1, plan {2,2}: exactly one bucket is clean every time, so
  // S = 2 deterministically -> variance 0, and the negative cross-term
  // must exactly cancel the diagonal.
  const ShuffleProblem problem{4, 1, 2};
  const auto m = saved_count_moments(problem, AssignmentPlan({2, 2}));
  EXPECT_NEAR(m.mean, 2.0, 1e-12);
  EXPECT_NEAR(m.variance, 0.0, 1e-12);
}

struct MomentsCase {
  Count n, m;
  std::vector<Count> sizes;
};

// Names each instantiated case after its contents; without it gtest prints
// the raw bytes, which include the vector's heap address and so change from
// run to run.
std::ostream& operator<<(std::ostream& os, const MomentsCase& c) {
  os << "N=" << c.n << " M=" << c.m << " sizes=";
  for (std::size_t i = 0; i < c.sizes.size(); ++i) {
    os << (i == 0 ? "" : ",") << c.sizes[i];
  }
  return os;
}

class SavedMomentsMonteCarlo : public ::testing::TestWithParam<MomentsCase> {};

TEST_P(SavedMomentsMonteCarlo, VarianceMatchesSimulation) {
  const auto& c = GetParam();
  const ShuffleProblem problem{c.n, c.m, static_cast<Count>(c.sizes.size())};
  const AssignmentPlan plan(c.sizes);
  const auto analytic = saved_count_moments(problem, plan);

  util::Rng rng(1234);
  util::Accumulator acc;
  const int reps = 60000;
  for (int r = 0; r < reps; ++r) {
    const auto bots = rng.multivariate_hypergeometric(plan.counts(), c.m);
    double saved = 0.0;
    for (std::size_t i = 0; i < bots.size(); ++i) {
      if (bots[i] == 0) saved += static_cast<double>(plan[i]);
    }
    acc.add(saved);
  }
  EXPECT_NEAR(acc.mean(), analytic.mean, 4.0 * analytic.stddev() /
                                             std::sqrt(static_cast<double>(reps)) +
                                             0.01);
  // Sample variance of the variance: allow generous slack.
  EXPECT_NEAR(acc.variance(), analytic.variance,
              0.05 * analytic.variance + 0.5);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SavedMomentsMonteCarlo,
    ::testing::Values(MomentsCase{40, 6, {10, 10, 10, 10}},
                      MomentsCase{60, 10, {5, 10, 15, 30}},
                      MomentsCase{100, 3, {25, 25, 25, 25}},
                      MomentsCase{30, 15, {1, 1, 1, 27}},
                      MomentsCase{50, 5, {2, 2, 2, 2, 42}}));

TEST(SavedMoments, NegativeAssociationShrinksVariance) {
  // The cross-covariance of clean indicators is negative (bots dodging one
  // replica are more likely to hit another), so the true variance is below
  // the independent-replica sum.
  const ShuffleProblem problem{60, 10, 4};
  const AssignmentPlan plan({15, 15, 15, 15});
  const auto m = saved_count_moments(problem, plan);
  double independent = 0.0;
  for (std::size_t i = 0; i < 4; ++i) {
    const double p = prob_replica_clean(problem, 15);
    independent += 15.0 * 15.0 * p * (1.0 - p);
  }
  EXPECT_LT(m.variance, independent);
  EXPECT_GT(m.variance, 0.0);
}

}  // namespace
}  // namespace shuffledef::core
