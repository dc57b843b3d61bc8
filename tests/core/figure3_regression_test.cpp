// Golden-value regression pins for the Figure-3 grid.
//
// These exact expected-savings values were produced by the verified
// implementation (greedy within 1.5% of the separable-DP optimum across
// the grid, both cross-checked against brute force and Monte Carlo at
// small scale).  They are deterministic — any drift in the planners or
// the probability kernel shows up here first.
//
// The Algorithm-1 table pins the Figure-3 inset (N = 80) bit for bit: the
// values are the plain uncut recurrence's, as hex floats, so any change to
// the solver's arithmetic fails here, not just a change to its result.
#include <gtest/gtest.h>

#include <vector>

#include "core/algorithm_one.h"
#include "core/greedy_planner.h"
#include "core/plan.h"
#include "core/separable_dp.h"

namespace shuffledef::core {
namespace {

struct GoldenCase {
  Count replicas;
  Count bots;
  double dp_percent;      // optimal % of benign saved, one shuffle
  double greedy_percent;  // greedy % of benign saved, one shuffle
};

// N = 1000 clients throughout (the paper's Figure-3 setup).
constexpr GoldenCase kGolden[] = {
    {50, 50, 37.35, 37.35},    {50, 200, 10.02, 10.02},
    {50, 500, 4.90, 4.90},     {100, 100, 38.55, 38.55},
    {100, 300, 14.53, 14.53},  {150, 50, 74.59, 73.59},
    {150, 200, 30.47, 30.47},  {200, 50, 81.41, 81.41},
    {200, 300, 29.22, 29.22},  {200, 500, 19.90, 19.90},
};

class Figure3Golden : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(Figure3Golden, DpValueMatches) {
  const auto& c = GetParam();
  const ShuffleProblem problem{1000, c.bots, c.replicas};
  const double pct = 100.0 * SeparableDpPlanner().value(problem) /
                     static_cast<double>(problem.benign());
  EXPECT_NEAR(pct, c.dp_percent, 0.02)
      << "P=" << c.replicas << " M=" << c.bots;
}

TEST_P(Figure3Golden, GreedyValueMatches) {
  const auto& c = GetParam();
  const ShuffleProblem problem{1000, c.bots, c.replicas};
  const double pct =
      100.0 *
      expected_saved(problem, GreedyPlanner().plan(problem)) /
      static_cast<double>(problem.benign());
  EXPECT_NEAR(pct, c.greedy_percent, 0.02)
      << "P=" << c.replicas << " M=" << c.bots;
}

INSTANTIATE_TEST_SUITE_P(Grid, Figure3Golden, ::testing::ValuesIn(kGolden));

struct AlgorithmOneGolden {
  Count replicas;
  Count bots;
  double value;  // S(80, bots, replicas)
};

constexpr AlgorithmOneGolden kAlgorithmOneInset[] = {
    {4, 4, 0x1.8bda6f4a74286p+4},   {4, 8, 0x1.41fd1811a79dap+3},
    {4, 16, 0x1.381b35d967124p+2},  {4, 24, 0x1.8f36376027804p+1},
    {4, 32, 0x1.19f42f537ac54p+1},  {4, 40, 0x1.96f72bb12f0b2p+0},
    {8, 4, 0x1.73110cfa6c0dcp+5},   {8, 8, 0x1.a3bf42155a04p+4},
    {8, 16, 0x1.6c5bc33c2deddp+3},  {8, 24, 0x1.ce37dff60d9ddp+2},
    {8, 32, 0x1.4694906366d23p+2},  {8, 40, 0x1.d96a131f0f125p+1},
    {16, 4, 0x1.ebd8e3d0d0df2p+5},  {16, 8, 0x1.7492bb09c9a3ap+5},
    {16, 16, 0x1.9a25c454a5ae6p+4}, {16, 24, 0x1.ec2b95990ca7ep+3},
    {16, 32, 0x1.5ac4c305726d9p+3}, {16, 40, 0x1.f4dd81e428e2ap+2},
};

TEST(Figure3InsetGolden, AlgorithmOneValuesAreBitExact) {
  const AlgorithmOnePlanner alg1;
  for (const auto& c : kAlgorithmOneInset) {
    EXPECT_EQ(alg1.value({80, c.bots, c.replicas}), c.value)
        << "P=" << c.replicas << " M=" << c.bots;
  }
}

TEST(Figure3InsetGolden, AlgorithmOnePlansAreExact) {
  const AlgorithmOnePlanner alg1;
  EXPECT_EQ(alg1.plan({80, 4, 4}).counts(),
            (std::vector<Count>{20, 20, 20, 20}));
  EXPECT_EQ(alg1.plan({80, 16, 8}).counts(),
            (std::vector<Count>{4, 4, 4, 48, 5, 5, 5, 5}));
  EXPECT_EQ(alg1.plan({80, 40, 16}).counts(),
            (std::vector<Count>{50, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2,
                                2}));
}

}  // namespace
}  // namespace shuffledef::core
