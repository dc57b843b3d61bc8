// PlannerCache: LRU eviction, exact keys, and controller decisions that are
// identical with and without the cache.
#include "core/planner_cache.h"

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "core/shuffle_controller.h"
#include "util/random.h"

namespace shuffledef::core {
namespace {

TEST(PlannerCache, EvictsLeastRecentlyUsed) {
  PlannerCache cache(2);
  const PlannerCacheKey a{"greedy", {10, 2, 3}};
  const PlannerCacheKey b{"greedy", {20, 4, 5}};
  const PlannerCacheKey c{"greedy", {30, 6, 7}};
  const AssignmentPlan plan_a({4, 3, 3});
  const AssignmentPlan plan_b({5, 5, 5, 5, 0});
  const AssignmentPlan plan_c({6, 6, 6, 6, 2, 2, 2});
  cache.put_plan(a, plan_a);
  cache.put_plan(b, plan_b);
  EXPECT_EQ(cache.get_plan(a)->counts(), plan_a.counts());  // a now MRU
  cache.put_plan(c, plan_c);                                 // evicts b
  EXPECT_EQ(cache.get_plan(a)->counts(), plan_a.counts());
  EXPECT_FALSE(cache.get_plan(b).has_value());
  EXPECT_EQ(cache.get_plan(c)->counts(), plan_c.counts());
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.hits(), 3u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(PlannerCache, DistinguishesPlannerKindAndOptions) {
  // A planner's name is its whole configuration: entries for another
  // planner kind, or for another (N, M, P), never alias.
  PlannerCache cache(8);
  const ShuffleProblem problem{10, 2, 3};
  cache.put_plan({"greedy", problem}, AssignmentPlan({4, 3, 3}));
  EXPECT_FALSE(cache.get_plan({"dp", problem}).has_value());
  EXPECT_FALSE(cache.get_plan({"greedy", {10, 2, 4}}).has_value());
  EXPECT_FALSE(cache.get_plan({"greedy", {10, 3, 3}}).has_value());
  ASSERT_TRUE(cache.get_plan({"greedy", problem}).has_value());
  // Re-putting a key replaces its plan instead of adding an entry.
  cache.put_plan({"greedy", problem}, AssignmentPlan({10, 0, 0}));
  EXPECT_EQ(cache.get_plan({"greedy", problem})->counts(),
            (std::vector<Count>{10, 0, 0}));
  EXPECT_EQ(cache.size(), 1u);
}

// A fresh controller per decision sequence, with and without the cache:
// the decisions must match exactly, round for round.
TEST(PlannerCache, CachedControllerDecisionsMatchUncached) {
  util::Rng rng(99);
  for (const char* planner : {"greedy", "even", "dp"}) {
    ControllerConfig cached_cfg;
    cached_cfg.planner = planner;
    cached_cfg.replicas = 6;
    cached_cfg.use_mle = false;
    cached_cfg.planner_cache_capacity = 16;
    ControllerConfig uncached_cfg = cached_cfg;
    uncached_cfg.planner_cache_capacity = 0;

    ShuffleController cached(cached_cfg);
    ShuffleController uncached(uncached_cfg);
    ASSERT_EQ(uncached.planner_cache(), nullptr);

    for (int round = 0; round < 30; ++round) {
      // A handful of distinct pool sizes so the cache actually gets hits.
      const Count pool = 40 + 10 * static_cast<Count>(rng.uniform_int(0, 3));
      const Count bots = pool / 5;
      cached.set_bot_estimate(bots);
      uncached.set_bot_estimate(bots);
      const auto a = cached.decide(pool, std::nullopt);
      const auto b = uncached.decide(pool, std::nullopt);
      EXPECT_EQ(a.plan.counts(), b.plan.counts()) << planner;
      EXPECT_EQ(a.bot_estimate, b.bot_estimate);
      EXPECT_EQ(a.replicas, b.replicas);
    }
    ASSERT_NE(cached.planner_cache(), nullptr);
    EXPECT_GT(cached.planner_cache()->hits(), 0u);
  }
}

}  // namespace
}  // namespace shuffledef::core
