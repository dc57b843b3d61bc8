#include "cloudsim/event_loop.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <random>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "obs/registry.h"

namespace shuffledef::cloudsim {
namespace {

TEST(EventLoop, ExecutesInTimeOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.schedule_at(3.0, [&] { order.push_back(3); });
  loop.schedule_at(1.0, [&] { order.push_back(1); });
  loop.schedule_at(2.0, [&] { order.push_back(2); });
  EXPECT_TRUE(loop.run());
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.processed(), 3u);
}

TEST(EventLoop, SameTimeFiresInScheduleOrder) {
  EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    loop.schedule_at(1.0, [&, i] { order.push_back(i); });
  }
  ASSERT_TRUE(loop.run());
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventLoop, NowAdvancesWithEvents) {
  EventLoop loop;
  double seen = -1.0;
  loop.schedule_at(5.5, [&] { seen = loop.now(); });
  ASSERT_TRUE(loop.run());
  EXPECT_DOUBLE_EQ(seen, 5.5);
  EXPECT_DOUBLE_EQ(loop.now(), 5.5);
}

TEST(EventLoop, RunUntilStopsAtBoundaryAndAdvancesClock) {
  EventLoop loop;
  int fired = 0;
  loop.schedule_at(1.0, [&] { ++fired; });
  loop.schedule_at(10.0, [&] { ++fired; });
  EXPECT_TRUE(loop.run_until(5.0));
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(loop.now(), 5.0);
  EXPECT_FALSE(loop.empty());
  ASSERT_TRUE(loop.run_until(10.0));
  EXPECT_EQ(fired, 2);
}

TEST(EventLoop, EventsCanScheduleEvents) {
  EventLoop loop;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) loop.schedule_after(1.0, recurse);
  };
  loop.schedule_after(0.0, recurse);
  ASSERT_TRUE(loop.run());
  EXPECT_EQ(depth, 5);
  EXPECT_DOUBLE_EQ(loop.now(), 4.0);
}

TEST(EventLoop, RejectsPastAndNegative) {
  EventLoop loop;
  loop.schedule_at(2.0, [] {});
  ASSERT_TRUE(loop.run());
  EXPECT_THROW(loop.schedule_at(1.0, [] {}), std::invalid_argument);
  EXPECT_THROW(loop.schedule_after(-0.1, [] {}), std::invalid_argument);
}

TEST(EventLoop, RejectsNonFiniteTimes) {
  // Regression: NaN compares false against `now_`, so NaN/Inf times used to
  // slip past the past-time guard and corrupt the heap ordering.
  EventLoop loop;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(loop.schedule_at(nan, [] {}), std::invalid_argument);
  EXPECT_THROW(loop.schedule_at(inf, [] {}), std::invalid_argument);
  EXPECT_THROW(loop.schedule_at(-inf, [] {}), std::invalid_argument);
  EXPECT_THROW(loop.schedule_after(nan, [] {}), std::invalid_argument);
  EXPECT_THROW(loop.schedule_after(inf, [] {}), std::invalid_argument);
  EXPECT_THROW(loop.schedule_after(-inf, [] {}), std::invalid_argument);
  // The queue stayed clean and ordered after the rejected schedules.
  std::vector<int> order;
  loop.schedule_at(2.0, [&] { order.push_back(2); });
  loop.schedule_at(1.0, [&] { order.push_back(1); });
  EXPECT_TRUE(loop.run());
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventLoop, BudgetStopsRunaway) {
  EventLoop loop;
  loop.set_event_budget(100);
  std::function<void()> forever = [&] { loop.schedule_after(0.1, forever); };
  loop.schedule_after(0.0, forever);
  EXPECT_FALSE(loop.run());
  EXPECT_EQ(loop.processed(), 100u);
}

// ---- one heap for closures and POD events ----------------------------------

/// Drives a randomized mix of closures and POD events, many at equal
/// times, some scheduled from inside running events, and records the
/// (time, schedule index) of every firing.
struct Interleaving {
  EventLoop loop;
  std::mt19937_64 rng;
  std::uint16_t kind = 0;
  std::uint64_t next_id = 0;
  std::vector<std::pair<SimTime, std::uint64_t>> scheduled;
  std::vector<std::pair<SimTime, std::uint64_t>> fired;

  explicit Interleaving(std::uint64_t seed) : rng(seed) {
    kind = loop.register_pod_handler(
        [](void* ctx, std::uint32_t id, std::uint32_t check) {
          auto* self = static_cast<Interleaving*>(ctx);
          EXPECT_EQ(check, id ^ 0x5a5a5a5au);  // both words arrive intact
          self->on_fire(id);
        },
        this);
  }

  void schedule_one() {
    // Few distinct offsets, so equal times (and seq tie-breaks) abound.
    const SimTime t = loop.now() + 0.5 * static_cast<double>(rng() % 4);
    const auto id = next_id++;
    scheduled.emplace_back(t, id);
    if (rng() % 2 == 0) {
      loop.schedule_at(t, [this, id] { on_fire(id); });
    } else {
      const auto a = static_cast<std::uint32_t>(id);
      loop.schedule_pod_at(t, kind, a, a ^ 0x5a5a5a5au);
    }
  }

  void on_fire(std::uint64_t id) {
    fired.emplace_back(loop.now(), id);
    // Spawn children while running, until the population is large.
    if (next_id < 4000) {
      const auto children = rng() % 3;
      for (std::uint64_t c = 0; c < children; ++c) schedule_one();
    }
  }
};

TEST(EventLoop, MixedFlavoursPopInStrictTimeSeqOrder) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Interleaving w(seed);
    for (int i = 0; i < 300; ++i) w.schedule_one();
    ASSERT_TRUE(w.loop.run());
    // Reference model: every event ever scheduled, sorted by (time, seq).
    // Events scheduled while running get a later seq and a time >= now, so
    // the sorted list is exactly the order they must fire in.
    auto expected = w.scheduled;
    std::sort(expected.begin(), expected.end());
    ASSERT_GT(expected.size(), 1000u) << "seed " << seed;
    EXPECT_EQ(w.fired, expected) << "seed " << seed;
    EXPECT_EQ(w.loop.processed(), expected.size());
    EXPECT_TRUE(w.loop.empty());
  }
}

TEST(EventLoop, ClosureMayScheduleClosuresWhileTheSlabGrows) {
  // The running closure's slot is freed before it runs, so its first child
  // reuses that slot and the rest grow the slab; the running closure's own
  // captures must survive both.
  EventLoop loop;
  std::vector<int> order;
  auto payload = std::make_shared<std::vector<int>>(1000, 7);
  loop.schedule_at(1.0, [&loop, &order, payload] {
    for (int i = 0; i < 500; ++i) {
      loop.schedule_at(1.0, [&order, i] { order.push_back(i); });
    }
    ASSERT_EQ(payload->size(), 1000u);
    EXPECT_TRUE(std::all_of(payload->begin(), payload->end(),
                            [](int v) { return v == 7; }));
    order.push_back(-1);
  });
  ASSERT_TRUE(loop.run());
  ASSERT_EQ(order.size(), 501u);
  EXPECT_EQ(order.front(), -1);
  for (int i = 0; i < 500; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i) + 1], i);
  }
}

TEST(EventLoop, FiredClosuresReleaseTheirCapturesAndSlots) {
  EventLoop loop;
  auto token = std::make_shared<int>(0);
  long seen = 0;
  // Many short generations: each fired closure frees its slot for the next
  // generation, and its captures die with it.
  for (int round = 0; round < 100; ++round) {
    for (int i = 0; i < 8; ++i) {
      loop.schedule_after(0.0, [token, &seen] { seen += *token + 1; });
    }
    EXPECT_EQ(token.use_count(), 9);
    ASSERT_TRUE(loop.run());
    EXPECT_EQ(token.use_count(), 1) << "round " << round;
  }
  EXPECT_EQ(seen, 800);
  EXPECT_EQ(loop.processed(), 800u);
}

TEST(EventLoop, BudgetCountsBothFlavours) {
  EventLoop loop;
  obs::Registry registry;
  loop.set_registry(&registry);
  int pods = 0;
  const auto kind = loop.register_pod_handler(
      [](void* ctx, std::uint32_t, std::uint32_t) { ++*static_cast<int*>(ctx); },
      &pods);
  int closures = 0;
  for (int i = 0; i < 6; ++i) {
    loop.schedule_at(1.0, [&closures] { ++closures; });
    loop.schedule_pod_at(1.0, kind, 0, 0);
  }
  loop.set_event_budget(10);
  EXPECT_FALSE(loop.run());
  EXPECT_EQ(loop.processed(), 10u);
  EXPECT_EQ(closures + pods, 10);
  EXPECT_EQ(closures, 5);  // schedule order alternates the two flavours
  EXPECT_FALSE(loop.run_until(2.0));
  loop.set_event_budget(12);
  EXPECT_TRUE(loop.run());
  EXPECT_EQ(closures, 6);
  EXPECT_EQ(pods, 6);
  EXPECT_EQ(registry.snapshot().counter(kMetricLoopEventsDispatched), 12u);
}

TEST(EventLoop, PodKindsStopShortOfTheReservedClosureKind) {
  EventLoop loop;
  const EventLoop::PodHandler noop = [](void*, std::uint32_t, std::uint32_t) {};
  std::uint16_t last = 0;
  for (int i = 0; i < 0xFFFF; ++i) last = loop.register_pod_handler(noop, nullptr);
  EXPECT_EQ(last, 0xFFFE);
  EXPECT_THROW(loop.register_pod_handler(noop, nullptr), std::length_error);
  EXPECT_THROW(loop.schedule_pod_at(1.0, 0xFFFF, 0, 0), std::invalid_argument);
}

}  // namespace
}  // namespace shuffledef::cloudsim
