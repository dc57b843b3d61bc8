// Flat-engine equivalence and delivery golden digests.
//
// The ClientSwarm (SoA columns) is a performance engine, not a new model: a
// quiet world must produce exactly the same aggregate outcomes as the
// per-object ClientAgent engine.
//
// The network once carried three delivery engines — an eager two-closure
// path, a pooled arena with one closure per arrival and per delivery, and
// the per-lane walkers — each tested live against the others.  Only the
// walkers remain; the retired engines' behaviour is frozen here as digests
// of their network traces, recorded from the last build that still had
// them, and the walkers must reproduce each one.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <tuple>

#include "cloudsim/scenario.h"

namespace shuffledef::cloudsim {
namespace {

ScenarioConfig quiet_world(std::uint64_t seed = 21) {
  ScenarioConfig cfg;
  cfg.seed = seed;
  cfg.domains = 2;
  cfg.initial_replicas = 2;
  cfg.clients = 12;
  cfg.client_start_spread_s = 0.5;
  cfg.boot_delay_s = 0.2;
  return cfg;
}

ScenarioConfig attacked_world(std::uint64_t seed = 22) {
  auto cfg = quiet_world(seed);
  cfg.clients = 20;
  cfg.persistent_bots = 2;
  cfg.bot_junk_rate_pps = 400.0;
  cfg.client_heartbeat_s = 0.5;
  cfg.coordinator.controller.replicas = 6;
  cfg.replica.detect_window_s = 0.25;
  cfg.replica.junk_rate_threshold = 100.0;
  return cfg;
}

void expect_identical_traces(Scenario& a, Scenario& b) {
  const auto& ta = a.world().network().trace();
  const auto& tb = b.world().network().trace();
  ASSERT_FALSE(ta.empty());
  ASSERT_EQ(ta.size(), tb.size());
  for (std::size_t i = 0; i < ta.size(); ++i) {
    ASSERT_EQ(ta[i], tb[i]) << "trace diverges at event " << i;
  }
}

/// Deliveries only, in a canonical order.  Drop fates are sealed lazily by
/// the walkers, so drop entries sit at other log positions than under an
/// eager engine (same timestamps), and a tail arrival can still be pending
/// at the horizon where an eager engine already dropped it — but every
/// *delivery* happens at the identical instant with identical bytes.
std::vector<NetTraceEvent> delivered_sorted(Scenario& s) {
  std::vector<NetTraceEvent> out;
  for (const auto& ev : s.world().network().trace()) {
    if (ev.outcome == NetTraceEvent::Outcome::kDelivered) out.push_back(ev);
  }
  std::sort(out.begin(), out.end(), [](const NetTraceEvent& a,
                                       const NetTraceEvent& b) {
    return std::tie(a.time, a.src, a.dst, a.size_bytes) <
           std::tie(b.time, b.src, b.dst, b.size_bytes);
  });
  return out;
}

/// FNV-1a over every field of every event, in order (the time by its bits).
std::uint64_t digest(const std::vector<NetTraceEvent>& events) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  };
  for (const auto& ev : events) {
    mix(std::bit_cast<std::uint64_t>(ev.time));
    mix(static_cast<std::uint64_t>(ev.src));
    mix(static_cast<std::uint64_t>(ev.dst));
    mix(static_cast<std::uint64_t>(ev.type));
    mix(static_cast<std::uint64_t>(ev.size_bytes));
    mix(static_cast<std::uint64_t>(ev.outcome));
  }
  return h;
}

/// A recorded network trace: its length and digest.
struct Golden {
  std::size_t events;
  std::uint64_t digest;
};

void expect_golden(const std::vector<NetTraceEvent>& events,
                   const Golden& golden) {
  EXPECT_EQ(events.size(), golden.events);
  EXPECT_EQ(digest(events), golden.digest);
}

TEST(SwarmEquivalence, QuietWorldMatchesPerObjectAggregates) {
  auto cfg = quiet_world();

  cfg.client_engine = ClientEngine::kPerObject;
  Scenario ref(cfg);
  ASSERT_TRUE(ref.run_until(10.0));

  cfg.client_engine = ClientEngine::kFlat;
  Scenario flat(cfg);
  ASSERT_TRUE(flat.run_until(10.0));

  // Everyone joins under both engines, with the same page count (browse
  // think time 0 = exactly one page per member).
  EXPECT_EQ(ref.clients_connected(), 12);
  EXPECT_EQ(flat.clients_connected(), 12);
  std::int64_t ref_pages = 0;
  for (const auto* c : ref.clients()) {
    ref_pages += static_cast<std::int64_t>(c->stats().page_loads.size());
  }
  ASSERT_NE(flat.swarm(), nullptr);
  EXPECT_EQ(flat.swarm()->stats().page_loads, ref_pages);
  EXPECT_EQ(flat.swarm()->stats().timeouts, 0);
  EXPECT_EQ(flat.swarm()->stats().rejoins, 0);
  EXPECT_TRUE(ref.world().network().stats().conserved());
  EXPECT_TRUE(flat.world().network().stats().conserved());
}

TEST(SwarmEquivalence, FlatEngineDefendsLikeThePerObjectEngine) {
  // Under attack the engines' message interleavings differ (quantized
  // timers, batched whitelists), so the comparison is behavioural: the
  // defense detects, shuffles, isolates, and keeps everyone served.
  auto cfg = attacked_world();

  cfg.client_engine = ClientEngine::kPerObject;
  Scenario ref(cfg);
  ASSERT_TRUE(ref.run_until(60.0));

  cfg.client_engine = ClientEngine::kFlat;
  Scenario flat(cfg);
  ASSERT_TRUE(flat.run_until(60.0));

  for (Scenario* s : {&ref, &flat}) {
    EXPECT_GT(s->coordinator()->stats().attack_reports, 0);
    EXPECT_GT(s->coordinator()->stats().rounds_executed, 0);
    EXPECT_LE(s->replicas_hosting_bots(), 2);
    EXPECT_GE(s->benign_clients_isolated_from_bots(), 15);
    EXPECT_GE(s->clients_connected(), 18);
    EXPECT_TRUE(s->world().network().stats().conserved());
  }
  // The flat engine's aggregate stats actually moved.
  const auto& st = flat.swarm()->stats();
  EXPECT_GT(st.page_loads, 0);
  EXPECT_GT(st.migrations_completed, 0);
  EXPECT_GT(st.junk_sent, 0);
}

TEST(SwarmEquivalence, BatchDeliveryIsTraceInvisible) {
  // Golden: the flat engine's deliveries at seed 23 with one scheduled
  // closure per arrival and per delivery (the retired unbatched arena
  // path).  The walkers must land every delivery — shuffle pushes,
  // whitelist batches, page traffic under a junk flood — at the identical
  // instant.
  constexpr Golden kUnbatchedDeliveries{15068, 0x774c101aee9ebd7bull};
  auto cfg = attacked_world(23);
  cfg.client_engine = ClientEngine::kFlat;
  cfg.record_net_trace = true;
  Scenario batched(cfg);
  ASSERT_TRUE(batched.run_until(30.0));
  EXPECT_GT(batched.coordinator()->stats().clients_migrated, 0);
  EXPECT_TRUE(batched.world().network().stats().conserved());
  expect_golden(delivered_sorted(batched), kUnbatchedDeliveries);
}

TEST(SwarmEquivalence, PooledArenaIsTraceInvisible) {
  // Golden: the full trace — deliveries, drops and their log positions —
  // of the per-object engine on the walkers at seed 24.  Both engines this
  // test once compared (eager closures, and the arena with one closure per
  // arrival and delivery) are retired, so the surviving configuration's
  // whole trace is pinned instead.
  constexpr Golden kWalkerTrace{15560, 0x6aa7208403eedb71ull};
  auto cfg = attacked_world(24);
  cfg.client_engine = ClientEngine::kPerObject;
  cfg.record_net_trace = true;
  Scenario walkers(cfg);
  ASSERT_TRUE(walkers.run_until(30.0));
  EXPECT_TRUE(walkers.world().network().stats().conserved());
  EXPECT_EQ(walkers.world().network().stats().delivered, 13502u);
  expect_golden(walkers.world().network().trace(), kWalkerTrace);
}

TEST(SwarmEquivalence, LaneWalkersDeliverLikeTheLegacyEngine) {
  // Golden: the retired eager two-closure engine's deliveries at seed 26.
  // Drop bookkeeping is lazy under the walkers, but the deliveries
  // themselves are the model — identical instants, identical bytes.
  constexpr Golden kLegacyDeliveries{13837, 0xf9b5b0b1b732d98bull};
  auto cfg = attacked_world(26);
  cfg.client_engine = ClientEngine::kPerObject;
  cfg.record_net_trace = true;
  Scenario walkers(cfg);
  ASSERT_TRUE(walkers.run_until(30.0));
  EXPECT_TRUE(walkers.world().network().stats().conserved());
  EXPECT_EQ(walkers.world().network().stats().bytes_delivered, 37819472);
  expect_golden(delivered_sorted(walkers), kLegacyDeliveries);
}

TEST(SwarmEquivalence, FlatEngineReplaysBitIdenticallyUnderFaults) {
  auto cfg = attacked_world(25);
  cfg.client_engine = ClientEngine::kFlat;
  cfg.record_net_trace = true;
  cfg.faults.data_loss_prob = 0.02;
  cfg.faults.ctrl_loss_prob = 0.05;
  cfg.faults.ctrl_dup_prob = 0.02;
  cfg.faults.replica_crash_times_s = {8.0};

  Scenario a(cfg);
  Scenario b(cfg);
  ASSERT_TRUE(a.run_until(25.0));
  ASSERT_TRUE(b.run_until(25.0));
  EXPECT_GT(a.fault_stats().drops_ctrl + a.fault_stats().drops_data, 0u);
  EXPECT_EQ(a.fault_stats().crashes_executed, 1u);
  expect_identical_traces(a, b);
  EXPECT_EQ(a.swarm()->stats().page_loads, b.swarm()->stats().page_loads);
  EXPECT_EQ(a.swarm()->stats().rejoins, b.swarm()->stats().rejoins);
}

}  // namespace
}  // namespace shuffledef::cloudsim
