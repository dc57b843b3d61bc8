// Botnet mechanics: botmaster hit lists, naive-bot retargeting, persistent
// bots acting as whitelisted insiders.
#include <gtest/gtest.h>

#include "cloudsim/botnet.h"
#include "cloudsim/dns_server.h"
#include "cloudsim/load_balancer.h"
#include "cloudsim/replica_server.h"

namespace shuffledef::cloudsim {
namespace {

NicConfig nic(double latency = 0.005) {
  return NicConfig{.egress_bps = 1e9, .ingress_bps = 1e9,
                   .base_latency_s = latency, .domain = 0};
}

struct Rig {
  Rig() {
    dns = world.spawn<DnsServer>(nic(), "dns");
    lb = world.spawn<LoadBalancer>(nic(), "lb");
    replica = world.spawn<ReplicaServer>(nic(), "r1", ReplicaConfig{});
    dns->register_load_balancer("svc", lb->id());
    lb->add_replica(replica->id());
    botmaster = world.spawn<Botmaster>(nic(), "botmaster", BotmasterConfig{});
  }
  PersistentBot* add_pbot(const std::string& ip, double junk_pps) {
    PersistentBotConfig pc;
    pc.client.service = "svc";
    pc.client.ip = ip;
    pc.client.dns = dns->id();
    pc.botmaster = botmaster->id();
    pc.junk_rate_pps = junk_pps;
    return world.spawn<PersistentBot>(nic(0.02), "pbot-" + ip, pc);
  }
  World world;
  DnsServer* dns;
  LoadBalancer* lb;
  ReplicaServer* replica;
  Botmaster* botmaster;
};

TEST(Botnet, PersistentBotJoinsLikeAClientAndIsWhitelisted) {
  Rig rig;
  auto* bot = rig.add_pbot("66.1.1.1", 0.0);
  ASSERT_TRUE(rig.world.loop().run_until(5.0));
  EXPECT_TRUE(bot->connected());
  EXPECT_EQ(bot->current_replica(), rig.replica->id());
  const auto clients = rig.replica->connected_clients();
  ASSERT_EQ(clients.size(), 1u);  // indistinguishable from a benign client
  EXPECT_EQ(rig.world.interned_name(clients[0].first), "66.1.1.1");
}

TEST(Botnet, PersistentBotFloodsItsReplica) {
  Rig rig;
  auto* bot = rig.add_pbot("66.1.1.2", 500.0);
  ASSERT_TRUE(rig.world.loop().run_until(5.0));
  EXPECT_GT(bot->junk_sent(), 500u);
  EXPECT_GT(rig.replica->stats().junk_received, 500u);
}

TEST(Botnet, BotmasterBuildsHitListFromScoutReports) {
  Rig rig;
  rig.add_pbot("66.1.1.3", 0.0);
  ASSERT_TRUE(rig.world.loop().run_until(5.0));
  EXPECT_TRUE(rig.botmaster->hit_list().contains(rig.replica->id()));
}

TEST(Botnet, NaiveBotsFloodOnlyCommandedTargets) {
  Rig rig;
  auto* naive = rig.world.spawn<NaiveBot>(nic(), "nbot",
                                          NaiveBotConfig{.junk_rate_pps = 300});
  rig.botmaster->add_naive_bot(naive->id());
  ASSERT_TRUE(rig.world.loop().run_until(2.0));
  EXPECT_EQ(naive->junk_sent(), 0u);  // no hit list yet

  rig.add_pbot("66.1.1.4", 0.0);  // the scout reports the replica
  ASSERT_TRUE(rig.world.loop().run_until(8.0));
  EXPECT_GT(naive->junk_sent(), 100u);
  EXPECT_GT(rig.replica->stats().junk_received, 100u);
}

TEST(Botnet, NaiveBotsKeepShootingAtRecycledInstances) {
  Rig rig;
  auto* naive = rig.world.spawn<NaiveBot>(nic(), "nbot",
                                          NaiveBotConfig{.junk_rate_pps = 300});
  rig.botmaster->add_naive_bot(naive->id());
  rig.add_pbot("66.1.1.5", 0.0);
  ASSERT_TRUE(rig.world.loop().run_until(5.0));
  const auto junk_before = rig.replica->stats().junk_received;
  EXPECT_GT(junk_before, 0u);

  // The defense replaces the replica; the naive bots never learn.
  rig.world.retire(rig.replica->id());
  ASSERT_TRUE(rig.world.loop().run_until(10.0));
  EXPECT_GT(naive->junk_sent(), 1000u);
  EXPECT_EQ(rig.replica->stats().junk_received, junk_before);
  EXPECT_GT(rig.world.network().stats().dropped_detached, 500u);
}

TEST(Botnet, HeavyRequestBotBurnsServerCpu) {
  Rig rig;
  PersistentBotConfig pc;
  pc.client.service = "svc";
  pc.client.ip = "66.1.1.6";
  pc.client.dns = rig.dns->id();
  pc.botmaster = rig.botmaster->id();
  pc.heavy_interval_s = 0.05;
  pc.heavy_cpu_seconds = 0.2;
  auto* bot = rig.world.spawn<PersistentBot>(nic(0.02), "heavy-bot", pc);
  ASSERT_TRUE(rig.world.loop().run_until(6.0));
  EXPECT_GT(bot->heavy_sent(), 20u);
  // 4 CPU-seconds of work arrive per wall second: backlog builds, shedding
  // eventually kicks in.
  EXPECT_GT(rig.replica->cpu_backlog_s() +
                static_cast<double>(rig.replica->stats().shed_cpu_overload),
            0.5);
}

TEST(Botnet, DetectionTickReportsFloodToCoordinator) {
  // A stub coordinator that records reports.
  struct StubCoordinator final : Node {
    using Node::Node;
    int reports = 0;
    void on_message(const Message& msg) override {
      if (msg.type == MessageType::kAttackReport) ++reports;
    }
  };
  Rig rig;
  auto* coord = rig.world.spawn<StubCoordinator>(nic(), "stub-coord");
  ReplicaConfig rc;
  rc.detect_window_s = 0.2;
  rc.junk_rate_threshold = 100.0;
  auto* watched =
      rig.world.spawn<ReplicaServer>(nic(), "watched", rc, coord->id());
  rig.lb->add_replica(watched->id());
  // Flood it directly.
  for (int i = 0; i < 200; ++i) {
    rig.world.loop().schedule_at(
        1.0 + i * 0.001, [&rig, watched, coord] {
          Message junk{coord->id(), watched->id(), MessageType::kJunkPacket,
                       kJunkPacketBytes, {}};
          rig.world.network().send(std::move(junk));
        });
  }
  ASSERT_TRUE(rig.world.loop().run_until(3.0));
  EXPECT_EQ(coord->reports, 1);  // reported once, not spammed
}

}  // namespace
}  // namespace shuffledef::cloudsim
