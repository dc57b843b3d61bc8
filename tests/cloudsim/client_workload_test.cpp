// Browsing-workload behaviour of the client agent.
#include <gtest/gtest.h>

#include "cloudsim/client_agent.h"
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
    r1 = world.spawn<ReplicaServer>(nic(), "r1", ReplicaConfig{});
    r2 = world.spawn<ReplicaServer>(nic(), "r2", ReplicaConfig{});
    dns->register_load_balancer("svc", lb->id());
    lb->add_replica(r1->id());
  }
  ClientAgent* add_browser(const std::string& ip, double think_s) {
    ClientConfig cc;
    cc.service = "svc";
    cc.ip = ip;
    cc.dns = dns->id();
    cc.browse_think_s = think_s;
    return world.spawn<ClientAgent>(nic(0.02), "browser-" + ip, cc);
  }
  World world;
  DnsServer* dns;
  LoadBalancer* lb;
  ReplicaServer* r1;
  ReplicaServer* r2;
};

TEST(BrowsingClient, ReloadsRepeatedly) {
  Rig rig;
  auto* c = rig.add_browser("1.1.1.1", 1.0);
  ASSERT_TRUE(rig.world.loop().run_until(30.0));
  ASSERT_TRUE(c->connected());
  // ~30s of browsing at ~1s think time: plenty of loads.
  EXPECT_GE(c->stats().page_loads.size(), 10u);
  EXPECT_GT(rig.r1->stats().pages_served, 10u);
  // Timestamps are ordered and self-consistent.
  double prev = -1.0;
  for (const auto& load : c->stats().page_loads) {
    EXPECT_GT(load.duration(), 0.0);
    EXPECT_GE(load.completed_at, prev);
    prev = load.completed_at;
  }
}

TEST(BrowsingClient, NoReloadsWhenThinkTimeZero) {
  Rig rig;
  auto* c = rig.add_browser("1.1.1.2", 0.0);
  ASSERT_TRUE(rig.world.loop().run_until(20.0));
  ASSERT_TRUE(c->connected());
  EXPECT_EQ(c->stats().page_loads.size(), 1u);  // prototype behaviour
}

TEST(BrowsingClient, KeepsBrowsingAcrossAMigration) {
  Rig rig;
  auto* c = rig.add_browser("1.1.1.3", 0.5);
  ASSERT_TRUE(rig.world.loop().run_until(10.0));
  ASSERT_TRUE(c->connected());
  const auto loads_before = c->stats().page_loads.size();

  // Coordinator-style migration r1 -> r2.
  rig.world.loop().schedule_at(10.5, [&] {
    Message wl{rig.lb->id(), rig.r2->id(), MessageType::kWhitelistAdd,
               kControlMessageBytes,
               WhitelistAddPayload{rig.world.intern_ip("1.1.1.3"), c->id()}};
    rig.world.network().send(std::move(wl));
    ShuffleCommandPayload cmd;
    cmd.client_to_replica.emplace_back(c->id(), rig.r2->id());
    Message m{rig.lb->id(), rig.r1->id(), MessageType::kShuffleCommand,
              kControlMessageBytes, cmd};
    rig.world.network().send(std::move(m));
  });
  ASSERT_TRUE(rig.world.loop().run_until(25.0));
  EXPECT_TRUE(c->connected());
  EXPECT_EQ(c->current_replica(), rig.r2->id());
  ASSERT_EQ(c->stats().migrations.size(), 1u);
  // Browsing continued on the new replica.
  EXPECT_GT(c->stats().page_loads.size(), loads_before + 5);
  EXPECT_GT(rig.r2->stats().pages_served, 5u);
}

TEST(HeartbeatClient, DetectsSilentReplicaDeathAndRejoins) {
  Rig rig;
  rig.lb->add_replica(rig.r2->id());
  ClientConfig cc;
  cc.service = "svc";
  cc.ip = "2.2.2.1";
  cc.dns = rig.dns->id();
  cc.heartbeat_s = 1.0;
  cc.request_timeout_s = 1.0;
  auto* c = rig.world.spawn<ClientAgent>(nic(0.02), "hb-client", cc);
  ASSERT_TRUE(rig.world.loop().run_until(5.0));
  ASSERT_TRUE(c->connected());
  const NodeId home = c->current_replica();

  // The replica dies WITHOUT any shuffle command (instance failure).
  rig.world.retire(home);
  ASSERT_TRUE(rig.world.loop().run_until(20.0));

  EXPECT_GE(c->stats().heartbeat_failures, 1);
  EXPECT_TRUE(c->connected());
  EXPECT_NE(c->current_replica(), home);  // recovered onto the survivor
}

TEST(HeartbeatClient, QuietConnectionStaysUpWithoutRejoins) {
  Rig rig;
  ClientConfig cc;
  cc.service = "svc";
  cc.ip = "2.2.2.2";
  cc.dns = rig.dns->id();
  cc.heartbeat_s = 0.5;
  cc.request_timeout_s = 0.5;  // ping cycle = heartbeat + pong wait = 1 s
  auto* c = rig.world.spawn<ClientAgent>(nic(0.02), "hb-quiet", cc);
  ASSERT_TRUE(rig.world.loop().run_until(30.0));
  EXPECT_TRUE(c->connected());
  EXPECT_EQ(c->stats().heartbeat_failures, 0);
  EXPECT_EQ(c->stats().rejoins, 0);
  // Pings actually flowed.
  EXPECT_GT(rig.world.network().stats().delivered, 60u);
}

TEST(HeartbeatClient, SurvivesAPushMigrationWithoutFalseAlarms) {
  Rig rig;
  ClientConfig cc;
  cc.service = "svc";
  cc.ip = "2.2.2.3";
  cc.dns = rig.dns->id();
  cc.heartbeat_s = 0.5;
  auto* c = rig.world.spawn<ClientAgent>(nic(0.02), "hb-migrate", cc);
  ASSERT_TRUE(rig.world.loop().run_until(5.0));
  ASSERT_TRUE(c->connected());
  ASSERT_EQ(c->current_replica(), rig.r1->id());

  rig.world.loop().schedule_at(6.0, [&] {
    Message wl{rig.lb->id(), rig.r2->id(), MessageType::kWhitelistAdd,
               kControlMessageBytes,
               WhitelistAddPayload{rig.world.intern_ip("2.2.2.3"), c->id()}};
    rig.world.network().send(std::move(wl));
    ShuffleCommandPayload cmd;
    cmd.client_to_replica.emplace_back(c->id(), rig.r2->id());
    Message m{rig.lb->id(), rig.r1->id(), MessageType::kShuffleCommand,
              kControlMessageBytes, cmd};
    rig.world.network().send(std::move(m));
  });
  ASSERT_TRUE(rig.world.loop().run_until(30.0));
  EXPECT_TRUE(c->connected());
  EXPECT_EQ(c->current_replica(), rig.r2->id());
  // The push-based migration must not be misread as a dead WebSocket.
  EXPECT_EQ(c->stats().heartbeat_failures, 0);
  EXPECT_EQ(c->stats().rejoins, 0);
}

TEST(BrowsingClient, TimeoutsAreTimestamped) {
  Rig rig;
  ClientConfig cc;
  cc.service = "nonexistent";
  cc.ip = "1.1.1.4";
  cc.dns = rig.dns->id();
  cc.request_timeout_s = 0.5;
  auto* c = rig.world.spawn<ClientAgent>(nic(), "lost", cc);
  ASSERT_TRUE(rig.world.loop().run_until(5.0));
  EXPECT_FALSE(c->connected());
  ASSERT_GT(c->stats().timeout_at.size(), 0u);
  EXPECT_EQ(static_cast<int>(c->stats().timeout_at.size()),
            c->stats().timeouts);
  for (const double t : c->stats().timeout_at) {
    EXPECT_GE(t, 0.5);
    EXPECT_LE(t, 5.0);
  }
}

}  // namespace
}  // namespace shuffledef::cloudsim
