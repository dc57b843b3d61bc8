// IP spoofing and reconnaissance resistance (paper §VII).
#include <gtest/gtest.h>

#include "cloudsim/client_agent.h"
#include "cloudsim/dns_server.h"
#include "cloudsim/load_balancer.h"
#include "cloudsim/node.h"
#include "cloudsim/replica_server.h"

namespace shuffledef::cloudsim {
namespace {

NicConfig nic(double latency = 0.005) {
  return NicConfig{.egress_bps = 1e9, .ingress_bps = 1e9,
                   .base_latency_s = latency, .domain = 0};
}

/// A bot that contacts the load balancer claiming someone else's (or a
/// nonexistent) IP, hoping to learn a replica address.
class SpoofingBot final : public Node {
 public:
  SpoofingBot(World& world, std::string name, NodeId lb, std::string claimed)
      : Node(world, std::move(name)), lb_(lb), claimed_(std::move(claimed)) {}

  void on_start() override {
    send(lb_, MessageType::kClientHello, kHttpRequestBytes,
         ClientHelloPayload{world().intern_ip(claimed_)});
  }
  void on_message(const Message& msg) override {
    if (msg.type == MessageType::kRedirect) {
      learned_replica_ = payload_as<RedirectPayload>(msg).target_replica;
    }
  }

  [[nodiscard]] NodeId learned_replica() const { return learned_replica_; }

 private:
  NodeId lb_;
  std::string claimed_;
  NodeId learned_replica_ = kInvalidNode;
};

struct Rig {
  Rig() {
    dns = world.spawn<DnsServer>(nic(), "dns");
    lb = world.spawn<LoadBalancer>(nic(), "lb");
    replica = world.spawn<ReplicaServer>(nic(), "r1", ReplicaConfig{});
    dns->register_load_balancer("svc", lb->id());
    lb->add_replica(replica->id());
  }
  World world;
  DnsServer* dns;
  LoadBalancer* lb;
  ReplicaServer* replica;
};

TEST(Spoofing, UnroutableClaimedIpIsDroppedAtTheBalancer) {
  Rig rig;
  auto* bot = rig.world.spawn<SpoofingBot>(nic(), "spoofer", rig.lb->id(),
                                           "203.0.113.99");
  ASSERT_TRUE(rig.world.loop().run_until(3.0));
  EXPECT_EQ(bot->learned_replica(), kInvalidNode);
  EXPECT_GE(rig.lb->stats().rejected_spoofed, 1u);
  EXPECT_EQ(rig.lb->stats().assignments, 0u);
}

TEST(Spoofing, StolenIpSendsTheRedirectToItsRealOwner) {
  Rig rig;
  // A legitimate client owns 1.2.3.4 …
  ClientConfig cc;
  cc.service = "svc";
  cc.ip = "1.2.3.4";
  cc.dns = rig.dns->id();
  auto* victim = rig.world.spawn<ClientAgent>(nic(0.02), "victim", cc);
  ASSERT_TRUE(rig.world.loop().run_until(3.0));
  ASSERT_TRUE(victim->connected());

  // … and a bot claims it.  The redirect is routed to the victim, so the
  // bot learns nothing and the victim's session is undisturbed.
  auto* bot = rig.world.spawn<SpoofingBot>(nic(), "spoofer", rig.lb->id(),
                                           "1.2.3.4");
  ASSERT_TRUE(rig.world.loop().run_until(6.0));
  EXPECT_EQ(bot->learned_replica(), kInvalidNode);
  EXPECT_TRUE(victim->connected());
  EXPECT_EQ(victim->current_replica(), rig.replica->id());
}

TEST(Spoofing, WhitelistKeysToTheIpOwnerNode) {
  Rig rig;
  ClientConfig cc;
  cc.service = "svc";
  cc.ip = "9.9.9.9";
  cc.dns = rig.dns->id();
  auto* client = rig.world.spawn<ClientAgent>(nic(0.02), "client", cc);
  ASSERT_TRUE(rig.world.loop().run_until(3.0));
  ASSERT_TRUE(client->connected());
  const auto clients = rig.replica->connected_clients();
  ASSERT_EQ(clients.size(), 1u);
  EXPECT_EQ(clients[0].first, rig.world.intern_ip("9.9.9.9"));
  EXPECT_EQ(rig.world.interned_name(clients[0].first), "9.9.9.9");
  EXPECT_EQ(clients[0].second, client->id());
}

TEST(Spoofing, ReconnaissanceProbeGetsNoService) {
  Rig rig;
  // Even a prober that somehow knows the replica's address (e.g. via IP
  // scanning) gets nothing without the load balancer's whitelist entry.
  struct Prober final : Node {
    using Node::Node;
    NodeId target = kInvalidNode;
    int responses = 0;
    void on_message(const Message& msg) override {
      if (msg.type == MessageType::kHttpResponse) ++responses;
    }
  };
  auto* prober = rig.world.spawn<Prober>(nic(), "prober");
  prober->target = rig.replica->id();
  Message m{prober->id(), rig.replica->id(), MessageType::kHttpGet,
            kHttpRequestBytes, HttpGetPayload{rig.world.intern_ip("8.8.4.4")}};
  rig.world.network().send(std::move(m));
  ASSERT_TRUE(rig.world.loop().run_until(3.0));
  EXPECT_EQ(prober->responses, 0);
  EXPECT_GE(rig.replica->stats().rejected_not_whitelisted, 1u);
}

}  // namespace
}  // namespace shuffledef::cloudsim
