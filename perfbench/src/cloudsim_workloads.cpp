// Cloudsim workloads: whole simulated worlds built by cloudsim::Scenario
// and advanced one simulated second per operation.
//
//   cloudsim-flood-100k  abl_cloudsim_scale's fault-injected world at 10^5
//                        clients on the flat ClientSwarm engine: 4
//                        persistent bots flooding junk, 1 % data-lane and
//                        2 % control-lane loss, one replica crash, the
//                        defense triggered by attack detection.
//   cloudsim-qos-10k     10^4 browsing clients on the per-object engine, a
//                        sustained computational attack from t = 10 s to
//                        the horizon, the closed QoS loop with Theorem-1
//                        autoscaling and attack detection switched off.
#include <algorithm>
#include <chrono>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>

#include "cloudsim/cloud_provider.h"
#include "cloudsim/event_loop.h"
#include "cloudsim/network.h"
#include "cloudsim/scenario.h"
#include "report.h"
#include "util/math.h"
#include "util/random.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace cs = shuffledef::cloudsim;
using Clock = std::chrono::steady_clock;

// ---- cloudsim-flood-100k ----------------------------------------------------

constexpr std::int32_t kFloodClients = 100000;
constexpr int kFloodHorizon = 12;  // simulated seconds per round
constexpr double kFloodJoinEnd = 8.0;  // clients join over [0, 8) s

cs::ScenarioConfig flood_config(std::uint64_t seed, int shard_threads) {
  cs::ScenarioConfig cfg;
  cfg.seed = seed;
  cfg.domains = 2;
  cfg.initial_replicas = kFloodClients / 2500;
  cfg.hot_spares = 1;
  cfg.clients = kFloodClients;
  cfg.client_start_spread_s = kFloodJoinEnd;
  cfg.client_heartbeat_s = 2.0;
  cfg.persistent_bots = 4;
  cfg.bot_junk_rate_pps = 400.0;
  cfg.replica.page_bytes = 2 * 1024;
  cfg.replica.cpu_per_request_s = 50e-6;
  cfg.replica.detect_window_s = 0.25;
  cfg.replica.junk_rate_threshold = 100.0;
  cfg.replica_nic = {.egress_bps = 10e9, .ingress_bps = 10e9,
                     .base_latency_s = 0.002, .domain = 0};
  cfg.lb_nic = {.egress_bps = 40e9, .ingress_bps = 40e9,
                .base_latency_s = 0.002, .domain = 0};
  cfg.infra_nic = {.egress_bps = 40e9, .ingress_bps = 40e9,
                   .base_latency_s = 0.002, .domain = 0};
  cfg.coordinator.controller.replicas = cfg.initial_replicas;
  cfg.faults.data_loss_prob = 0.01;
  cfg.faults.ctrl_loss_prob = 0.02;
  cfg.faults.replica_crash_times_s = {6.0};
  cfg.client_engine = cs::ClientEngine::kFlat;
  cfg.shard_threads = shard_threads;
  return cfg;
}

// Everything a flood world must reproduce exactly at any shard_threads.
struct Fingerprint {
  cs::NetworkStats net;
  cs::SwarmStats swarm;
  std::int64_t rounds = 0;
  std::int64_t migrated = 0;
  std::int64_t isolated = 0;
  bool operator==(const Fingerprint& o) const {
    const auto same_net =
        net.sends == o.net.sends && net.delivered == o.net.delivered &&
        net.dropped_faulted == o.net.dropped_faulted &&
        net.dropped_egress == o.net.dropped_egress &&
        net.dropped_ingress == o.net.dropped_ingress &&
        net.dropped_detached == o.net.dropped_detached &&
        net.bytes_delivered == o.net.bytes_delivered;
    const auto same_swarm = swarm.page_loads == o.swarm.page_loads &&
                            swarm.timeouts == o.swarm.timeouts &&
                            swarm.rejoins == o.swarm.rejoins &&
                            swarm.migrations_completed ==
                                o.swarm.migrations_completed &&
                            swarm.junk_sent == o.swarm.junk_sent;
    return same_net && same_swarm && rounds == o.rounds &&
           migrated == o.migrated && isolated == o.isolated;
  }
};

Fingerprint fingerprint(cs::Scenario& s) {
  return {s.world().network().stats(), s.swarm()->stats(),
          s.coordinator()->stats().rounds_executed,
          s.coordinator()->stats().clients_migrated,
          s.benign_clients_isolated_from_bots()};
}

std::uint64_t dropped(const cs::NetworkStats& n) {
  return n.dropped_egress + n.dropped_ingress + n.dropped_detached +
         n.dropped_faulted;
}

// The registry mirror of NetworkStats must agree field for field.
bool mirror_matches(const shuffledef::obs::MetricsSnapshot& m,
                    const cs::NetworkStats& n) {
  return m.counter(cs::kMetricNetSends) == n.sends &&
         m.counter(cs::kMetricNetDelivered) == n.delivered &&
         m.counter(cs::kMetricNetDroppedEgress) == n.dropped_egress &&
         m.counter(cs::kMetricNetDroppedIngress) == n.dropped_ingress &&
         m.counter(cs::kMetricNetDroppedDetached) == n.dropped_detached &&
         m.counter(cs::kMetricNetDroppedFaulted) == n.dropped_faulted &&
         m.counter(cs::kMetricNetDuplicated) == n.duplicated &&
         m.counter(cs::kMetricNetBytesDelivered) ==
             static_cast<std::uint64_t>(n.bytes_delivered) &&
         m.gauge(cs::kMetricNetInFlight) ==
             static_cast<std::int64_t>(n.in_flight);
}

// Pages served by every replica the world ever spawned (recycled ones
// stay alive, detached).
std::uint64_t pages_served(cs::Scenario& s, std::uint64_t* shed) {
  std::set<const cs::ReplicaServer*> seen;
  std::uint64_t served = 0;
  for (cs::NodeId id = 0;; ++id) {
    cs::Node* node = nullptr;
    try {
      node = s.world().node(id);
    } catch (const std::out_of_range&) {
      break;
    }
    const auto* r = dynamic_cast<const cs::ReplicaServer*>(node);
    if (r == nullptr || !seen.insert(r).second) continue;
    served += r->stats().pages_served;
    *shed += r->stats().shed_cpu_overload;
  }
  return served;
}

void record_world(cs::Scenario& s, double wall_s, RunResult& result) {
  const auto m = s.metrics();
  const auto& net = s.world().network().stats();
  const double events =
      static_cast<double>(m.counter(cs::kMetricLoopEventsDispatched));
  result.metrics["event_loop.events"] = events;
  result.metrics["event_loop.events_per_message"] =
      net.sends == 0 ? 0.0 : events / static_cast<double>(net.sends);
  result.metrics["network.sends"] = static_cast<double>(net.sends);
  result.metrics["network.delivered"] = static_cast<double>(net.delivered);
  result.metrics["network.dropped"] = static_cast<double>(dropped(net));
  result.metrics["network.bytes_delivered"] =
      static_cast<double>(net.bytes_delivered);
  const auto& coord = s.coordinator()->stats();
  result.metrics["coordination_server.rounds"] =
      static_cast<double>(coord.rounds_executed);
  result.metrics["coordination_server.clients_migrated"] =
      static_cast<double>(coord.clients_migrated);
  result.metrics["coordination_server.execute_round_pct"] =
      100.0 * span_total_s(m, "coord.execute_round") / wall_s;
  result.metrics["cloud_provider.provisioned"] =
      static_cast<double>(m.counter(cs::kMetricProviderProvisioned));
  result.metrics["cloud_provider.active_peak"] =
      static_cast<double>(m.gauge(cs::kMetricProviderActiveReplicasPeak));
  std::uint64_t shed = 0;
  result.metrics["replica_server.pages_served"] =
      static_cast<double>(pages_served(s, &shed));
  result.metrics["replica_server.shed_cpu_overload"] =
      static_cast<double>(shed);
  result.metrics["benign_isolated"] =
      static_cast<double>(s.benign_clients_isolated_from_bots());
  record_controller(m, result);
}

// ---- cloudsim-qos-10k ------------------------------------------------------

constexpr std::int32_t kQosClients = 10000;
constexpr double kQosOnset = 10.0;
constexpr int kQosHorizon = 40;
constexpr double kQosWindow = 2.0;
constexpr double kQosStep = 0.5;
constexpr double kQosLimit = 0.6;

cs::ScenarioConfig qos_config(std::uint64_t seed, bool defended) {
  cs::ScenarioConfig cfg;
  cfg.seed = seed;
  cfg.domains = 2;
  cfg.initial_replicas = 10;
  cfg.clients = kQosClients;
  cfg.client_start_spread_s = 2.0;
  cfg.client_browse_think_s = 1.0;
  cfg.client_heartbeat_s = 1.0;
  cfg.persistent_bots = 16;
  cfg.bot_heavy_interval_s = 0.05;
  cfg.bot_heavy_cpu_seconds = 0.15;
  cfg.bot_start_offset_s = kQosOnset;
  cfg.bot_start_spread_s = 0.25;
  cfg.replica.page_bytes = 8 * 1024;
  cfg.replica.cpu_per_request_s = 0.0005;
  // Shuffles come from the QoS loop alone, never from attack detection.
  cfg.replica.detect_window_s = 0.25;
  cfg.replica.junk_rate_threshold = 1e18;
  cfg.replica.cpu_backlog_threshold_s = 1e18;
  cfg.replica_nic = {.egress_bps = 1e9, .ingress_bps = 1e9,
                     .base_latency_s = 0.002, .domain = 0};
  cfg.lb_nic = {.egress_bps = 10e9, .ingress_bps = 10e9,
                .base_latency_s = 0.002, .domain = 0};
  cfg.infra_nic = {.egress_bps = 10e9, .ingress_bps = 10e9,
                   .base_latency_s = 0.002, .domain = 0};
  cfg.coordinator.controller.planner = "greedy";
  cfg.coordinator.controller.replicas = 20;
  cfg.coordinator.controller.use_mle = true;
  if (defended) {
    cfg.qos.enabled = true;
    cfg.qos.report_interval_s = 0.25;
    cfg.qos.overload_latency_s = 0.2;
    cfg.qos.overload_queue_s = 0.5;
    cfg.qos.start_fraction = 0.2;
    cfg.qos.stop_fraction = 0.1;
    cfg.qos.hysteresis_s = 1.5;
    cfg.qos.max_autoscale_replicas = 32;
  }
  return cfg;
}

std::vector<LoadSample> benign_loads(const cs::Scenario& s, double from) {
  std::vector<LoadSample> loads;
  for (const auto* c : s.clients()) {
    for (const auto& l : c->stats().page_loads) {
      if (l.completed_at >= from) loads.push_back({l.completed_at, l.duration()});
    }
    for (const double t : c->stats().timeout_at) {
      if (t >= from) {
        loads.push_back({t, std::numeric_limits<double>::infinity()});
      }
    }
  }
  return loads;
}

}  // namespace

RunResult run_flood(const RunOptions& options) {
  RunResult result;
  std::vector<double> join_pct;
  std::optional<Fingerprint> reference;
  bool identical = true;
  bool budget_ok = true;
  bool conserved = true;
  bool mirror_ok = true;
  bool shuffled = true;
  ColdSetup cold([&] {
    (void)new cs::Scenario(flood_config(options.seed, 1));
    shuffledef::util::warm_math_tables();
  });
  shuffledef::util::warm_math_tables();
  const auto log = run_rounds(options, 1, cold, [&] {
    cs::Scenario s(flood_config(options.seed, 1));
    const auto t = Clock::now();
    double join_s = 0.0;
    for (int sec = 1; sec <= kFloodHorizon; ++sec) {
      budget_ok = s.run_until(sec) && budget_ok;
      ++result.attempted;
      if (sec == static_cast<int>(kFloodJoinEnd)) {
        join_s = since(t);
      }
    }
    const double wall = since(t);
    join_pct.push_back(100.0 * join_s / wall);
    const auto& net = s.world().network().stats();
    conserved = conserved && net.conserved();
    mirror_ok = mirror_ok && mirror_matches(s.metrics(), net);
    shuffled = shuffled && s.coordinator()->stats().rounds_executed >= 1;
    const auto fp = fingerprint(s);
    if (!reference) {
      reference = fp;
      record_world(s, wall, result);
      const auto& sw = s.swarm()->stats();
      result.metrics["client_swarm.page_loads"] =
          static_cast<double>(sw.page_loads);
      result.metrics["client_swarm.timeouts"] = static_cast<double>(sw.timeouts);
      result.metrics["client_swarm.rejoins"] = static_cast<double>(sw.rejoins);
      result.metrics["client_swarm.migrations"] =
          static_cast<double>(sw.migrations_completed);
      result.metrics["outcome.page_load_mean_ms"] =
          sw.page_loads == 0 ? 0.0
                             : 1e3 * sw.page_load_seconds_sum /
                                   static_cast<double>(sw.page_loads);
      result.metrics["outcome.migration_mean_ms"] =
          sw.migrations_completed == 0
              ? 0.0
              : 1e3 * sw.migration_seconds_sum /
                    static_cast<double>(sw.migrations_completed);
    }
    identical = identical && fp == *reference;
    return wall;
  });
  record_rounds(options, log, result);
  result.metrics["slice.join_wall_pct"] = median(join_pct);
  // The round's events per host second, from the median round wall.
  result.metrics["event_loop.events_per_s"] =
      result.metrics["event_loop.events"] / result.metrics["wall_s"];

  // Untimed: the same world sharded across the thread cap must reproduce
  // the serial fingerprint exactly.
  const int shards = std::max(2, options.threads);
  {
    cs::Scenario s(flood_config(options.seed, shards));
    budget_ok = s.run_until(kFloodHorizon) && budget_ok;
    result.check(fingerprint(s) == *reference,
                 "fingerprint differs between shard_threads 1 and " +
                     std::to_string(shards));
  }
  result.envelope["shard_threads"] = "1 (timed), " + std::to_string(shards) +
                                     " (fingerprint check)";
  result.check(budget_ok, "event budget exhausted");
  result.check(conserved, "NetworkStats::conserved() broken");
  result.check(mirror_ok, "net.* registry mirror differs from NetworkStats");
  result.check(shuffled, "no shuffle round executed");
  result.check(identical, "repeated rounds of one seed differ");
  return result;
}

RunResult run_qos(const RunOptions& options) {
  RunResult result;
  // Three worlds per run, seeded from --seed; rounds cycle through them.
  // Outcomes are averaged over the three, layer counters come from the
  // first.
  constexpr std::size_t kWorlds = 3;
  std::vector<std::uint64_t> seeds;
  std::uint64_t state = options.seed;
  for (std::size_t i = 0; i < kWorlds; ++i) {
    seeds.push_back(shuffledef::util::splitmix64(state));
  }
  std::vector<double> join_pct;
  std::map<std::string, double> outcome_sums;
  std::int64_t active_peak = 0;
  bool budget_ok = true;
  bool conserved = true;
  std::size_t round = 0;
  ColdSetup cold([&] {
    (void)new cs::Scenario(qos_config(seeds[0], true));
    shuffledef::util::warm_math_tables();
  });
  const auto log = run_rounds(options, kWorlds, cold, [&] {
    const std::size_t world = round++ % kWorlds;
    const auto cfg = qos_config(seeds[world], true);
    cs::Scenario s(cfg);
    shuffledef::util::warm_math_tables();
    const auto t = Clock::now();
    double join_s = 0.0;
    for (int sec = 1; sec <= kQosHorizon; ++sec) {
      budget_ok = s.run_until(sec) && budget_ok;
      ++result.attempted;
      if (sec == static_cast<int>(kQosOnset)) {
        join_s = since(t);
      }
    }
    const double wall = since(t);
    join_pct.push_back(100.0 * join_s / wall);
    conserved = conserved && s.world().network().stats().conserved();
    if (round > kWorlds) return wall;  // outcomes are known already
    if (world == 0) record_world(s, wall, result);

    std::map<std::string, double> out;
    const auto r = restoration(benign_loads(s, 0.0), kQosOnset, kQosHorizon,
                               kQosWindow, kQosStep, kQosLimit);
    out["outcome.restore_s"] = r.restore_s;
    // Known fault, reported but not gated: on some seeds the loop switches
    // back to kNormal while bots still overload a few replicas of a fleet
    // grown past its cap, and the benign p90 stays broken to the horizon.
    if (r.broken_at_horizon) {
      result.notes.push_back("known fault: world " + std::to_string(world) +
                             " still breaks the p90 limit at the horizon");
    }
    std::vector<double> page_ms;
    std::vector<double> migration_ms;
    double last_migration = kQosOnset;
    double loads_total = 0.0;
    double timeouts = 0.0;
    for (const auto* c : s.clients()) {
      const auto& st = c->stats();
      loads_total += static_cast<double>(st.page_loads.size());
      timeouts += st.timeouts;
      for (const auto& l : st.page_loads) {
        if (l.completed_at >= kQosOnset) page_ms.push_back(1e3 * l.duration());
      }
      for (const auto& mig : st.migrations) {
        migration_ms.push_back(1e3 * mig.duration());
        last_migration = std::max(last_migration, mig.completed_at);
      }
    }
    result.check(percentile_supported(page_ms.size(), 0.99) &&
                     percentile_supported(migration_ms.size(), 0.99),
                 "too few page loads or migrations for a p99");
    const auto mean = [](const std::vector<double>& v) {
      double sum = 0.0;
      for (const double x : v) sum += x;
      return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
    };
    out["outcome.page_load_p50_ms"] = percentile(page_ms, 0.5);
    out["outcome.page_load_p99_ms"] = percentile(page_ms, 0.99);
    out["outcome.migration_p50_ms"] = percentile(migration_ms, 0.5);
    out["outcome.migration_p99_ms"] = percentile(migration_ms, 0.99);
    out["outcome.page_load_mean_ms"] = mean(page_ms);
    out["outcome.migration_mean_ms"] = mean(migration_ms);
    out["client_agent.page_loads"] = loads_total;
    out["client_agent.timeouts"] = timeouts;
    out["client_agent.migrations"] = static_cast<double>(migration_ms.size());
    out["benign_isolated"] =
        static_cast<double>(s.benign_clients_isolated_from_bots());

    const auto& transitions = s.coordinator()->phase_transitions();
    out["qos.phase_switches"] = static_cast<double>(transitions.size());
    out["qos.last_migration_s"] = last_migration - kQosOnset;
    for (const auto& tr : transitions) {
      if (tr.to == cs::QosPhase::kOverload) {
        out["qos.detect_s"] = tr.at - kQosOnset;
        break;
      }
    }
    for (std::size_t i = 1; i < transitions.size(); ++i) {
      result.check(transitions[i].at - transitions[i - 1].at >=
                       cfg.qos.hysteresis_s - 1e-9,
                   "phase switch inside a hysteresis window");
    }
    result.check(!transitions.empty(), "the QoS loop never switched phase");
    active_peak = std::max(
        active_peak, s.metrics().gauge(cs::kMetricProviderActiveReplicasPeak));
    for (const auto& [k, v] : out) outcome_sums[k] += v;
    return wall;
  });
  record_rounds(options, log, result);
  for (const auto& [k, v] : outcome_sums) {
    result.metrics[k] = v / static_cast<double>(kWorlds);
  }
  result.metrics["slice.join_wall_pct"] = median(join_pct);
  result.metrics["event_loop.events_per_s"] =
      result.metrics["event_loop.events"] / result.metrics["wall_s"];
  // Known fault, reported but not gated: max_autoscale_replicas is
  // documented as a hard cap on the whole fleet, yet shuffle rounds
  // provision past it (only the autoscaler's own growth is capped).
  const auto cap = qos_config(seeds[0], true).qos.max_autoscale_replicas;
  if (active_peak > cap) {
    result.notes.push_back("known fault: active replicas peaked at " +
                           std::to_string(active_peak) +
                           " > max_autoscale_replicas " + std::to_string(cap));
  }

  // Untimed: the first world without the QoS loop must still break the
  // limit at the horizon, or restoration measures the attack ending.
  {
    cs::Scenario s(qos_config(seeds[0], false));
    budget_ok = s.run_until(kQosHorizon) && budget_ok;
    const auto r = restoration(benign_loads(s, 0.0), kQosOnset, kQosHorizon,
                               kQosWindow, kQosStep, kQosLimit);
    result.check(r.broken_at_horizon,
                 "the undefended world restores by itself");
  }
  result.envelope["shard_threads"] = "1";
  result.envelope["worlds"] = std::to_string(kWorlds);
  result.check(budget_ok, "event budget exhausted");
  result.check(conserved, "NetworkStats::conserved() broken");
  return result;
}

}  // namespace perfbench
