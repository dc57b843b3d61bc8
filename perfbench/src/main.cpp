// perfbench: runs one named workload of the shuffledef benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Prints the run envelope, every measured metric by name and unit, the
// check results, and as its last line one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// whose metrics are the end-to-end set (--trace 0) or the per-layer set
// (--trace 1) of BENCHMARK.json.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "report.h"
#include "sampler.h"
#include "workloads.h"

namespace {

using perfbench::RunOptions;
using perfbench::RunResult;

struct MetricDef {
  std::string name;
  std::string unit;
  bool end_to_end = false;
};

// Keep in step with BENCHMARK.json.
std::vector<MetricDef> catalogue() {
  std::vector<MetricDef> defs = {
      {"wall_s", "s", true},
      {"setup_s", "s", true},
      {"peak_rss_mb", "MiB", true},
      {"benign_isolated", "clients", true},
      {"outcome.restore_s", "sim_s"},
      {"outcome.page_load_p50_ms", "sim_ms"},
      {"outcome.page_load_p99_ms", "sim_ms"},
      {"outcome.migration_p50_ms", "sim_ms"},
      {"outcome.migration_p99_ms", "sim_ms"},
      {"outcome.page_load_mean_ms", "sim_ms"},
      {"outcome.migration_mean_ms", "sim_ms"},
      {"outcome.shuffles_to_95", "shuffles"},
      {"event_loop.events", "count"},
      {"event_loop.events_per_message", "ratio"},
      {"event_loop.events_per_s", "1/s"},
      {"network.sends", "count"},
      {"network.delivered", "count"},
      {"network.dropped", "count"},
      {"network.bytes_delivered", "bytes"},
      {"client_swarm.page_loads", "count"},
      {"client_swarm.timeouts", "count"},
      {"client_swarm.rejoins", "count"},
      {"client_swarm.migrations", "count"},
      {"client_agent.page_loads", "count"},
      {"client_agent.timeouts", "count"},
      {"client_agent.migrations", "count"},
      {"replica_server.pages_served", "count"},
      {"replica_server.shed_cpu_overload", "count"},
      {"qos.phase_switches", "count"},
      {"qos.detect_s", "sim_s"},
      {"qos.last_migration_s", "sim_s"},
      {"cloud_provider.provisioned", "count"},
      {"cloud_provider.active_peak", "count"},
      {"coordination_server.rounds", "count"},
      {"coordination_server.clients_migrated", "count"},
      {"coordination_server.execute_round_pct", "%"},
      {"shuffle_controller.decisions", "count"},
      {"shuffle_controller.decide_ms", "ms"},
      {"shuffle_controller.plan_ms", "ms"},
      {"shuffle_controller.estimate_ms", "ms"},
      {"shuffle_controller.cache_hit_ratio", "ratio"},
      {"planner.solves", "count"},
      {"planner.uncached_solves_per_s", "1/s"},
      {"planner.replan_p90_over_p50", "ratio"},
      {"mle_estimator.estimates", "count"},
      {"mle_estimator.estimate_ms", "ms"},
      {"mle_estimator.engine_restarts", "count"},
      {"shuffle_sim.rounds", "count"},
      {"shuffle_sim.placement_pct", "%"},
      {"sweep.cell_wall_max_pct", "%"},
      {"sweep.cell_wall_max_over_p50", "ratio"},
      {"sweep.cells_stolen", "count"},
      {"slice.join_wall_pct", "%"},
  };
  for (const auto& m : perfbench::modules()) {
    defs.push_back({"self." + m + "_pct", "%"});
  }
  defs.push_back({"trace.overhead_pct", "%"});
  defs.push_back({"trace.samples", "count"});
  return defs;
}

// Printed next to the metrics but outside the JSON: host times and checks
// of workload-specific outcomes that the other workloads cannot measure.
const std::map<std::string, std::string> kExtraUnits = {
    {"replan_ms_p50", "ms"},
    {"replan_ms_p90", "ms"},
    {"campaign.fig8_ratio", "ratio"},
    {"campaign.first_round_z", "sigma"},
};

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

[[noreturn]] void usage(const std::string& error) {
  std::cerr << "perfbench: " << error
            << "\nusage: perfbench --workload <cloudsim-flood-100k|"
               "cloudsim-qos-10k|campaign-dp|campaign-paper> --seed <n> "
               "--seconds <s> --trace <0|1> [--git-sha <sha>]\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) usage("unexpected argument " + key);
    key = key.substr(2);
    const auto eq = key.find('=');
    if (eq != std::string::npos) {
      args[key.substr(0, eq)] = key.substr(eq + 1);
    } else if (i + 1 < argc) {
      args[key] = argv[++i];
    } else {
      usage("missing value for --" + key);
    }
  }
  for (const auto& [k, v] : args) {
    if (k != "workload" && k != "seed" && k != "seconds" && k != "trace" &&
        k != "git-sha") {
      usage("unknown flag --" + k);
    }
  }
  if (!args.count("workload")) usage("--workload is required");

  RunOptions options;
  bool trace = false;
  try {
    options.seed = std::stoull(args.count("seed") ? args["seed"] : "1");
    options.seconds = std::stod(args.count("seconds") ? args["seconds"] : "10");
    trace = std::stoi(args.count("trace") ? args["trace"] : "0") == 1;
  } catch (const std::exception&) {
    usage("malformed --seed, --seconds or --trace");
  }
  if (!(options.seconds > 0.0)) usage("--seconds must be positive");
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  options.threads = static_cast<int>(std::min(4u, hw));

  const std::string workload = args["workload"];
  RunResult (*run)(const RunOptions&) = nullptr;
  if (workload == "cloudsim-flood-100k") run = perfbench::run_flood;
  if (workload == "cloudsim-qos-10k") run = perfbench::run_qos;
  if (workload == "campaign-dp") run = perfbench::run_campaign_dp;
  if (workload == "campaign-paper") run = perfbench::run_campaign_paper;
  if (run == nullptr) usage("unknown workload " + workload);

  std::optional<perfbench::Sampler> sampler;
  if (trace) options.sampler = &sampler.emplace();

  RunResult result;
  try {
    result = run(options);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << workload << " threw: " << e.what() << "\n";
    return 1;
  }

  std::cout << "envelope git_sha="
            << (args.count("git-sha") ? args["git-sha"] : "unknown")
            << " build_type=" << PERFBENCH_BUILD_TYPE << " nproc=" << hw
            << " cpu=\"" << cpu_model() << "\" threads=" << options.threads
            << " workload=" << workload << " seed=" << options.seed
            << " seconds=" << options.seconds << " trace=" << trace;
  for (const auto& [k, v] : result.envelope) std::cout << " " << k << "=" << v;
  std::cout << " attempted=" << result.attempted << " failed=" << result.failed
            << "\n";

  const auto defs = catalogue();
  for (const auto& d : defs) {
    const auto it = result.metrics.find(d.name);
    std::cout << "metric " << d.name << " = "
              << number(it == result.metrics.end() ? 0.0 : it->second) << " "
              << d.unit << (d.end_to_end ? " [end-to-end]" : "") << "\n";
  }
  for (const auto& [name, unit] : kExtraUnits) {
    const auto it = result.metrics.find(name);
    if (it != result.metrics.end()) {
      std::cout << "metric " << name << " = " << number(it->second) << " "
                << unit << "\n";
    }
  }
  for (const auto& n : result.notes) std::cout << "NOTE: " << n << "\n";
  for (const auto& f : result.check_failures) {
    std::cout << "CHECK FAILED: " << f << "\n";
  }
  if (options.sampler != nullptr && options.sampler->dropped() > 0) {
    std::cout << "sampler dropped " << options.sampler->dropped()
              << " samples (ring full)\n";
  }

  std::ostringstream json;
  json << "{\"correct\": "
       << (result.check_failures.empty() ? "true" : "false")
       << ", \"attempted\": " << result.attempted
       << ", \"failed\": " << result.failed << ", \"metrics\": {";
  bool first = true;
  for (const auto& d : defs) {
    if (d.end_to_end == trace) continue;
    const auto it = result.metrics.find(d.name);
    json << (first ? "" : ", ") << json_string(d.name) << ": {\"value\": "
         << number(it == result.metrics.end() ? 0.0 : it->second)
         << ", \"unit\": " << json_string(d.unit) << "}";
    first = false;
  }
  json << "}}";
  std::cout << json.str() << std::endl;
  return 0;
}
