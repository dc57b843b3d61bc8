// The benchmark's workloads.  Each one builds its inputs from the seed,
// drives the program through its public entry points for about `seconds`
// of host time in whole rounds, checks the outputs, and fills a RunResult
// with every metric it can measure.  main.cpp picks which of them to print.
#pragma once

#include <sys/types.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/snapshot.h"
#include "sampler.h"

namespace perfbench {

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int threads = 4;  // cap on threads the workload may use (sweep jobs, shards)
  Sampler* sampler = nullptr;  // traced run only (see run_rounds)
};

struct RunResult {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  /// One line per check that did not hold; empty = outputs correct.
  std::vector<std::string> check_failures;
  /// Every measured metric by name -> value (units live in main.cpp's
  /// catalogue).  Metrics a workload does not exercise stay absent and
  /// are printed as 0.
  std::map<std::string, double> metrics;
  /// Findings printed with the run that do not make it incorrect (known
  /// faults of the program that the benchmark reports but cannot mend).
  std::vector<std::string> notes;
  /// Lines for the run envelope (thread counts, grid shape, ...).
  std::map<std::string, std::string> envelope;

  void check(bool ok, const std::string& what) {
    if (!ok) check_failures.push_back(what);
  }
};

RunResult run_flood(const RunOptions& options);
RunResult run_qos(const RunOptions& options);
RunResult run_campaign_dp(const RunOptions& options);
RunResult run_campaign_paper(const RunOptions& options);

/// Process memory high-water mark in MiB (getrusage).
double peak_rss_mib();

/// Median of a non-empty sample.
double median(std::vector<double> values);

/// Cold set-ups on demand, for setup_s.  The constructor forks a template
/// process from the caller as it is then; run() has the template fork a
/// fresh child that runs `set_up` once and reports its host time.  Every
/// child starts from the same unwarmed state, so one-time work of the
/// program (math tables, lazily built state, first touch of the heap)
/// shows in every sample, however many rounds the caller has run since.
/// Construct it before the workload starts any thread or builds any
/// program state.  The children exit without tearing down what set_up
/// built.
class ColdSetup {
 public:
  explicit ColdSetup(std::function<void()> set_up);
  ~ColdSetup();  // ends the template process and waits for it
  ColdSetup(const ColdSetup&) = delete;
  ColdSetup& operator=(const ColdSetup&) = delete;

  /// Host seconds of one cold set-up.
  double run();

 private:
  pid_t pid_ = -1;
  int cmd_fd_ = -1;
  int out_fd_ = -1;
};

/// Cold set-ups before each round: a median over several per round keeps
/// one slow fork from moving setup_s.
constexpr int kColdSetupsPerRound = 3;

/// Host times of each round: walls split by whether the sampler ran, and
/// the cold set-ups run before it.
struct RoundLog {
  std::vector<double> plain;
  std::vector<double> sampled;
  std::vector<double> setups;
  /// Process memory high-water mark at the end of the first round: later
  /// rounds rebuild the same inputs, and how often they run depends on the
  /// host's speed.
  double peak_rss_mib = 0.0;
  [[nodiscard]] std::size_t rounds() const {
    return plain.size() + sampled.size();
  }
};

/// Runs whole rounds until `options.seconds` of host time have passed and
/// at least three ran.  Rounds cycle through `cycle` distinct inputs;
/// `body()` does one round and returns its timed host wall.  Before each
/// round, `cold` runs kColdSetupsPerRound cold set-ups, so the set-up
/// samples span the run as the walls do.  A traced run alternates whole cycles without and with
/// the sampler (at least one of each), so the run measures its own tracing
/// overhead on the same inputs.
template <typename Body>
RoundLog run_rounds(const RunOptions& options, std::size_t cycle,
                    ColdSetup& cold, Body&& body) {
  RoundLog log;
  const std::size_t min_rounds =
      std::max<std::size_t>(3, options.sampler != nullptr ? 2 * cycle : cycle);
  const auto start = std::chrono::steady_clock::now();
  const auto elapsed = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };
  while (log.rounds() < min_rounds || elapsed() < options.seconds) {
    for (int i = 0; i < kColdSetupsPerRound; ++i) {
      log.setups.push_back(cold.run());
    }
    const bool sampled =
        options.sampler != nullptr && (log.rounds() / cycle) % 2 == 1;
    if (sampled) options.sampler->start();
    const double wall = body();
    if (sampled) options.sampler->stop();
    (sampled ? log.sampled : log.plain).push_back(wall);
    if (log.rounds() == 1) log.peak_rss_mib = peak_rss_mib();
  }
  return log;
}

/// Seconds since `t`.
inline double since(std::chrono::steady_clock::time_point t) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t)
      .count();
}

/// Controller, planner-cache and MLE counters and span means.
void record_controller(const shuffledef::obs::MetricsSnapshot& m,
                       RunResult& result);

/// Total seconds of every span whose path ends in `suffix`.
double span_total_s(const shuffledef::obs::MetricsSnapshot& m,
                    std::string_view suffix);

/// Records wall_s, setup_s, peak_rss_mb, the traced-run
/// overhead and the sampled self-time shares from one workload's rounds.
void record_rounds(const RunOptions& options, const RoundLog& log,
                   RunResult& result);

}  // namespace perfbench
