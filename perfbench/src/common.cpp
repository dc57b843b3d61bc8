#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <stdexcept>
#include <string_view>

#include "core/shuffle_controller.h"
#include "obs/snapshot.h"
#include "report.h"
#include "workloads.h"

namespace perfbench {

namespace obs = shuffledef::obs;

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

namespace {

// A set-up that has not reported by then is stuck; SIGALRM ends it.
constexpr unsigned kColdSetupTimeoutS = 60;

// One cold set-up: time set_up() and write the time to `fd`.  Never
// returns.
[[noreturn]] void cold_setup_child(int fd, const std::function<void()>& set_up) {
  alarm(kColdSetupTimeoutS);
  int code = 1;
  try {
    const auto t = std::chrono::steady_clock::now();
    set_up();
    const double s = since(t);
    if (write(fd, &s, sizeof s) == sizeof s) code = 0;
  } catch (...) {
  }
  _exit(code);  // no destructors, no stdio flush: the parent owns both
}

// The template process: for every byte read from `cmd_fd`, fork one child
// for a cold set-up and pass its time (or -1 if it failed) on to `out_fd`.
// Ends when the parent closes the command pipe.
[[noreturn]] void template_process(int cmd_fd, int out_fd,
                                   const std::function<void()>& set_up) {
  char c = 0;
  while (read(cmd_fd, &c, 1) == 1) {
    const pid_t pid = fork();
    if (pid == 0) cold_setup_child(out_fd, set_up);
    int status = 0;
    while (pid > 0 && waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    if (pid < 0 || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      const double failed = -1.0;
      if (write(out_fd, &failed, sizeof failed) != sizeof failed) break;
    }
  }
  _exit(0);
}

}  // namespace

ColdSetup::ColdSetup(std::function<void()> set_up) {
  int cmd[2];
  int out[2];
  if (pipe(cmd) != 0) throw std::runtime_error("cold set-up: pipe failed");
  if (pipe(out) != 0) {
    close(cmd[0]);
    close(cmd[1]);
    throw std::runtime_error("cold set-up: pipe failed");
  }
  pid_ = fork();
  if (pid_ == 0) {
    close(cmd[1]);
    close(out[0]);
    template_process(cmd[0], out[1], set_up);
  }
  close(cmd[0]);
  close(out[1]);
  cmd_fd_ = cmd[1];
  out_fd_ = out[0];
  if (pid_ < 0) {
    close(cmd_fd_);
    close(out_fd_);
    throw std::runtime_error("cold set-up: fork failed");
  }
}

ColdSetup::~ColdSetup() {
  close(cmd_fd_);  // the template process sees end of file and exits
  int status = 0;
  while (waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
  }
  close(out_fd_);
}

double ColdSetup::run() {
  const char go = 1;
  double s = -1.0;
  if (write(cmd_fd_, &go, 1) != 1 ||
      read(out_fd_, &s, sizeof s) != static_cast<ssize_t>(sizeof s) ||
      s < 0.0) {
    throw std::runtime_error("cold set-up: child process failed");
  }
  return s;
}

void record_rounds(const RunOptions& options, const RoundLog& log,
                   RunResult& result) {
  const double wall = median(log.plain);
  result.metrics["wall_s"] = wall;
  result.metrics["setup_s"] = median(log.setups);
  result.metrics["peak_rss_mb"] = log.peak_rss_mib;
  result.envelope["rounds"] = std::to_string(log.rounds());
  if (options.sampler == nullptr) return;
  if (!log.sampled.empty()) {
    result.metrics["trace.overhead_pct"] =
        100.0 * (median(log.sampled) / wall - 1.0);
  }
  const auto counts = options.sampler->module_counts();
  std::size_t total = 0;
  for (const auto& [module, n] : counts) total += n;
  result.metrics["trace.samples"] = static_cast<double>(total);
  for (const auto& [module, n] : counts) {
    result.metrics["self." + module + "_pct"] =
        total == 0 ? 0.0
                   : 100.0 * static_cast<double>(n) / static_cast<double>(total);
  }
}

namespace {

// Sum of every span whose path ends in `suffix` (the same span can nest
// under different parents, e.g. controller.decide under coord.execute_round).
obs::MetricsSnapshot::SpanValue spans_ending(const obs::MetricsSnapshot& m,
                                             std::string_view suffix) {
  obs::MetricsSnapshot::SpanValue sum;
  for (const auto& s : m.spans) {
    const std::string_view path = s.path;
    if (path.size() >= suffix.size() &&
        path.substr(path.size() - suffix.size()) == suffix &&
        (path.size() == suffix.size() ||
         path[path.size() - suffix.size() - 1] == '/')) {
      sum.count += s.count;
      sum.total_ns += s.total_ns;
    }
  }
  return sum;
}

double mean_ms(const obs::MetricsSnapshot::SpanValue& s) {
  return s.count == 0 ? 0.0
                      : static_cast<double>(s.total_ns) / 1e6 /
                            static_cast<double>(s.count);
}

}  // namespace

double span_total_s(const obs::MetricsSnapshot& m, std::string_view suffix) {
  return static_cast<double>(spans_ending(m, suffix).total_ns) / 1e9;
}

void record_controller(const obs::MetricsSnapshot& m, RunResult& result) {
  const auto hits = static_cast<double>(m.counter(shuffledef::core::kMetricPlannerCacheHits));
  const auto misses =
      static_cast<double>(m.counter(shuffledef::core::kMetricPlannerCacheMisses));
  result.metrics["shuffle_controller.decisions"] =
      static_cast<double>(m.counter(shuffledef::core::kMetricControllerDecisions));
  result.metrics["shuffle_controller.decide_ms"] =
      mean_ms(spans_ending(m, "controller.decide"));
  result.metrics["shuffle_controller.estimate_ms"] =
      mean_ms(spans_ending(m, "controller.decide/estimate"));
  result.metrics["shuffle_controller.plan_ms"] =
      mean_ms(spans_ending(m, "controller.decide/plan"));
  result.metrics["shuffle_controller.cache_hit_ratio"] =
      hits + misses == 0.0 ? 0.0 : hits / (hits + misses);
  result.metrics["mle_estimator.estimates"] =
      static_cast<double>(m.counter("mle.estimates"));
  result.metrics["mle_estimator.engine_restarts"] =
      static_cast<double>(m.counter("mle.engine_restarts"));
  result.metrics["mle_estimator.estimate_ms"] =
      mean_ms(spans_ending(m, "mle.estimate"));
}

}  // namespace perfbench
