// The benchmark's own computations over program outputs: percentiles and
// the sample-count rule that governs which of them may be reported, the
// sliding-window p90 restoration rule, the capped shuffles-to-95% sum, and
// the attribution of a sampled stack frame to one of the program's
// modules.  Pure functions, so perfbench_selftest checks each one on
// hand-worked inputs.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile (q in [0, 1]) of an unsorted sample: the value
/// at rank ceil(q * n) (1-based) of the sorted sample.  0 for no samples.
inline double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto n = static_cast<double>(values.size());
  auto rank = static_cast<std::size_t>(std::ceil(q * n));
  rank = std::clamp<std::size_t>(rank, 1, values.size());
  return values[rank - 1];
}

/// A percentile is a tail only when at least ten samples lie beyond it,
/// and with fewer than forty samples nothing but the median is reported.
inline bool percentile_supported(std::size_t samples, double q) {
  if (q <= 0.5) return samples >= 1;
  if (samples < 40) return false;
  return static_cast<double>(samples) * (1.0 - q) >= 10.0 - 1e-9;
}

/// One benign page-load attempt: when it ended and how long it took.  A
/// request that timed out ends at its timeout with infinite duration, so
/// it misses any latency limit.
struct LoadSample {
  double ended_at = 0.0;
  double duration_s = 0.0;
};

/// p90 of the page loads ending in [from, to); 0 when none ended there.
/// Uses abl_qos_feedback's index rule (floor(0.9 * (n - 1)) of the sorted
/// durations) so restoration times compare with that bench.
inline double window_p90(const std::vector<LoadSample>& loads, double from,
                         double to) {
  std::vector<double> d;
  for (const auto& l : loads) {
    if (l.ended_at >= from && l.ended_at < to) d.push_back(l.duration_s);
  }
  if (d.empty()) return 0.0;
  std::sort(d.begin(), d.end());
  return d[static_cast<std::size_t>(0.9 * static_cast<double>(d.size() - 1))];
}

struct Restoration {
  /// From `onset` to the end of the last window whose p90 reaches the
  /// limit (0 when no window after onset breaks it).
  double restore_s = 0.0;
  /// The window ending at the horizon still breaks the limit: QoS never
  /// came back.
  bool broken_at_horizon = false;
};

/// Slides a `window_s` window from `onset` in `step_s` steps up to
/// `horizon`; the restoration time is the end of the last window whose
/// benign p90 page-load latency is at or above `limit_s`.
inline Restoration restoration(const std::vector<LoadSample>& loads,
                               double onset, double horizon, double window_s,
                               double step_s, double limit_s) {
  Restoration r;
  double last_end = onset;
  for (double t = onset; t + window_s <= horizon + 1e-9; t += step_s) {
    if (window_p90(loads, t, t + window_s) >= limit_s) last_end = t + window_s;
  }
  r.restore_s = last_end - onset;
  r.broken_at_horizon =
      window_p90(loads, horizon - window_s, horizon + 1e-9) >= limit_s;
  return r;
}

/// Executed shuffles to save 95 %, summed over cells; a cell that never got
/// there counts the round cap.
inline std::int64_t capped_shuffles_sum(
    const std::vector<std::optional<std::int64_t>>& per_cell,
    std::int64_t cap) {
  std::int64_t sum = 0;
  for (const auto& s : per_cell) sum += s.value_or(cap);
  return sum;
}

/// Modules a sampled frame is attributed to, in report order.
inline const std::vector<std::string>& modules() {
  static const std::vector<std::string> kModules = {
      "event_loop",     "network", "client_swarm",        "client_agent",
      "replica_server", "load_balancer", "coordination_server", "core",
      "sim",            "util",    "alloc",               "bench",
      "other"};
  return kModules;
}

/// Module of one demangled symbol, or "" when the frame is neither the
/// program's nor the benchmark's (a C library routine, the runtime), so the
/// caller walks out to the next frame.  Allocator entry points count as
/// "alloc" wherever they are called from; the benchmark's own code (its
/// result checks and bookkeeping) is "bench".
inline std::string module_of(std::string_view symbol) {
  static constexpr std::string_view kAlloc[] = {
      "malloc", "free", "calloc", "realloc", "operator new",
      "operator delete", "_int_malloc", "_int_free", "cfree",
      "malloc_consolidate", "posix_memalign", "aligned_alloc"};
  for (const auto a : kAlloc) {
    if (symbol.substr(0, a.size()) == a &&
        (symbol.size() == a.size() || symbol[a.size()] == '(' ||
         symbol[a.size()] == ' ' || symbol[a.size()] == '@' ||
         a.substr(0, 8) == "operator")) {
      return "alloc";
    }
  }
  // A std::function invoker runs the stored lambda's body, which the
  // compiler inlines into it: charge it to the lambda's enclosing function,
  // named inside the invoker's template arguments just before the first
  // "::{lambda" (after dropping that function's parameter list).
  constexpr std::string_view kInvoker = "std::_Function_handler<";
  if (symbol.substr(0, kInvoker.size()) == kInvoker) {
    auto end = symbol.find("::{lambda");
    if (end != std::string_view::npos && end > 0 && symbol[end - 1] == ')') {
      int depth = 0;
      while (end > 0) {
        const char c = symbol[--end];
        depth += c == ')' ? 1 : c == '(' ? -1 : 0;
        if (depth == 0) break;
      }
    }
    const auto owner = symbol.rfind("shuffledef::", end);
    if (end != std::string_view::npos && owner != std::string_view::npos) {
      return module_of(symbol.substr(owner, end - owner));
    }
  }
  // Otherwise only the outermost qualification decides: a template argument
  // such as std::vector<shuffledef::cloudsim::Message> is not the program's
  // frame.
  const std::string_view head = symbol.substr(0, symbol.find_first_of("<("));
  struct Rule {
    std::string_view prefix;
    const char* module;
  };
  static constexpr Rule kRules[] = {
      {"shuffledef::cloudsim::EventLoop", "event_loop"},
      {"shuffledef::cloudsim::Network", "network"},
      {"shuffledef::cloudsim::Node::send", "network"},
      {"shuffledef::cloudsim::FaultInjector", "network"},
      {"shuffledef::cloudsim::ClientSwarm", "client_swarm"},
      {"shuffledef::cloudsim::ClientAgent", "client_agent"},
      {"shuffledef::cloudsim::PersistentBot", "client_agent"},
      {"shuffledef::cloudsim::NaiveBot", "client_agent"},
      {"shuffledef::cloudsim::Botmaster", "client_agent"},
      {"shuffledef::cloudsim::ReplicaServer", "replica_server"},
      {"shuffledef::cloudsim::LoadBalancer", "load_balancer"},
      {"shuffledef::cloudsim::CoordinationServer", "coordination_server"},
      {"shuffledef::core::", "core"},
      {"shuffledef::sim::", "sim"},
      {"shuffledef::util::", "util"},
      {"shuffledef::obs::", "util"},
      {"shuffledef::", "other"},
      {"perfbench::", "bench"},
  };
  for (const auto& rule : kRules) {
    if (head.substr(0, rule.prefix.size()) == rule.prefix) return rule.module;
  }
  return "";
}

/// Attribute one sample: the innermost frame that module_of() claims, or
/// "other" when no frame is the program's.  `frames` is innermost first.
inline std::string attribute(const std::vector<std::string>& frames) {
  for (const auto& f : frames) {
    auto m = module_of(f);
    if (!m.empty()) return m;
  }
  return "other";
}

}  // namespace perfbench
