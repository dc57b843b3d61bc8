#include "core/algorithm_one.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/span.h"
#include "util/math.h"

namespace shuffledef::core {
namespace {

// Sentinel in the assign_no table: "do not split — put everything on one
// replica" (used for n <= 1, m == 0, and padding).
constexpr std::uint16_t kNoSplit = 0;

double base_case(Count n, Count m) {
  return m == 0 ? static_cast<double>(n) : 0.0;
}

}  // namespace

struct AlgorithmOnePlanner::Tables {
  Count clients = 0;
  Count bots = 0;
  double value = 0.0;
  // assign_no[p][n][m] flattened; only filled when keep_argmax.
  std::vector<std::uint16_t> assign_no;

  [[nodiscard]] std::size_t idx(Count p, Count n, Count m) const {
    const auto stride_m = static_cast<std::size_t>(bots + 1);
    const auto stride_n = static_cast<std::size_t>(clients + 1) * stride_m;
    return static_cast<std::size_t>(p - 1) * stride_n +
           static_cast<std::size_t>(n) * stride_m + static_cast<std::size_t>(m);
  }
};

AlgorithmOnePlanner::AlgorithmOnePlanner(obs::Registry* registry)
    : registry_(registry) {
  if (registry_ != nullptr) {
    solves_ = registry_->counter("planner.algorithm1.solves");
    layers_ = registry_->counter("planner.algorithm1.layers");
    cells_ = registry_->counter("planner.algorithm1.cells");
  }
}

AlgorithmOnePlanner::Tables AlgorithmOnePlanner::solve(
    const ShuffleProblem& problem, bool keep_argmax) const {
  const obs::Span span(registry_, "planner.algorithm1.solve");
  solves_.inc();
  problem.validate();
  const Count N = problem.clients;
  const Count M = problem.bots;
  const Count P = problem.replicas;
  if (N > kMaxClients) {
    throw std::invalid_argument(
        "AlgorithmOnePlanner: N too large for the tabular DP; "
        "use GreedyPlanner or SeparableDpPlanner at this scale");
  }

  const auto layer_size =
      static_cast<std::size_t>(N + 1) * static_cast<std::size_t>(M + 1);
  std::size_t need = 2 * layer_size * sizeof(double);
  if (keep_argmax) {
    need += layer_size * static_cast<std::size_t>(P) * sizeof(std::uint16_t);
  }
  if (need > kMemoryLimitBytes) {
    throw std::invalid_argument(
        "AlgorithmOnePlanner: tables exceed kMemoryLimitBytes (" +
        std::to_string(need) + " bytes needed)");
  }

  Tables t;
  t.clients = N;
  t.bots = M;
  if (keep_argmax) {
    t.assign_no.assign(layer_size * static_cast<std::size_t>(P), kNoSplit);
  }

  auto cell = [&](std::vector<double>& layer, Count n, Count m) -> double& {
    return layer[static_cast<std::size_t>(n) * static_cast<std::size_t>(M + 1) +
                 static_cast<std::size_t>(m)];
  };

  // Layer p = 1.
  std::vector<double> prev(layer_size, 0.0);
  std::vector<double> cur(layer_size, 0.0);
  for (Count n = 0; n <= N; ++n) {
    for (Count m = 0; m <= std::min(n, M); ++m) {
      cell(prev, n, m) = base_case(n, m);
    }
  }
  // Every layer sweeps the same (n, m) cell set, so the count is computed
  // arithmetically once.
  std::uint64_t cells_per_layer = 0;
  if (cells_) {
    for (Count n = 0; n <= N; ++n) {
      cells_per_layer += static_cast<std::uint64_t>(std::min(n, M)) + 1;
    }
  }
  for (Count p = 2; p <= P; ++p) {
    for (Count n = 0; n <= N; ++n) {
      for (Count m = 0; m <= std::min(n, M); ++m) {
        // Degenerate cases where splitting is impossible or pointless.
        if (n <= 1 || m == 0) {
          cell(cur, n, m) = base_case(n, m);
          if (keep_argmax) t.assign_no[t.idx(p, n, m)] = kNoSplit;
          continue;
        }
        double best = -1.0;
        Count best_a = 1;
        for (Count a = 1; a <= n - 1; ++a) {
          // Hypergeometric expectation over b = bots landing on the bucket
          // of size a, with incremental pmf updates.
          const Count lo = std::max<Count>(0, a - (n - m));
          const Count hi = std::min(a, m);
          double pmf = util::hypergeometric_pmf(n, m, a, lo);
          util::KahanSum acc;
          for (Count b = lo; b <= hi; ++b) {
            if (b == 0) acc.add(static_cast<double>(a) * pmf);  // S(a,0,1)=a
            acc.add(pmf * cell(prev, n - a, m - b));
            // pmf(b+1)/pmf(b) for Hypergeom(total=n, successes=m, draws=a).
            const double bd = static_cast<double>(b);
            pmf *= (static_cast<double>(m) - bd) *
                   (static_cast<double>(a) - bd) /
                   ((bd + 1.0) * (static_cast<double>(n - m - a) + bd + 1.0));
          }
          if (acc.value() > best) {
            best = acc.value();
            best_a = a;
          }
        }
        cell(cur, n, m) = best;
        if (keep_argmax) {
          t.assign_no[t.idx(p, n, m)] = static_cast<std::uint16_t>(best_a);
        }
      }
    }
    layers_.inc();
    cells_.inc(cells_per_layer);
    std::swap(prev, cur);
  }
  t.value = cell(prev, N, M);
  return t;
}

double AlgorithmOnePlanner::value(const ShuffleProblem& problem) const {
  return solve(problem, /*keep_argmax=*/false).value;
}

AssignmentPlan AlgorithmOnePlanner::plan(const ShuffleProblem& problem) const {
  const Tables t = solve(problem, /*keep_argmax=*/true);
  std::vector<Count> counts;
  counts.reserve(static_cast<std::size_t>(problem.replicas));

  Count n = problem.clients;
  Count m = problem.bots;
  for (Count p = problem.replicas; p >= 1; --p) {
    if (p == 1) {
      counts.push_back(n);
      n = 0;
      break;
    }
    const std::uint16_t a_raw = t.assign_no[t.idx(p, n, m)];
    if (a_raw == kNoSplit) {
      counts.push_back(n);
      n = 0;
      // Remaining replicas stay empty.
      for (Count q = p - 1; q >= 1; --q) counts.push_back(0);
      break;
    }
    const auto a = static_cast<Count>(a_raw);
    counts.push_back(a);
    // Bots are not observable: continue the walk with the expected number
    // of bots remaining after removing a uniformly chosen bucket of size a.
    const double expected_left =
        static_cast<double>(m) * static_cast<double>(n - a) /
        static_cast<double>(n);
    m = std::min<Count>(static_cast<Count>(std::llround(expected_left)), n - a);
    n -= a;
  }
  return AssignmentPlan(std::move(counts));
}

}  // namespace shuffledef::core
