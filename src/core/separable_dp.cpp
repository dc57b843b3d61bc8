#include "core/separable_dp.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <vector>

#include "util/math.h"

namespace shuffledef::core {
namespace {

struct Solution {
  double value = 0.0;
  std::vector<Count> counts;
};

// Block sizes of the two-level bound search; kCoarse is a multiple of kFine
// so every coarse block splits into whole fine blocks.
constexpr Count kFine = 16;
constexpr Count kCoarse = 256;

// out[k] = max of v[k * block .. k * block + block - 1], clipped to v's end.
void block_max(const std::vector<double>& v, Count block,
               std::vector<double>& out) {
  const auto size = static_cast<Count>(v.size());
  out.assign(static_cast<std::size_t>((size + block - 1) / block),
             -std::numeric_limits<double>::infinity());
  for (Count i = 0; i < size; ++i) {
    double& m = out[static_cast<std::size_t>(i / block)];
    m = std::max(m, v[static_cast<std::size_t>(i)]);
  }
}

// One DP stage's inputs: g, D(p-1, .) and both arrays' block maxima.
struct Stage {
  const double* g;
  const double* prev_rev;  // prev_rev[k] = D(p-1, N - k)
  const double* g_fine;
  const double* g_coarse;
  const double* prev_fine;
  const double* prev_coarse;
  Count clients;           // N
};

// Cell D(p, n) = max_{0<=x<=hi} g(x) + D(p-1, n-x) and its first argmax.
//
// Incumbent (best, best_x) starts at a real candidate, `hint`, and a block
// of x is visited only if its bound could beat the incumbent in the order
// (value descending, index ascending) that the plain scan's strict
// `v > best` loop realises.  A block's bound is max g over the block plus max
// D(p-1, .) over the (at most two) aligned blocks that its n-x window
// touches.  Round-to-nearest addition is monotone, so every candidate in the
// block is <= fl(bound); a skipped block therefore holds no candidate that
// beats, or ties at a smaller index, a real candidate already seen.  The
// returned max and first argmax are bit-identical to the full scan.
Count search_cell(const Stage& s, Count n, Count hi, Count hint,
                  double& value) {
  // pr[x] = D(p-1, n-x), read forwards so the candidate loop vectorizes
  // (reading prev backwards measured ~25% slower at N = 10^4).
  const double* pr = s.prev_rev + (s.clients - n);
  const Count x0 = std::min(hint, hi);
  double best = s.g[x0] + pr[x0];
  Count best_x = x0;
  const auto beats = [&](double v, Count x) {
    return v > best || (v == best && x < best_x);
  };
  const auto window_max = [&](const double* blocks, Count block, Count lo,
                              Count up) {
    return std::max(blocks[(n - up) / block], blocks[(n - lo) / block]);
  };
  for (Count a = 0; a <= hi; a += kCoarse) {
    const Count a_end = std::min(a + kCoarse - 1, hi);
    if (!beats(s.g_coarse[a / kCoarse] +
                   window_max(s.prev_coarse, kCoarse, a, a_end),
               a)) {
      continue;
    }
    for (Count f = a; f <= a_end; f += kFine) {
      const Count f_end = std::min(f + kFine - 1, a_end);
      if (!beats(s.g_fine[f / kFine] + window_max(s.prev_fine, kFine, f, f_end),
                 f)) {
        continue;
      }
      double cand[kFine];
      double block_best = -std::numeric_limits<double>::infinity();
      const Count len = f_end - f + 1;
      for (Count i = 0; i < len; ++i) {
        cand[i] = s.g[f + i] + pr[f + i];
        block_best = cand[i] > block_best ? cand[i] : block_best;
      }
      // The block's own winner is its max at the first index attaining it.
      if (!beats(block_best, f)) continue;
      Count i = 0;
      while (cand[i] != block_best) ++i;
      if (beats(block_best, f + i)) {
        best = block_best;
        best_x = f + i;
      }
    }
  }
  value = best;
  return best_x;
}

Solution solve(const ShuffleProblem& problem, bool keep_argmax) {
  problem.validate();
  const Count N = problem.clients;
  const Count M = problem.bots;
  const Count P = problem.replicas;

  // g(x): expected clients saved by one bucket of size x.  Beyond N - M a
  // bucket is guaranteed to contain a bot, so g is zero there; exploiting
  // that shrinks the candidate range when bots dominate.
  const Count x_max = M == 0 ? N : N - M;
  std::vector<double> g(static_cast<std::size_t>(N + 1), 0.0);
  for (Count x = 0; x <= x_max; ++x) {
    g[static_cast<std::size_t>(x)] =
        static_cast<double>(x) * util::prob_no_bots(N, M, x);
  }

  // D(1, n) = g(n): a single replica must take everything.
  std::vector<double> prev = g;
  std::vector<double> cur(static_cast<std::size_t>(N + 1), 0.0);

  std::vector<std::uint32_t> argmax;
  if (keep_argmax) {
    argmax.assign(static_cast<std::size_t>(P) * static_cast<std::size_t>(N + 1), 0);
  }
  auto arg_at = [&](Count p, Count n) -> std::uint32_t& {
    return argmax[static_cast<std::size_t>(p - 1) * static_cast<std::size_t>(N + 1) +
                  static_cast<std::size_t>(n)];
  };
  if (keep_argmax) {
    for (Count n = 0; n <= N; ++n) arg_at(1, n) = static_cast<std::uint32_t>(n);
  }

  std::vector<double> g_fine;
  std::vector<double> g_coarse;
  block_max(g, kFine, g_fine);
  block_max(g, kCoarse, g_coarse);
  std::vector<double> prev_rev(static_cast<std::size_t>(N + 1), 0.0);
  std::vector<double> prev_fine;
  std::vector<double> prev_coarse;

  // The argmax of the cell just solved seeds the next cell's incumbent:
  // argmax(p, n) sits near argmax(p, n-1), and the last stage's single cell
  // starts from argmax(p-1, N).  D(1, N) takes everything, so the seed
  // before stage 2 is N.
  Count hint = N;
  for (Count p = 2; p <= P; ++p) {
    std::reverse_copy(prev.begin(), prev.end(), prev_rev.begin());
    block_max(prev, kFine, prev_fine);
    block_max(prev, kCoarse, prev_coarse);
    const Stage stage{g.data(),         prev_rev.data(),  g_fine.data(),
                      g_coarse.data(),  prev_fine.data(), prev_coarse.data(),
                      N};
    // Only D(P, N) of the last stage is ever read, so it alone is solved.
    for (Count n = p == P ? N : 0; n <= N; ++n) {
      // Sizes above x_max are only useful on the final dump bucket, where
      // they are equivalent to leaving best at the x = 0 candidate paired
      // with D(p-1, n) — but D(p-1, n) already covers "one big bucket"
      // through its own base case, so the cap is lossless.
      const Count hi = std::min(n, x_max == 0 ? n : x_max);
      double value = 0.0;
      hint = search_cell(stage, n, hi, hint, value);
      cur[static_cast<std::size_t>(n)] = value;
      if (keep_argmax) arg_at(p, n) = static_cast<std::uint32_t>(hint);
    }
    std::swap(prev, cur);
  }

  Solution s;
  s.value = prev[static_cast<std::size_t>(N)];
  if (keep_argmax) {
    s.counts.reserve(static_cast<std::size_t>(P));
    Count n = N;
    for (Count p = P; p >= 1; --p) {
      const auto x = static_cast<Count>(arg_at(p, n));
      s.counts.push_back(x);
      n -= x;
    }
    if (n != 0) throw std::logic_error("SeparableDp: walk-back mismatch");
  }
  return s;
}

}  // namespace

double SeparableDpPlanner::value(const ShuffleProblem& problem) const {
  return solve(problem, /*keep_argmax=*/false).value;
}

AssignmentPlan SeparableDpPlanner::plan(const ShuffleProblem& problem) const {
  return AssignmentPlan(solve(problem, /*keep_argmax=*/true).counts);
}

}  // namespace shuffledef::core
