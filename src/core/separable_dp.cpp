#include "core/separable_dp.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <stdexcept>
#include <unordered_map>
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

// Cells the top-down solve may start, per replica, before it gives up and
// the bottom-up loop solves the problem instead.  Where the envelope is
// tight at the root (TopDown::tight) a solve needs P - 1 cells when P
// divides N and about P^2/4 otherwise, since buckets of N/P rounded down
// and up tie up to rounding in every order: at most 117 on the campaign-dp
// problems (P <= 20), against the 447 to 68,607 that its loose-envelope
// problems would need.  Eight per replica covers P^2/4 up to P = 32; past
// that an uneven split falls back after well under a millisecond.
constexpr Count kTopDownCellsPerReplica = 8;

// out[k] = max of v[k * block .. k * block + block - 1], clipped to v's end.
void block_max(const std::vector<double>& v, Count block,
               std::vector<double>& out) {
  const auto size = static_cast<Count>(v.size());
  out.resize(static_cast<std::size_t>((size + block - 1) / block));
  for (Count i = 0, k = 0; i < size; ++k) {
    double m = -std::numeric_limits<double>::infinity();
    for (const Count end = std::min(i + block, size); i < end; ++i) {
      m = std::max(m, v[static_cast<std::size_t>(i)]);
    }
    out[static_cast<std::size_t>(k)] = m;
  }
}

// g(x), the expected clients saved by one bucket of size x, and its block
// maxima; both solvers read them.
struct Gains {
  explicit Gains(const ShuffleProblem& problem)
      : clients(problem.clients),
        // Beyond N - M a bucket is guaranteed to contain a bot, so g is
        // zero there; exploiting that shrinks the candidate range when bots
        // dominate.
        x_max(problem.bots == 0 ? problem.clients
                                : problem.clients - problem.bots),
        g(static_cast<std::size_t>(problem.clients + 1), 0.0) {
    for (Count x = 0; x <= x_max; ++x) {
      g[static_cast<std::size_t>(x)] =
          static_cast<double>(x) *
          util::prob_no_bots(clients, problem.bots, x);
    }
    block_max(g, kFine, fine);
    block_max(g, kCoarse, coarse);
  }

  // Largest candidate x of cell D(., n).  Sizes above x_max are only useful
  // on the final dump bucket, where they are equivalent to leaving best at
  // the x = 0 candidate paired with D(p-1, n) — but D(p-1, n) already
  // covers "one big bucket" through its own base case, so the cap is
  // lossless.
  [[nodiscard]] Count hi(Count n) const {
    return std::min(n, x_max == 0 ? n : x_max);
  }

  Count clients;  // N
  Count x_max;
  std::vector<double> g;
  std::vector<double> fine;
  std::vector<double> coarse;
};

// ---------------------------------------------------------------------------
// Bottom-up: every cell of every stage, each by a block-bound search.

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

Solution solve_bottom_up(const Gains& gains, Count P, bool keep_argmax) {
  const Count N = gains.clients;
  const std::vector<double>& g = gains.g;

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
    const Stage stage{g.data(),           prev_rev.data(),  gains.fine.data(),
                      gains.coarse.data(), prev_fine.data(), prev_coarse.data(),
                      N};
    // Only D(P, N) of the last stage is ever read, so it alone is solved.
    for (Count n = p == P ? N : 0; n <= N; ++n) {
      double value = 0.0;
      hint = search_cell(stage, n, gains.hi(n), hint, value);
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

// ---------------------------------------------------------------------------
// Top-down: only the cells a surviving candidate needs, each child bounded
// before it is solved by the concave envelope of g.

class TopDown {
 public:
  explicit TopDown(const Gains& gains) : gains_(gains) {
    envelope();
    const std::vector<double>& g = gains.g;
    peak_ = static_cast<Count>(std::max_element(g.begin(), g.end()) - g.begin());
    // See bound(): q * slack_ covers the envelope's own rounding.
    slack_ = g[static_cast<std::size_t>(peak_)] *
             static_cast<double>(gains.clients + 2) * 0x1p-48;
  }

  // Whether the envelope is tight at the root: the even split's bucket
  // sizes floor(N/P) and ceil(N/P) are both envelope vertices, so the even
  // split attains the root's bound P env(N/P).  Otherwise (M-hat >= P: the
  // even split lies past g's peak, on a chord of the envelope) the optimum
  // dumps clients in one bucket, the bound is loose everywhere, and run()
  // would only spend its budget before the fallback.
  [[nodiscard]] bool tight(Count P) const {
    const Count N = gains_.clients;
    return vertex_[static_cast<std::size_t>(N / P)] &&
           vertex_[static_cast<std::size_t>((N + P - 1) / P)];
  }

  // Solves D(P, N), P >= 2; false if it needed more than the cell budget.
  bool run(Count P) {
    const Count budget = kTopDownCellsPerReplica * P;
    Count started = 1;
    memo_.reserve(static_cast<std::size_t>(budget + 1));
    // Explicit stack: a frame waits on a child of one replica fewer, so it
    // holds at most P - 1 frames however large P is.
    std::vector<Frame> stack;
    stack.reserve(static_cast<std::size_t>(P));
    stack.push_back(Frame{.p = P, .n = gains_.clients});
    while (!stack.empty()) {
      Frame& f = stack.back();
      const Count m = advance(f);
      if (m < 0) {
        memo_.emplace(key(f.p, f.n), Cell{f.best, f.best_x});
        stack.pop_back();
        continue;
      }
      if (++started > budget) return false;
      stack.push_back(Frame{.p = f.p - 1, .n = m});
    }
    return true;
  }

  [[nodiscard]] double value(Count p, Count n) const { return cell(p, n).value; }
  [[nodiscard]] Count argmax(Count p, Count n) const { return cell(p, n).argmax; }

 private:
  struct Cell {
    double value;
    Count argmax;
  };

  // Cell D(p, n) in progress.  Until `seeded`, the incumbent (best, best_x)
  // is unset and the cell waits on its seed candidate's child; after it,
  // candidates below x are settled.
  struct Frame {
    Count p;
    Count n;
    Count x = 0;
    bool seeded = false;
    double best = 0.0;
    Count best_x = 0;
  };

  // Upper concave envelope of g over [0, N], at every integer.  Its
  // vertices are points of g, so it is linear between consecutive integers.
  void envelope() {
    const std::vector<double>& g = gains_.g;
    const auto size = static_cast<Count>(g.size());
    std::vector<Count> hull;
    for (Count x = 0; x < size; ++x) {
      // Drop the last vertex unless it lies strictly above the chord from
      // the one before it to x (monotone chain, upper half).
      while (hull.size() >= 2) {
        const Count o = hull[hull.size() - 2];
        const Count a = hull.back();
        const double go = g[static_cast<std::size_t>(o)];
        if ((g[static_cast<std::size_t>(a)] - go) * static_cast<double>(x - o) >
            (g[static_cast<std::size_t>(x)] - go) * static_cast<double>(a - o)) {
          break;
        }
        hull.pop_back();
      }
      hull.push_back(x);
    }
    env_.assign(g.size(), g[0]);
    vertex_.assign(g.size(), false);
    vertex_[0] = true;
    for (std::size_t k = 1; k < hull.size(); ++k) {
      const Count a = hull[k - 1];
      const Count b = hull[k];
      const double ga = g[static_cast<std::size_t>(a)];
      const double gb = g[static_cast<std::size_t>(b)];
      for (Count x = a + 1; x < b; ++x) {
        env_[static_cast<std::size_t>(x)] =
            (ga * static_cast<double>(b - x) + gb * static_cast<double>(x - a)) /
            static_cast<double>(b - a);
      }
      env_[static_cast<std::size_t>(b)] = gb;
      vertex_[static_cast<std::size_t>(b)] = true;
    }
  }

  // Upper bound on D(q, m), q >= 1.  Jensen gives
  //   D(q, m) = sum_i g(x_i) <= sum_i env(x_i) <= q env(m / q),
  // and with j = m / q, r = m % q, q env(m / q) = (q - r) env(j) + r env(j+1)
  // because env is linear on [j, j+1].  Two margins keep the computed bound
  // from falling below the computed D:
  //  - relative (q + 8) 2^-50: the computed D is a sum of q nonnegative
  //    terms rounded q - 1 times, so at most (1 + 2^-53)^(q-1) times its
  //    exact value, and the products and sum below lose a few ulps more;
  //    the margin covers both eightfold;
  //  - absolute q slack_, slack_ = (N + 2) 2^-48 max g: a double orientation
  //    test misjudges a point only when it lies within a few ulps of max g
  //    of the chord, which moves the envelope by at most that much, and the
  //    interpolation rounds by as little; the margin allows 32 ulps of
  //    max g for each of the N + 1 points, the worst case where every
  //    error adds up.
  // Together they are under 1e-10 of the value at N = 10^4, far below the
  // gap between two plans that differ in more than rounding.
  [[nodiscard]] double bound(Count q, Count m) const {
    const Count j = m / q;
    const Count r = m % q;
    double e = env_[static_cast<std::size_t>(j)] * static_cast<double>(q - r);
    if (r > 0) e += env_[static_cast<std::size_t>(j + 1)] * static_cast<double>(r);
    return e * (1.0 + static_cast<double>(q + 8) * 0x1p-50) +
           static_cast<double>(q) * slack_;
  }

  // Upper bound on D(q, m) over lo <= m <= up.  m -> q env(m / q) is concave
  // with its maximum at q * peak_ (peak_ = argmax g, an envelope vertex), so
  // over the window it peaks at that point clamped into it: one bound() call
  // per block, not one per candidate.
  [[nodiscard]] double window_bound(Count q, Count lo, Count up) const {
    return bound(q, std::clamp(q * peak_, lo, up));
  }

  // D(q, m) if known: q == 1 is g itself, larger q come from the memo.
  [[nodiscard]] const double* known(Count q, Count m) const {
    if (q == 1) return &gains_.g[static_cast<std::size_t>(m)];
    const auto it = memo_.find(key(q, m));
    return it == memo_.end() ? nullptr : &it->second.value;
  }

  // Scans cell f from where it stopped, with the block-bound rule of
  // search_cell() but the envelope bound in place of D(p-1, .), which is
  // not solved.  Returns the n of a child D(p-1, n) it must know before it
  // can go on, or -1 once the cell is solved.
  Count advance(Frame& f) const {
    const Count q = f.p - 1;
    const Count hi = gains_.hi(f.n);
    const std::vector<double>& g = gains_.g;
    if (!f.seeded) {
      // Seed: the even split's bucket, the envelope optimum when M-hat < P.
      const Count x0 = std::min(f.n / f.p, hi);
      const double* d = known(q, f.n - x0);
      if (d == nullptr) return f.n - x0;
      f.best = g[static_cast<std::size_t>(x0)] + *d;
      f.best_x = x0;
      f.seeded = true;
    }
    const auto beats = [&](double v, Count x) {
      return v > f.best || (v == f.best && x < f.best_x);
    };
    while (f.x <= hi) {
      // Bounds over [f.x, block end]: the rest of a block partly settled.
      const Count c_end = std::min((f.x / kCoarse + 1) * kCoarse - 1, hi);
      if (!beats(gains_.coarse[static_cast<std::size_t>(f.x / kCoarse)] +
                     window_bound(q, f.n - c_end, f.n - f.x),
                 f.x)) {
        f.x = c_end + 1;
        continue;
      }
      const Count f_end = std::min((f.x / kFine + 1) * kFine - 1, hi);
      if (!beats(gains_.fine[static_cast<std::size_t>(f.x / kFine)] +
                     window_bound(q, f.n - f_end, f.n - f.x),
                 f.x)) {
        f.x = f_end + 1;
        continue;
      }
      for (; f.x <= f_end; ++f.x) {
        const double gx = g[static_cast<std::size_t>(f.x)];
        const Count m = f.n - f.x;
        if (!beats(gx + bound(q, m), f.x)) continue;
        const double* d = known(q, m);
        if (d == nullptr) return m;
        if (const double v = gx + *d; beats(v, f.x)) {
          f.best = v;
          f.best_x = f.x;
        }
      }
    }
    return -1;
  }

  [[nodiscard]] std::uint64_t key(Count p, Count n) const {
    return static_cast<std::uint64_t>(p) *
               static_cast<std::uint64_t>(gains_.clients + 1) +
           static_cast<std::uint64_t>(n);
  }

  [[nodiscard]] const Cell& cell(Count p, Count n) const {
    return memo_.at(key(p, n));
  }

  const Gains& gains_;
  std::vector<double> env_;
  std::vector<bool> vertex_;
  Count peak_ = 0;
  double slack_ = 0.0;
  std::unordered_map<std::uint64_t, Cell> memo_;
};

// D(P, N) top-down, P >= 2, or nothing if the envelope is loose at the root
// or the cell budget ran out.
std::optional<Solution> solve_top_down(const Gains& gains, Count P,
                                       bool keep_argmax) {
  const Count N = gains.clients;
  TopDown td(gains);
  if (!td.tight(P) || !td.run(P)) return std::nullopt;
  Solution s;
  s.value = td.value(P, N);
  if (keep_argmax) {
    s.counts.reserve(static_cast<std::size_t>(P));
    Count n = N;
    for (Count p = P; p >= 2; --p) {
      const Count x = td.argmax(p, n);
      s.counts.push_back(x);
      n -= x;
    }
    s.counts.push_back(n);
  }
  return s;
}

Solution solve(const ShuffleProblem& problem, bool keep_argmax) {
  problem.validate();
  const Gains gains(problem);
  // One replica takes everything, which the bottom-up loop returns as is.
  if (problem.replicas >= 2) {
    if (auto s = solve_top_down(gains, problem.replicas, keep_argmax)) {
      return *std::move(s);
    }
  }
  return solve_bottom_up(gains, problem.replicas, keep_argmax);
}

}  // namespace

double SeparableDpPlanner::value(const ShuffleProblem& problem) const {
  return solve(problem, /*keep_argmax=*/false).value;
}

AssignmentPlan SeparableDpPlanner::plan(const ShuffleProblem& problem) const {
  return AssignmentPlan(solve(problem, /*keep_argmax=*/true).counts);
}

}  // namespace shuffledef::core
