// Campaign workloads: grids of ShuffleSimulator cells fanned out by
// SweepRunner, one cell per operation.
//
//   campaign-dp     the exact separable-DP planner with the MLE estimator,
//                   N <= 10^4, P in {10, 20}.  Cells with M < P draw their
//                   seeds from --seed; the three livelock cells (M >= P,
//                   N = 2000) run at the fixed seed 11 and fail every time
//                   (see README "Known fault").
//   campaign-paper  the paper's Fig. 8 points: greedy + MLE at P = 1000,
//                   bots ramping in at 5000 per 3 shuffles.
//
// After the timed rounds, every distinct (N, M-hat, P) the campaign decided
// is re-solved once, uncached, through make_planner and checked; the host
// times of the problems decided by cells that reached 95 % are the
// re-planning latency.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <optional>
#include <set>
#include <tuple>

#include "core/plan.h"
#include "core/plan_metrics.h"
#include "core/planner.h"
#include "report.h"
#include "sim/shuffle_sim.h"
#include "sim/sweep.h"
#include "util/math.h"
#include "util/random.h"
#include "workloads.h"

namespace perfbench {
namespace {

using shuffledef::core::Count;
namespace core = shuffledef::core;
namespace sim = shuffledef::sim;
namespace util = shuffledef::util;
using Clock = std::chrono::steady_clock;

struct Cell {
  Count benign = 0;
  Count bots = 0;
  Count replicas = 0;
  std::uint64_t seed = 0;
  Count round_cap = 0;
  bool ramp = false;  // bots arrive at 5000 per 3 shuffles (Fig. 8 model)
};

struct Problem {
  Count clients = 0;
  Count bots = 0;
  Count replicas = 0;
  auto operator<=>(const Problem&) const = default;
};

struct CellOutcome {
  std::optional<Count> to95;
  std::optional<Count> to80;
  Count saved = 0;
  Count rounds = 0;
  std::vector<Problem> problems;  // every executed round's decided problem
  sim::RoundStats first;          // first executed round
};

struct Campaign {
  std::string planner;
  std::vector<Cell> cells;
};

sim::ShuffleSimConfig cell_config(const Campaign& c, const Cell& cell,
                                  shuffledef::obs::Registry* registry) {
  sim::ShuffleSimConfig cfg;
  cfg.benign = {.initial = cell.benign, .rate = 0.0, .total_cap = cell.benign};
  cfg.bots = {.initial = cell.ramp ? 0 : cell.bots,
              .rate = cell.ramp ? 5000.0 / 3.0 : 0.0,
              .total_cap = cell.bots};
  cfg.controller.planner = c.planner;
  cfg.controller.replicas = cell.replicas;
  cfg.controller.use_mle = true;
  if (cell.replicas > 256) {
    cfg.controller.mle.engine = core::LikelihoodEngine::kGaussian;
  }
  cfg.target_fraction = 0.95;
  cfg.max_rounds = cell.round_cap;
  cfg.seed = cell.seed;
  cfg.registry = registry;
  return cfg;
}

CellOutcome run_cell(const Campaign& c, const Cell& cell,
                     shuffledef::obs::Registry* registry) {
  const auto result = sim::ShuffleSimulator(cell_config(c, cell, registry)).run();
  CellOutcome out;
  out.to95 = result.shuffles_to_fraction(0.95);
  out.to80 = result.shuffles_to_fraction(0.80);
  out.saved = result.saved_total;
  bool first = true;
  for (const auto& r : result.rounds) {
    if (r.faulted || r.declined) continue;
    ++out.rounds;
    out.problems.push_back(
        {r.pool_benign + r.pool_bots, r.bot_estimate, r.replicas});
    if (first) out.first = r;
    first = false;
  }
  return out;
}

struct GridRun {
  std::vector<CellOutcome> outcomes;
  shuffledef::obs::MetricsSnapshot metrics;
  double wall_s = 0.0;        // our call into SweepRunner, end to end
  double sweep_wall_s = 0.0;  // the sweep's own dispatch window
  double cell_wall_p50_s = 0.0;
  double cell_wall_max_s = 0.0;
  std::size_t cells_stolen = 0;
};

GridRun run_grid(const Campaign& c, std::size_t jobs) {
  sim::SweepPlan plan;
  plan.cell_count = c.cells.size();
  for (const auto& cell : c.cells) {
    plan.seeds.push_back(cell.seed);
    plan.cost_hints.push_back(static_cast<double>(cell.benign) *
                              static_cast<double>(cell.benign + cell.bots));
  }
  const auto t = Clock::now();
  sim::SweepRunner runner(sim::SweepConfig{.jobs = jobs});
  auto sweep = runner.run(plan, [&](const sim::SweepCell& sc) {
    return run_cell(c, c.cells[sc.index], sc.registry);
  });
  GridRun g;
  g.wall_s = since(t);
  for (std::size_t i = 0; i < c.cells.size(); ++i) {
    g.outcomes.push_back(sweep.value(i));
  }
  g.metrics = std::move(sweep.metrics);
  g.sweep_wall_s = sweep.wall_seconds;
  g.cell_wall_p50_s = sweep.cell_wall_p50_s;
  g.cell_wall_max_s = sweep.cell_wall_max_s;
  g.cells_stolen = sweep.cells_stolen;
  return g;
}

bool same_outcomes(const std::vector<CellOutcome>& a,
                   const std::vector<CellOutcome>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].to95 != b[i].to95 || a[i].saved != b[i].saved ||
        a[i].problems != b[i].problems) {
      return false;
    }
  }
  return true;
}

struct Replay {
  std::size_t problems = 0;  // distinct problems re-solved and checked
  std::vector<double> solve_ms;  // of problems decided by cells that hit 95 %
  double total_s = 0.0;          // sum of solve_ms, in seconds
  std::size_t invalid = 0;
  std::size_t worse_than_baseline = 0;
};

// Re-solve every distinct decided problem once on a fresh planner (no
// controller cache in the way), check the plan, and time it.  For the
// exact planner, also check each plan against greedy and even on the same
// problem.  Only problems decided by cells that reached the target count
// toward the latency figures, so a known fault that traps some cells in a
// loop neither fills nor skews them.
Replay replay(const std::string& planner_name,
              const std::vector<CellOutcome>& outcomes, bool compare) {
  std::set<Problem> distinct;
  std::set<Problem> timed;
  for (const auto& o : outcomes) {
    distinct.insert(o.problems.begin(), o.problems.end());
    if (o.to95) timed.insert(o.problems.begin(), o.problems.end());
  }
  const auto planner = core::make_planner(planner_name);
  const auto greedy = core::make_planner("greedy");
  const auto even = core::make_planner("even");
  Replay r;
  r.problems = distinct.size();
  for (const auto& p : distinct) {
    const core::ShuffleProblem problem{
        .clients = p.clients, .bots = p.bots, .replicas = p.replicas};
    const auto t = Clock::now();
    const auto plan = planner->plan(problem);
    const double s = since(t);
    if (timed.count(p) != 0) {
      r.solve_ms.push_back(1e3 * s);
      r.total_s += s;
    }
    try {
      plan.validate_for(problem);
    } catch (const std::exception&) {
      ++r.invalid;
      continue;
    }
    if (!compare) continue;
    const double value = core::expected_saved(problem, plan);
    const double slack = 1e-9 * std::max(1.0, std::abs(value));
    for (const auto* base : {greedy.get(), even.get()}) {
      if (core::expected_saved(problem, base->plan(problem)) > value + slack) {
        ++r.worse_than_baseline;
      }
    }
  }
  return r;
}

// Set-up of a campaign: the math tables (built on first use only) and one
// small warm-up cell, so lazy first-call work never lands in a timed grid.
void set_up(const Campaign& c, const Cell& warm_cell) {
  util::warm_math_tables();
  shuffledef::obs::Registry registry;
  (void)run_cell(c, warm_cell, &registry);
}

using ExtraChecks =
    std::function<void(const std::vector<CellOutcome>&, RunResult&)>;

RunResult run_campaign(const RunOptions& options, const Campaign& c,
                       const Cell& warm_cell, bool compare_plans,
                       const ExtraChecks& extra_checks) {
  RunResult result;
  std::optional<GridRun> first;
  bool repeatable = true;
  ColdSetup cold([&] { set_up(c, warm_cell); });
  set_up(c, warm_cell);
  // Timed grids run their cells one after another in this thread: with
  // cells in parallel the slowest cell and the host's other load set the
  // wall, and it spread past its bound between runs of the same code.
  const auto log = run_rounds(options, 1, cold, [&] {
    auto g = run_grid(c, 1);
    const double wall = g.wall_s;
    if (!first) {
      first = std::move(g);
    } else {
      repeatable = repeatable && same_outcomes(first->outcomes, g.outcomes);
    }
    return wall;
  });
  record_rounds(options, log, result);
  result.check(repeatable, "a repeated grid gave different outcomes");
  // The sweep layer, untimed: the same grid with cells in parallel must
  // reproduce the serial outcomes exactly.
  const std::size_t jobs = static_cast<std::size_t>(std::max(2, options.threads));
  const auto parallel = run_grid(c, jobs);
  result.check(same_outcomes(first->outcomes, parallel.outcomes),
               "the grid at " + std::to_string(jobs) +
                   " sweep jobs gave different outcomes than at 1");
  result.envelope["sweep_jobs"] =
      "1 (timed), " + std::to_string(jobs) + " (untimed check)";
  result.envelope["cells_per_round"] = std::to_string(c.cells.size());

  const auto& outs = first->outcomes;
  std::vector<std::optional<std::int64_t>> to95;
  double saved = 0.0;
  std::int64_t missed = 0;
  double rounds = 0.0;
  for (const auto& o : outs) {
    to95.push_back(o.to95);
    saved += static_cast<double>(o.saved);
    rounds += static_cast<double>(o.rounds);
    if (!o.to95) ++missed;
  }
  const auto rounds_done = static_cast<std::int64_t>(log.rounds());
  result.attempted = rounds_done * static_cast<std::int64_t>(outs.size());
  result.failed = rounds_done * missed;
  result.metrics["benign_isolated"] = saved;
  result.metrics["outcome.shuffles_to_95"] = static_cast<double>(
      capped_shuffles_sum(to95, c.cells.front().round_cap));
  result.metrics["shuffle_sim.rounds"] = rounds;

  const auto& m = first->metrics;
  record_controller(m, result);
  const double round_s = span_total_s(m, "sim.run/round");
  const double decide_s = span_total_s(m, "round/controller.decide");
  result.metrics["shuffle_sim.placement_pct"] =
      round_s <= 0.0 ? 0.0 : 100.0 * (round_s - decide_s) / round_s;
  result.metrics["sweep.cells_stolen"] = static_cast<double>(parallel.cells_stolen);
  result.metrics["sweep.cell_wall_max_pct"] =
      100.0 * parallel.cell_wall_max_s / parallel.sweep_wall_s;
  result.metrics["sweep.cell_wall_max_over_p50"] =
      parallel.cell_wall_p50_s <= 0.0
          ? 0.0
          : parallel.cell_wall_max_s / parallel.cell_wall_p50_s;

  const auto r = replay(c.planner, outs, compare_plans);
  result.check(r.invalid == 0,
               std::to_string(r.invalid) + " replayed plans are invalid");
  result.check(r.worse_than_baseline == 0,
               std::to_string(r.worse_than_baseline) +
                   " replayed plans score below greedy or even");
  const std::size_t n = r.solve_ms.size();
  result.check(percentile_supported(n, 0.9),
               "only " + std::to_string(n) +
                   " distinct re-planning problems from cells that reached "
                   "95 %: too few for a p90");
  result.metrics["planner.solves"] = static_cast<double>(r.problems);
  result.metrics["planner.uncached_solves_per_s"] =
      r.total_s <= 0.0 ? 0.0 : static_cast<double>(n) / r.total_s;
  const double p50 = percentile(r.solve_ms, 0.5);
  const double p90 = percentile(r.solve_ms, 0.9);
  result.metrics["replan_ms_p50"] = p50;
  result.metrics["replan_ms_p90"] = p90;
  result.metrics["planner.replan_p90_over_p50"] = p50 <= 0.0 ? 0.0 : p90 / p50;
  if (extra_checks) extra_checks(outs, result);
  return result;
}

}  // namespace

RunResult run_campaign_dp(const RunOptions& options) {
  Campaign c;
  c.planner = "dp";
  constexpr Count kCap = 30;
  // Cells with fewer bots than replicas: an even split can never have every
  // replica attacked, so the dp + MLE livelock below cannot start.  They
  // alone decide the problems the re-planning p90 is taken over, so the
  // cheap N = 2000 cells run three times with fresh seeds, for 100 distinct
  // problems; the N = 10^4 cells, whose solves are the slowest, take the
  // largest share of the wall.
  std::uint64_t state = options.seed;
  const auto add = [&](Count n, std::initializer_list<Count> bots, int reps) {
    for (int r = 0; r < reps; ++r) {
      for (const Count p : {10, 20}) {
        for (const Count m : bots) {
          c.cells.push_back({n, m, p, util::splitmix64(state), kCap, false});
        }
      }
    }
  };
  add(2000, {2, 3, 4, 5, 6, 8}, 3);
  add(5000, {3, 8}, 1);
  add(10000, {3}, 1);
  // The dp + MLE livelock (README, "Known faults"): with M >= P the planner
  // and the estimator lock into a cycle that saves almost nobody.  Fixed
  // seed, so every run fails exactly these cells.
  for (const auto& [n, m, p] : {std::tuple<Count, Count, Count>{2000, 100, 10},
                                {2000, 300, 10},
                                {2000, 300, 20}}) {
    c.cells.push_back({n, m, p, 11, kCap, false});
  }
  const Cell warm{1000, 3, 10, 1, kCap, false};
  return run_campaign(options, c, warm, true, nullptr);
}

RunResult run_campaign_paper(const RunOptions& options) {
  Campaign c;
  c.planner = "greedy";
  constexpr Count kCap = 2000;
  constexpr int kReps = 8;
  std::uint64_t state = options.seed;
  for (const Count benign : {10000, 50000}) {
    for (const Count bots : {1000, 10000, 100000}) {
      for (int r = 0; r < kReps; ++r) {
        c.cells.push_back(
            {benign, bots, 1000, util::splitmix64(state), kCap, true});
      }
    }
  }
  const Cell warm{10000, 10000, 1000, 1, kCap, true};
  const auto checks = [&](const std::vector<CellOutcome>& outs,
                          RunResult& result) {
    // Fig. 8 verdict: ten times the bots costs less than three times the
    // shuffles (80 % saved, summed over both populations and all reps).
    double few = 0.0;
    double many = 0.0;
    // First-round check: the saved count against the exact distribution
    // of the plan the controller chose, on the true pool make-up.
    double saved = 0.0;
    double expected = 0.0;
    double variance = 0.0;
    const auto greedy = core::make_planner(c.planner);
    for (std::size_t i = 0; i < outs.size(); ++i) {
      const auto& o = outs[i];
      const Count bots = c.cells[i].bots;
      if (bots == 10000) few += static_cast<double>(o.to80.value_or(kCap));
      if (bots == 100000) many += static_cast<double>(o.to80.value_or(kCap));
      const auto& f = o.first;
      const core::ShuffleProblem truth{.clients = f.pool_benign + f.pool_bots,
                                       .bots = f.pool_bots,
                                       .replicas = f.replicas};
      const core::ShuffleProblem decided{.clients = truth.clients,
                                         .bots = f.bot_estimate,
                                         .replicas = f.replicas};
      const auto moments =
          core::saved_count_moments(truth, greedy->plan(decided));
      saved += static_cast<double>(f.saved);
      expected += moments.mean;
      variance += moments.variance;
    }
    result.check(many < 3.0 * few,
                 "Fig. 8 verdict: 10x bots cost " + std::to_string(many / few) +
                     "x the shuffles (must be < 3x)");
    // A 99 % interval would fail one correct run in a hundred, and the
    // benchmark is run dozens of times per comparison: 99.99 % keeps a
    // false alarm out of any realistic batch.
    const double z =
        std::abs(saved - expected) / std::sqrt(std::max(variance, 1e-12));
    result.check(z <= 3.891, "first-round saved " + std::to_string(saved) +
                                 " vs expected " + std::to_string(expected) +
                                 " (z = " + std::to_string(z) + ")");
    result.metrics["campaign.fig8_ratio"] = many / few;
    result.metrics["campaign.first_round_z"] = z;
  };
  return run_campaign(options, c, warm, false, checks);
}

}  // namespace perfbench
