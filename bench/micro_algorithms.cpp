// Microbenchmarks (google-benchmark) for the hot paths: planners, the MLE,
// the hypergeometric sampler, one simulated shuffle round, and the event
// loop.  These are engineering-facing numbers, complementing the paper's
// Figures 5/6.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "core/greedy_planner.h"
#include "core/mle_estimator.h"
#include "core/separable_dp.h"
#include "core/shuffle_controller.h"
#include "cloudsim/event_loop.h"
#include "obs/registry.h"
#include "obs/span.h"
#include "sim/shuffle_sim.h"
#include "util/random.h"

using namespace shuffledef;
using core::Count;

namespace {

void BM_GreedyPlan(benchmark::State& state) {
  const core::ShuffleProblem problem{state.range(0), state.range(0) / 10,
                                     std::max<Count>(2, state.range(0) / 100)};
  core::GreedyPlanner planner;
  for (auto _ : state) {
    benchmark::DoNotOptimize(planner.plan(problem));
  }
}
BENCHMARK(BM_GreedyPlan)->Arg(1000)->Arg(10000)->Arg(150000);

void BM_SeparableDpValue(benchmark::State& state) {
  const core::ShuffleProblem problem{state.range(0), state.range(0) / 2,
                                     state.range(0) / 5};
  core::SeparableDpPlanner planner;
  for (auto _ : state) {
    benchmark::DoNotOptimize(planner.value(problem));
  }
}
BENCHMARK(BM_SeparableDpValue)->Arg(200)->Arg(500)->Arg(1000);

// Exact re-planning at campaign scale: the dp planner's plan() at
// N = 10^4 for the bot counts that bracket its pruning — M = 1 (concave,
// flat-topped candidates), M = 3, and M = 1000 (the candidate peak is
// sharp) — and at a pool size P does not divide, as the campaigns' pools
// shrink: M = 3 < P (solved top-down, buckets of two sizes), M = 38 and
// M = 200 >= P (solved bottom-up).
void BM_SeparableDpPlan(benchmark::State& state) {
  const core::ShuffleProblem problem{state.range(0), state.range(2),
                                     state.range(1)};
  core::SeparableDpPlanner planner;
  for (auto _ : state) {
    benchmark::DoNotOptimize(planner.plan(problem));
  }
}
BENCHMARK(BM_SeparableDpPlan)
    ->ArgNames({"N", "P", "M"})
    ->ArgsProduct({{10000}, {10, 20}, {1, 3, 1000}})
    ->ArgsProduct({{9833}, {20}, {3, 38, 200}})
    ->Unit(benchmark::kMillisecond);

void BM_ControllerDecide(benchmark::State& state) {
  // One controller decision per iteration over a recurring set of pool
  // sizes, as in a steady-state shuffle loop.  Arg: planner-cache capacity
  // (0 = caching disabled).  The hit_rate counter reports cache efficacy.
  core::ControllerConfig cfg;
  cfg.planner = "greedy";
  cfg.replicas = 200;
  cfg.use_mle = false;
  cfg.planner_cache_capacity = static_cast<std::size_t>(state.range(0));
  core::ShuffleController controller(cfg);
  controller.set_bot_estimate(2000);
  const Count pools[4] = {100000, 95000, 90000, 85000};
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(controller.decide(pools[i++ % 4], std::nullopt));
  }
  if (const auto* cache = controller.planner_cache()) {
    state.counters["hit_rate"] = cache->hit_rate();
  }
}
BENCHMARK(BM_ControllerDecide)->Arg(0)->Arg(16);

void BM_MleEstimate(benchmark::State& state) {
  const auto p = static_cast<std::size_t>(state.range(0));
  const core::AssignmentPlan plan(std::vector<Count>(p, 100));
  util::Rng rng(1);
  // ~2 bots per replica on average: most replicas attacked, some clean, so
  // the estimator runs its full refinement search rather than the
  // all-attacked shortcut.
  const auto placed = rng.multivariate_hypergeometric(
      plan.counts(), static_cast<Count>(p) * 2);
  std::vector<bool> attacked;
  for (const auto b : placed) attacked.push_back(b > 0);
  const core::ShuffleObservation obs{plan, attacked};
  core::MleOptions opts;
  opts.engine = state.range(1) == 0 ? core::LikelihoodEngine::kExact
                                    : core::LikelihoodEngine::kGaussian;
  const core::MleEstimator mle(opts);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mle.estimate(obs));
  }
}
BENCHMARK(BM_MleEstimate)
    ->Args({100, 0})   // exact engine, Figure-7 scale
    ->Args({100, 1})   // Gaussian engine, same scale
    ->Args({1000, 1}); // Gaussian engine, live-controller scale

void BM_HypergeometricSample(benchmark::State& state) {
  util::Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.hypergeometric(150000, 100000, 150));
  }
}
BENCHMARK(BM_HypergeometricSample);

void BM_ShuffleRound(benchmark::State& state) {
  // One full simulated shuffle round at Figure-8 scale.
  for (auto _ : state) {
    state.PauseTiming();
    sim::ShuffleSimConfig cfg;
    cfg.benign = {.initial = 50000, .rate = 0.0, .total_cap = 50000};
    cfg.bots = {.initial = 100000, .rate = 0.0, .total_cap = 100000};
    cfg.controller.planner = "greedy";
    cfg.controller.replicas = 1000;
    cfg.controller.use_mle = true;
    cfg.controller.mle.engine = core::LikelihoodEngine::kGaussian;
    cfg.max_rounds = 1;
    cfg.seed = 3;
    sim::ShuffleSimulator simulator(cfg);
    state.ResumeTiming();
    benchmark::DoNotOptimize(simulator.run());
  }
}
BENCHMARK(BM_ShuffleRound)->Unit(benchmark::kMillisecond);

void BM_ObsCounterInc(benchmark::State& state) {
  // Cost of one enabled counter increment (a relaxed atomic add).
  obs::Registry registry;
  const obs::Counter counter = registry.counter("bench.counter");
  for (auto _ : state) {
    counter.inc();
  }
  benchmark::DoNotOptimize(registry.snapshot());
}
BENCHMARK(BM_ObsCounterInc);

void BM_ObsNullCounterInc(benchmark::State& state) {
  // Cost of a disabled (null-handle) increment: one predictable branch.
  const obs::Counter counter;
  for (auto _ : state) {
    counter.inc();
  }
}
BENCHMARK(BM_ObsNullCounterInc);

void BM_ObsSpan(benchmark::State& state) {
  // Open + close one span: two clock reads plus the thread-local stack.
  obs::Registry registry;
  for (auto _ : state) {
    const obs::Span span(&registry, "bench.span");
    benchmark::DoNotOptimize(&span);
  }
}
BENCHMARK(BM_ObsSpan);

void BM_EventLoopThroughput(benchmark::State& state) {
  for (auto _ : state) {
    cloudsim::EventLoop loop;
    for (int i = 0; i < 10000; ++i) {
      loop.schedule_at(static_cast<double>(i) * 1e-6, [] {});
    }
    if (!loop.run()) state.SkipWithError("event budget exhausted");
    benchmark::DoNotOptimize(loop.processed());
  }
}
BENCHMARK(BM_EventLoopThroughput)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
