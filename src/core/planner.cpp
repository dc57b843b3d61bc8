#include "core/planner.h"

#include <stdexcept>

#include "core/even_planner.h"
#include "core/greedy_planner.h"
#include "core/separable_dp.h"

namespace shuffledef::core {

std::unique_ptr<Planner> make_planner(const std::string& name) {
  if (name == "even") return std::make_unique<EvenPlanner>();
  if (name == "greedy") return std::make_unique<GreedyPlanner>();
  if (name == "dp") return std::make_unique<SeparableDpPlanner>();
  throw std::invalid_argument("make_planner: unknown planner '" + name +
                              "' (expected even|greedy|dp)");
}

}  // namespace shuffledef::core
