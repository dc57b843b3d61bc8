// Checks the benchmark's own computations (perfbench/src/report.h) on
// hand-worked inputs.  Exit code 0 = every check held.
//
//   .bench_build/perfbench/perfbench_selftest
#include <cmath>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "report.h"

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::cout << "FAIL: " << what << "\n";
  }
}

bool near(double a, double b) { return std::abs(a - b) < 1e-9; }

void percentiles() {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  expect(near(perfbench::percentile(v, 0.5), 50.0), "p50 of 1..100 is 50");
  expect(near(perfbench::percentile(v, 0.9), 90.0), "p90 of 1..100 is 90");
  expect(near(perfbench::percentile(v, 0.99), 99.0), "p99 of 1..100 is 99");
  expect(near(perfbench::percentile({7.0}, 0.99), 7.0), "p99 of one sample");
  expect(perfbench::percentile({}, 0.5) == 0.0, "empty sample reads 0");
}

void sample_count_rule() {
  using perfbench::percentile_supported;
  expect(percentile_supported(1, 0.5), "a median needs one sample");
  expect(!percentile_supported(39, 0.75), "under 40 samples: median only");
  expect(percentile_supported(40, 0.75), "40 samples: ten beyond p75");
  expect(!percentile_supported(99, 0.9), "99 samples: 9.9 beyond p90");
  expect(percentile_supported(100, 0.9), "100 samples: ten beyond p90");
  expect(!percentile_supported(999, 0.99), "999 samples: 9.99 beyond p99");
  expect(percentile_supported(1000, 0.99), "1000 samples: ten beyond p99");
}

// One load every 0.1 s from t = 10 to 19.9: 1 s loads before t = 14, then
// 0.1 s loads.  Windows are 2 s wide and slide by 0.5 s.  A window holds 20
// loads; the p90 index is floor(0.9 * 19) = 17, so a window breaks the
// 0.6 s limit while it holds at least three slow loads.  [13.5, 15.5) holds
// five (13.5 .. 13.9) and breaks; [14, 16) holds none.  Restoration is
// therefore at 15.5, 5.5 s after the onset at 10.
void restoration_rule() {
  std::vector<perfbench::LoadSample> loads;
  for (int k = 100; k < 200; ++k) {
    const double t = k / 10.0;
    loads.push_back({t, t < 14.0 ? 1.0 : 0.1});
  }
  const auto r = perfbench::restoration(loads, 10.0, 20.0, 2.0, 0.5, 0.6);
  expect(near(r.restore_s, 5.5), "restoration at onset + 5.5 s, got " +
                                     std::to_string(r.restore_s));
  expect(!r.broken_at_horizon, "the last window is clean");
  expect(near(perfbench::window_p90(loads, 13.5, 15.5), 1.0),
         "p90 of [13.5, 15.5) is a slow load");
  expect(near(perfbench::window_p90(loads, 14.0, 16.0), 0.1),
         "p90 of [14, 16) is a fast load");

  // Timed-out requests count as infinitely slow: a tail of timeouts keeps
  // the limit broken even though no slow load completes.
  auto stalled = loads;
  for (int k = 180; k < 200; ++k) {
    stalled.push_back({k / 10.0, std::numeric_limits<double>::infinity()});
  }
  const auto s = perfbench::restoration(stalled, 10.0, 20.0, 2.0, 0.5, 0.6);
  expect(s.broken_at_horizon, "timeouts at the end break the limit");
  expect(near(s.restore_s, 10.0), "never restored: the horizon");

  const auto quiet = perfbench::restoration({}, 10.0, 20.0, 2.0, 0.5, 0.6);
  expect(near(quiet.restore_s, 0.0) && !quiet.broken_at_horizon,
         "no loads: nothing to restore");
}

void capped_sum() {
  expect(perfbench::capped_shuffles_sum({3, std::nullopt, 5}, 60) == 68,
         "a missed cell counts the round cap");
  expect(perfbench::capped_shuffles_sum({}, 60) == 0, "no cells sum to 0");
}

void attribution() {
  using perfbench::attribute;
  using V = std::vector<std::string>;
  expect(attribute(V{"__restore_rt",
                     "shuffledef::cloudsim::EventLoop::run_until(double)",
                     "main"}) == "event_loop",
         "the signal trampoline is skipped");
  expect(attribute(V{"perfbench::(anonymous namespace)::same_outcomes()",
                     "perfbench::run_flood(perfbench::RunOptions const&)"}) ==
             "bench",
         "the benchmark's own code is bench");
  expect(attribute(V{"memcpy",
                     "shuffledef::cloudsim::Network::deliver_lane(int)"}) ==
             "network",
         "a C library frame is charged to its program caller");
  expect(attribute(V{"malloc", "shuffledef::cloudsim::ClientSwarm::sweep()"}) ==
             "alloc",
         "allocator frames are charged to alloc");
  expect(attribute(V{"operator new(unsigned long)",
                     "shuffledef::cloudsim::ReplicaServer::on_message()"}) ==
             "alloc",
         "operator new is alloc");
  expect(attribute(V{"std::vector<shuffledef::cloudsim::Message, "
                     "std::allocator<shuffledef::cloudsim::Message> >::"
                     "push_back(shuffledef::cloudsim::Message const&)",
                     "shuffledef::cloudsim::ReplicaServer::on_message()"}) ==
             "replica_server",
         "a template argument does not make a frame the program's");
  expect(attribute(V{"shuffledef::cloudsim::ClientSwarm::sweep()::{lambda("
                     "long, long)#1}::operator()(long, long) const"}) ==
             "client_swarm",
         "a lambda belongs to its enclosing member function");
  expect(attribute(V{"std::_Function_handler<void (), shuffledef::cloudsim::"
                     "ClientAgent::send_request()::{lambda()#1}>::_M_invoke("
                     "std::_Any_data const&)",
                     "shuffledef::cloudsim::EventLoop::run_until(double)"}) ==
             "client_agent",
         "a std::function invoker belongs to the lambda's owner");
  expect(attribute(V{"std::_Function_handler<void (), shuffledef::cloudsim::"
                     "Network::transmit(shuffledef::cloudsim::Message)::{"
                     "lambda()#1}::operator()()::{lambda()#1}>::_M_invoke("
                     "std::_Any_data const&)"}) == "network",
         "a nested lambda belongs to the outer function, not its parameters");
  expect(attribute(V{"shuffledef::cloudsim::Node::send(int, "
                     "shuffledef::cloudsim::MessageType, long)"}) == "network",
         "Node::send is the network path");
  expect(attribute(V{"std::_Function_handler<void (), "
                     "shuffledef::cloudsim::World::spawn()::{lambda()#2}>::"
                     "_M_invoke(std::_Any_data const&)",
                     "shuffledef::cloudsim::EventLoop::run_until(double)"}) ==
             "other",
         "an invoker whose lambda is not in a mapped class is other");
  expect(attribute(V{"shuffledef::cloudsim::CoordinationServer::"
                     "execute_round()"}) == "coordination_server",
         "coordinator frame");
  expect(attribute(V{"shuffledef::core::SeparableDpPlanner::plan("
                     "shuffledef::core::ShuffleProblem const&) const"}) ==
             "core",
         "core namespace");
  expect(attribute(V{"shuffledef::sim::ShuffleSimulator::run_counts()"}) ==
             "sim",
         "sim namespace");
  expect(attribute(V{"shuffledef::util::Rng::uniform()"}) == "util",
         "util namespace");
  expect(attribute(V{"shuffledef::cloudsim::Scenario::run_until(double)"}) ==
             "other",
         "other program classes");
  expect(attribute(V{"freeaddrinfo", "main"}) == "other",
         "a name that merely starts with 'free' is not the allocator");
  expect(attribute(V{}) == "other", "an empty stack is other");
}

}  // namespace

int main() {
  percentiles();
  sample_count_rule();
  restoration_rule();
  capped_sum();
  attribution();
  std::cout << (failures == 0 ? "selftest: all checks held"
                              : "selftest: " + std::to_string(failures) +
                                    " checks failed")
            << "\n";
  return failures == 0 ? 0 : 1;
}
