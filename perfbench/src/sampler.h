// In-process sampling profiler for the traced run: SIGPROF from
// setitimer(ITIMER_PROF) (process CPU time, every thread), a backtrace()
// per sample into a preallocated ring, and symbol resolution afterwards —
// the executable's own ELF symbol table (local symbols included) for
// program frames, dladdr() for shared-library frames.  Each sample is
// attributed to a module by report.h's attribute().
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class Sampler {
 public:
  /// Room for `capacity` samples; later samples are counted as dropped.
  explicit Sampler(std::size_t capacity = 200000);
  ~Sampler();
  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;

  /// Start sampling every `interval_us` microseconds of process CPU time.
  /// Only one Sampler may be running at a time.
  void start(long interval_us = 1000);
  /// Stop sampling (idempotent).
  void stop();

  [[nodiscard]] std::size_t samples() const;
  [[nodiscard]] std::size_t dropped() const;
  /// Samples per module (every module of report.h's modules() present).
  [[nodiscard]] std::map<std::string, std::size_t> module_counts() const;

 private:
  bool running_ = false;
};

}  // namespace perfbench
