#pragma once
// The two measuring modes of the benchmark.
//
// measure_end_to_end (--trace 0): for `seconds`, alternates a batch of
// timed world set-ups with one ScenarioRunner::run() on the workload spec.
// Reports the fastest run's wall_s and deliveries_per_s, the fastest
// set-up's setup_s, and peak_rss_mb after the first set-up batch and run. Every report passes
// the correctness gate and repeats the first report's deterministic
// metrics. A last, untimed run on kShardedThreads world threads must
// repeat them too.
//
// measure_traced (--trace 1): one ScenarioRunner run for the runner's
// resource counts and its sharded re-run, then untraced and traced drives
// of the same world (traced_world.h) alternate until `seconds` have passed.
// Reports the spans of the median traced drive, replay timings of public
// crypto calls on the payloads its frame tap captured, wasted-work
// ratios, scheduler, chain, sharding and memory counts, and the tracing
// overhead.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "scenario/spec.h"
#include "workloads.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Result {
  bool correct = true;
  /// Honest (message, receiver) deliveries attempted and missed, summed
  /// over every ScenarioRunner report of the run.
  double attempted = 0;
  double failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> violations;
  /// Traced mode: (span, share of traced wall) of the median traced drive.
  std::vector<std::pair<std::string, double>> mix;

  void fail(const std::string& why) {
    correct = false;
    violations.push_back(why);
  }
  /// Non-finite values (a ratio over an empty base) are reported as 0.
  void add(const std::string& name, double value, const std::string& unit);
};

Result measure_end_to_end(const scenario::ScenarioSpec& spec, const Options& opt);
Result measure_traced(const scenario::ScenarioSpec& spec, const Options& opt);

}  // namespace perfbench
