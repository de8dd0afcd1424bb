#pragma once
// The benchmark's workloads and the correctness gate every run passes.
//
// Each workload is a ScenarioSpec the benchmark builds from the scenario
// catalogue, sized so that one ScenarioRunner::run() takes a few seconds
// on a 4-core host; README.md gives the reason for each choice.

#include <string>
#include <utility>
#include <vector>

#include "scenario/metrics.h"
#include "scenario/runner.h"
#include "scenario/spec.h"

namespace perfbench {

namespace scenario = wakurln::scenario;

/// World threads of the sharded re-run every benchmark run makes of its
/// workload: the report must not change, and the traced mode reports the
/// sharded scheduler's metrics from it.
inline constexpr unsigned kShardedThreads = 2;

/// Workload names in the order BENCHMARK.json lists them.
const std::vector<std::string>& workload_names();

/// The spec of a named workload; throws std::invalid_argument for an
/// unknown name. Observability and tracing are off.
scenario::ScenarioSpec workload_spec(const std::string& name);

/// Correctness gate of one ScenarioRunner report: the violated
/// conditions, empty when the report passes.
std::vector<std::string> check_report(const scenario::ScenarioSpec& spec,
                                      const scenario::MetricSet& m);

/// The deterministic part of a run: every report metric plus the
/// deterministic fields of the resources block, as (name, value) pairs.
std::vector<std::pair<std::string, double>> deterministic_fingerprint(
    const scenario::MetricSet& m, const scenario::ResourceUsage& r);

/// Honest (message, receiver) deliveries the workload attempts — the
/// result's `attempted` — and how many of them did not happen.
struct DeliveryAccount {
  double attempted = 0;
  double failed = 0;
};
DeliveryAccount delivery_account(const scenario::MetricSet& m);

}  // namespace perfbench
