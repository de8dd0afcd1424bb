// Tests of the benchmark's own code: a traced drive's spans close on
// its wall time, tracing does not change what the world does, the drive
// reproduces the runner's world, the correctness gate rejects bad
// reports, and every reported metric name is well formed and declared in
// BENCHMARK.json.

#include <gtest/gtest.h>

#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <string>

#include "measure.h"
#include "traced_world.h"
#include "workloads.h"

namespace perfbench {
namespace {

using scenario::ScenarioSpec;

/// A workload's spec shrunk to a world that runs in well under a second.
ScenarioSpec small(const std::string& workload) {
  ScenarioSpec s = workload_spec(workload);
  s.nodes = 120;
  s.publishers = 8;
  s.validate();
  return s;
}

class PerWorkload : public ::testing::TestWithParam<std::string> {};

TEST_P(PerWorkload, SpansPlusUnattributedSumToTracedWall) {
  const WorldRun run = drive_world(small(GetParam()), 7, /*traced=*/true);
  EXPECT_DOUBLE_EQ(run.spans.wall(), run.wall_s);
  EXPECT_NEAR(run.spans.sum() + run.spans.unattributed(), run.wall_s, 1e-12);
  EXPECT_GE(run.spans.unattributed(), 0.0);
  EXPECT_LT(run.spans.unattributed(), 0.05 * run.wall_s + 0.005);
  for (const auto& [name, secs] : run.spans.spans()) EXPECT_GE(secs, 0.0) << name;
  for (const char* name : {"waku.harness_build_s", "waku.subscribe_s", "eth.register_s",
                           "gossipsub.warmup_s", "sim.network_self_s",
                           "gossipsub.handle_s", "sim.scheduler_self_s"}) {
    bool found = false;
    for (const auto& span : run.spans.spans()) found = found || span.first == name;
    EXPECT_TRUE(found) << name;
  }
  EXPECT_GT(run.delivery.deliveries, 0u);
  EXPECT_GT(run.delivery.message_frames, 0u);
  EXPECT_FALSE(run.captured.empty());
}

TEST_P(PerWorkload, TracingLeavesTheWorldsOutcomeUnchanged) {
  const ScenarioSpec spec = small(GetParam());
  const WorldRun plain = drive_world(spec, 11, /*traced=*/false);
  const WorldRun traced = drive_world(spec, 11, /*traced=*/true);
  EXPECT_EQ(plain.outcome(), traced.outcome());
  EXPECT_GT(plain.honest_deliveries, 0u);
}

TEST_P(PerWorkload, DriveReproducesTheRunnersWorld) {
  const ScenarioSpec spec = small(GetParam());
  scenario::ScenarioRunner runner(spec, 5);
  const scenario::MetricSet m = runner.run();
  EXPECT_TRUE(check_report(spec, m).empty());
  const WorldRun run = drive_world(spec, 5, /*traced=*/true);
  EXPECT_EQ(static_cast<double>(run.honest_deliveries), m.at("honest_deliveries"));
  EXPECT_EQ(static_cast<double>(run.spam_deliveries), m.at("spam_deliveries"));
  EXPECT_EQ(static_cast<double>(run.frames_sent), m.at("frames_sent"));
  if (spec.protocol == scenario::Protocol::kRln) {
    EXPECT_EQ(static_cast<double>(run.proof_verifications), m.at("verifications_total"));
    EXPECT_EQ(static_cast<double>(run.double_signals), m.at("rln_double_signals"));
    EXPECT_EQ(static_cast<double>(run.group_slashes), m.at("group_slashes"));
  }
}

INSTANTIATE_TEST_SUITE_P(Workloads, PerWorkload, ::testing::ValuesIn(workload_names()),
                         [](const auto& info) { return info.param; });

TEST(ShardedDrive, SpansCloseAndOutcomeMatchesOneThread) {
  ScenarioSpec spec = small("mesh_relay");
  const WorldRun serial = drive_world(spec, 9, /*traced=*/false);
  spec.world_threads = kShardedThreads;
  const WorldRun sharded = drive_world(spec, 9, /*traced=*/true);
  EXPECT_EQ(sharded.shards, kShardedThreads);
  EXPECT_EQ(serial.outcome(), sharded.outcome());
  EXPECT_NEAR(sharded.spans.sum() + sharded.spans.unattributed(), sharded.wall_s, 1e-12);
  EXPECT_GE(sharded.spans.unattributed(), 0.0);
  EXPECT_GE(sharded.spans.get("sim.scheduler_self_s"), 0.0);
  EXPECT_GT(sharded.spans.get("gossipsub.handle_s"), 0.0);
}

TEST(AttributeTraffic, ShardedDeliveriesAreScaledToPartitionTheWall) {
  WorldRun run;
  run.shards = 2;
  run.traffic_wall_s = 2.5;
  run.traffic_cpu_s = 4.0;
  run.delivery.network_self_s = 0.5;
  run.delivery.handle_s = 2.5;
  attribute_traffic(run, "rln.publish_s", 0.5);
  const SpanTable& sp = run.spans;
  EXPECT_NEAR(sp.sum(), run.traffic_wall_s, 1e-12);
  // 3.0 of the 3.5 non-publish CPU seconds were deliveries: 6/7 of the
  // 2.0 non-publish wall seconds, split 1:5 between network and router.
  EXPECT_NEAR(sp.get("sim.network_self_s") + sp.get("gossipsub.handle_s"), 2.0 * 6 / 7,
              1e-12);
  EXPECT_NEAR(sp.get("gossipsub.handle_s"), 5 * sp.get("sim.network_self_s"), 1e-12);
  EXPECT_NEAR(sp.get("sim.scheduler_self_s"), 2.0 / 7, 1e-12);
}

TEST(AttributeTraffic, OneShardKeepsMeasuredDeliverySpans) {
  WorldRun run;
  run.traffic_wall_s = 3.0;
  run.traffic_cpu_s = 2.9;
  run.delivery.network_self_s = 0.25;
  run.delivery.handle_s = 2.0;
  attribute_traffic(run, "rln.publish_s", 0.25);
  EXPECT_DOUBLE_EQ(run.spans.get("sim.network_self_s"), 0.25);
  EXPECT_DOUBLE_EQ(run.spans.get("gossipsub.handle_s"), 2.0);
  EXPECT_NEAR(run.spans.get("sim.scheduler_self_s"), 0.5, 1e-12);
}

TEST(Gate, RejectsLossAndMissedSlashes) {
  const ScenarioSpec spec = small("mesh_relay");
  scenario::ScenarioRunner runner(spec, 3);
  const scenario::MetricSet good = runner.run();
  ASSERT_TRUE(check_report(spec, good).empty());
  for (const char* metric : {"delivery_ratio", "frames_lost", "adversaries_slashed",
                             "over_rate_slashed_ratio", "group_slashes"}) {
    scenario::MetricSet bad = good;
    bad.set(metric, good.at(metric) == 0 ? 1 : good.at(metric) * 0.5);
    EXPECT_FALSE(check_report(spec, bad).empty()) << metric;
  }
  const DeliveryAccount a = delivery_account(good);
  EXPECT_EQ(a.attempted, good.at("honest_published") * (spec.nodes - 1.0));
  EXPECT_EQ(a.failed, 0);
}

std::string benchmark_json() {
  std::ifstream in(PERFBENCH_BENCHMARK_JSON);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(MetricNames, AreWellFormedUniqueAndDeclared) {
  const std::string declared = benchmark_json();
  ASSERT_FALSE(declared.empty());
  const std::regex name_re("[A-Za-z0-9][A-Za-z0-9_.-]{0,63}");
  Options opt;
  opt.seconds = 0.001;
  for (const bool trace : {false, true}) {
    opt.trace = trace;
    const ScenarioSpec spec = small(trace ? "mesh_relay" : "pow_mesh");
    const Result r = trace ? measure_traced(spec, opt) : measure_end_to_end(spec, opt);
    EXPECT_TRUE(r.correct);
    std::set<std::string> seen;
    for (const Metric& m : r.metrics) {
      EXPECT_TRUE(std::regex_match(m.name, name_re)) << m.name;
      EXPECT_TRUE(seen.insert(m.name).second) << "duplicate " << m.name;
      EXPECT_NE(declared.find("\"name\": \"" + m.name + "\""), std::string::npos)
          << m.name << " is not declared in BENCHMARK.json";
    }
  }
}

}  // namespace
}  // namespace perfbench
