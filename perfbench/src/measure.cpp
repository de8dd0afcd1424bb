#include "measure.h"

#include <algorithm>
#include <cmath>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "baselines/pow.h"
#include "hash/poseidon.h"
#include "layer_trace.h"
#include "scenario/runner.h"
#include "shamir/shamir.h"
#include "traced_world.h"
#include "waku/rln_relay.h"
#include "workloads.h"
#include "zksnark/rln_circuit.h"

namespace perfbench {
namespace {

namespace zksnark = wakurln::zksnark;
namespace hash = wakurln::hash;
namespace shamir = wakurln::shamir;
namespace baselines = wakurln::baselines;
using scenario::ScenarioSpec;

/// Host seconds of set-ups before each timed run (at least one set-up).
/// One set-up takes 0.01-0.1 s, too short for a single sample to be steady.
constexpr double kSetupBatchSeconds = 0.2;

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den == 0 ? 0 : num / den; }

double since(Clock::time_point t0) { return seconds_between(t0, Clock::now()); }

struct RunnerSample {
  scenario::MetricSet metrics;
  scenario::ResourceUsage resource;
  double cpu_s = 0;
};

RunnerSample run_runner(const ScenarioSpec& spec, std::uint64_t seed) {
  scenario::ScenarioRunner runner(spec, seed);
  RunnerSample s;
  const double cpu0 = process_cpu_seconds();
  s.metrics = runner.run();
  s.cpu_s = process_cpu_seconds() - cpu0;
  s.resource = runner.resource();
  return s;
}

void gate(Result& r, const ScenarioSpec& spec, const RunnerSample& s) {
  for (const std::string& v : check_report(spec, s.metrics)) r.fail(v);
  const DeliveryAccount a = delivery_account(s.metrics);
  r.attempted += a.attempted;
  r.failed += a.failed;
}

/// The same (spec, seed) on kShardedThreads world threads must give the
/// same deterministic report as `serial`, the one-thread run.
RunnerSample check_sharded(Result& r, const ScenarioSpec& spec, std::uint64_t seed,
                           const RunnerSample& serial) {
  ScenarioSpec sharded_spec = spec;
  sharded_spec.world_threads = kShardedThreads;
  RunnerSample sharded = run_runner(sharded_spec, seed);
  if (deterministic_fingerprint(sharded.metrics, sharded.resource) !=
      deterministic_fingerprint(serial.metrics, serial.resource)) {
    r.fail("world_threads " + std::to_string(kShardedThreads) +
           " report differs from world_threads 1");
  }
  return sharded;
}

/// Median per-call microseconds of `body(i)` over `n` inputs, timed in
/// batches of at least 20 ms.
template <typename F>
double per_call_us(std::size_t n, F&& body) {
  if (n == 0) return 0;
  std::vector<double> batches;
  for (int b = 0; b < 5; ++b) {
    std::size_t calls = 0;
    const Clock::time_point t0 = Clock::now();
    double elapsed = 0;
    do {
      for (std::size_t i = 0; i < n; ++i) body(i);
      calls += n;
      elapsed = since(t0);
    } while (elapsed < 0.02);
    batches.push_back(elapsed * 1e6 / static_cast<double>(calls));
  }
  return median(batches);
}

struct ReplayTimes {
  double decode_us = 0;
  double verify_us = 0;
  double message_to_x_us = 0;
  double poseidon_hash1_us = 0;
  double reconstruct_us = 0;
  double pow_verify_us = 0;
};

/// Times public crypto calls on the message payloads the frame tap
/// captured. Every replayed verification must accept.
ReplayTimes replay(Result& r, const ScenarioSpec& spec, const WorldRun& run) {
  ReplayTimes t;
  if (spec.protocol == scenario::Protocol::kPow) {
    std::vector<baselines::PowEnvelope> envs;
    for (const auto& data : run.captured) {
      if (auto env = baselines::PowEnvelope::deserialize(data.span())) envs.push_back(*env);
    }
    bool ok = true;
    t.pow_verify_us = per_call_us(envs.size(), [&](std::size_t i) {
      ok = baselines::pow_verify(envs[i], spec.pow_difficulty_bits) && ok;
    });
    if (!ok) r.fail("replayed PoW envelope failed verification");
    return t;
  }
  std::vector<std::pair<wakurln::rln::RlnSignal, util::SharedBytes>> envs;
  for (const auto& data : run.captured) {
    if (auto env = waku::WakuRlnRelay::decode_envelope(data)) envs.push_back(*env);
  }
  if (envs.empty() || !run.rln_ctx) return t;
  bool decoded = true;
  t.decode_us = per_call_us(run.captured.size(), [&](std::size_t i) {
    decoded = waku::WakuRlnRelay::decode_envelope(run.captured[i]).has_value() && decoded;
  });
  bool ok = true;
  t.verify_us = per_call_us(envs.size(), [&](std::size_t i) {
    ok = run.rln_ctx->verifier.verify_prepared(envs[i].second.span(), envs[i].first) && ok;
  });
  if (!ok || !decoded) r.fail("replayed RLN envelope failed to decode or verify");
  std::vector<wakurln::field::Fr> xs(envs.size());
  t.message_to_x_us = per_call_us(envs.size(), [&](std::size_t i) {
    xs[i] = zksnark::RlnCircuit::message_to_x(envs[i].second.span());
  });
  std::optional<wakurln::field::Fr> sink;
  t.poseidon_hash1_us = per_call_us(envs.size(), [&](std::size_t i) {
    sink = hash::poseidon_hash1(envs[i].first.y);
  });
  if (envs.size() >= 2) {
    // Consecutive captured messages are distinct, so their x differ and
    // reconstruct runs the full field inversion.
    t.reconstruct_us = per_call_us(envs.size() - 1, [&](std::size_t i) {
      sink = shamir::reconstruct({xs[i], envs[i].first.y}, {xs[i + 1], envs[i + 1].first.y});
    });
  }
  (void)sink;
  return t;
}

}  // namespace

void Result::add(const std::string& name, double value, const std::string& unit) {
  metrics.push_back({name, std::isfinite(value) ? value : 0.0, unit});
}

Result measure_end_to_end(const ScenarioSpec& spec, const Options& opt) {
  Result r;
  std::vector<double> setup;
  std::vector<double> wall;
  std::vector<double> throughput;
  std::vector<double> cycle;
  double rss = 0;
  std::vector<std::pair<std::string, double>> first;
  RunnerSample last;
  const Clock::time_point t0 = Clock::now();
  do {
    const Clock::time_point t_cycle = Clock::now();
    // Set-ups are interleaved with the timed runs so that both sample the
    // same stretch of host speed.
    do {
      setup.push_back(measure_setup(spec, opt.seed));
    } while (since(t_cycle) < kSetupBatchSeconds);
    last = run_runner(spec, opt.seed);
    gate(r, spec, last);
    const auto fp = deterministic_fingerprint(last.metrics, last.resource);
    if (first.empty()) {
      first = fp;
    } else if (fp != first) {
      r.fail("deterministic report differs between repeats");
    }
    const double w = last.resource.wall_ms / 1000.0;
    wall.push_back(w);
    throughput.push_back(
        (last.metrics.at("honest_deliveries") + last.metrics.at("spam_deliveries")) / w);
    cycle.push_back(since(t_cycle));
    // After the first cycle: later cycles add heap fragmentation, and how
    // many of them fit in the budget depends on host speed.
    if (cycle.size() == 1) rss = peak_rss_mb();
    // Stop when one more cycle would overrun the run's time budget.
  } while (since(t0) + median(cycle) <= opt.seconds);
  check_sharded(r, spec, opt.seed, last);

  // The work of every repeat is identical, and interference from the host
  // only ever adds time, so the fastest repeat is the least disturbed
  // reading. On a 4-core VM whose speed drifts by up to 1.6x in stretches
  // of tens of seconds, the spread of per-run minima over consecutive
  // 30-second runs is about half that of per-run medians (0.09 vs 0.17).
  r.add("wall_s", *std::min_element(wall.begin(), wall.end()), "s");
  r.add("setup_s", *std::min_element(setup.begin(), setup.end()), "s");
  r.add("deliveries_per_s", *std::max_element(throughput.begin(), throughput.end()),
        "1/s");
  r.add("peak_rss_mb", rss, "MB");
  std::cerr << "[perfbench] events " << last.resource.events_executed << " frames "
            << last.metrics.at("frames_sent") << "; wall_s of " << wall.size() << " runs:";
  for (const double w : wall) std::cerr << " " << w;
  std::cerr << "; fastest of " << setup.size() << " set-ups: "
            << *std::min_element(setup.begin(), setup.end())
            << "\n";
  return r;
}

Result measure_traced(const ScenarioSpec& spec, const Options& opt) {
  Result r;
  const Clock::time_point t0 = Clock::now();
  const RunnerSample base = run_runner(spec, opt.seed);
  gate(r, spec, base);
  const RunnerSample sharded = check_sharded(r, spec, opt.seed, base);

  std::vector<WorldRun> traced_runs;
  std::vector<double> untraced_wall;
  std::vector<double> pair;
  std::vector<std::uint64_t> expected;
  do {
    const Clock::time_point t_pair = Clock::now();
    const WorldRun plain = drive_world(spec, opt.seed, /*traced=*/false);
    WorldRun tr = drive_world(spec, opt.seed, /*traced=*/true);
    if (expected.empty()) {
      expected = plain.outcome();
      const double runner_deliveries =
          base.metrics.at("honest_deliveries") + base.metrics.at("spam_deliveries");
      if (static_cast<double>(plain.honest_deliveries + plain.spam_deliveries) !=
          runner_deliveries) {
        r.fail("drive deliveries differ from the runner's report");
      }
    }
    if (plain.outcome() != expected || tr.outcome() != expected) {
      r.fail("traced and untraced drives differ");
    }
    untraced_wall.push_back(plain.wall_s);
    traced_runs.push_back(std::move(tr));
    pair.push_back(since(t_pair));
  } while (since(t0) + median(pair) <= opt.seconds);

  // Report the spans of the median traced run (by wall), so the spans and
  // trace.unattributed_s of one run sum to its wall exactly.
  std::sort(traced_runs.begin(), traced_runs.end(),
            [](const WorldRun& a, const WorldRun& b) { return a.wall_s < b.wall_s; });
  const WorldRun& run = traced_runs[(traced_runs.size() - 1) / 2];
  std::vector<double> traced_wall;
  for (const WorldRun& d : traced_runs) traced_wall.push_back(d.wall_s);
  const ReplayTimes rp = replay(r, spec, run);
  const SpanTable& sp = run.spans;
  const bool rln = spec.protocol == scenario::Protocol::kRln;

  for (const char* name : {"waku.harness_build_s", "waku.subscribe_s", "eth.register_s",
                           "gossipsub.warmup_s", "scenario.schedule_s", "rln.publish_s",
                           "baselines.publish_s", "sim.network_self_s", "gossipsub.handle_s",
                           "sim.scheduler_self_s", "scenario.report_s", "waku.teardown_s"}) {
    r.add(name, sp.get(name), "s");
  }
  r.add("trace.wall_s", sp.wall(), "s");
  r.add("trace.unattributed_s", sp.unattributed(), "s");
  r.add("trace.overhead_ratio", ratio(median(traced_wall), median(untraced_wall)), "ratio");
  r.add("trace.runs", static_cast<double>(traced_runs.size()), "count");
  for (const auto& [name, secs] : sp.spans()) r.mix.emplace_back(name, ratio(secs, sp.wall()));
  r.mix.emplace_back("trace.unattributed_s", ratio(sp.unattributed(), sp.wall()));

  r.add("rln.publish_calls", rln ? static_cast<double>(run.publish_calls) : 0, "count");
  r.add("rln.publish_us",
        rln ? 1e6 * ratio(sp.get("rln.publish_s"), static_cast<double>(run.publish_calls))
            : 0,
        "us");
  r.add("sim.deliveries", static_cast<double>(run.delivery.deliveries), "count");

  const double verifications = static_cast<double>(run.proof_verifications);
  const double nullifier_checks =
      static_cast<double>(run.accepted + run.duplicates + run.double_signals);
  const double double_signals = static_cast<double>(run.double_signals);
  r.add("zksnark.verify_us", rp.verify_us, "us");
  r.add("zksnark.verify_est_s", rp.verify_us * 1e-6 * verifications, "s");
  r.add("zksnark.message_to_x_us", rp.message_to_x_us, "us");
  r.add("zksnark.message_to_x_est_s",
        rp.message_to_x_us * 1e-6 * (verifications + nullifier_checks), "s");
  r.add("rln.decode_us", rp.decode_us, "us");
  r.add("hash.poseidon_hash1_us", rp.poseidon_hash1_us, "us");
  r.add("shamir.reconstruct_us", rp.reconstruct_us, "us");
  r.add("rln.slash_est_s",
        (rp.poseidon_hash1_us + rp.reconstruct_us) * 1e-6 * double_signals, "s");
  r.add("baselines.pow_verify_us", rp.pow_verify_us, "us");

  r.add("gossipsub.frames_per_validation",
        ratio(static_cast<double>(run.delivery.message_frames),
              static_cast<double>(run.validations)),
        "ratio");
  r.add("rln.verifications_per_message",
        rln ? ratio(verifications, static_cast<double>(run.published)) : 0, "ratio");
  r.add("rln.slash_submits_per_offender",
        ratio(static_cast<double>(run.slashes_submitted),
              static_cast<double>(run.group_slashes)),
        "ratio");
  r.add("rln.verifications", verifications, "count");
  r.add("rln.verify_cache_hits", static_cast<double>(run.proof_cache_hits), "count");
  r.add("rln.double_signals", double_signals, "count");
  r.add("rln.slashes_submitted", static_cast<double>(run.slashes_submitted), "count");

  const scenario::ResourceUsage& res = base.resource;
  const double base_wall = res.wall_ms / 1000.0;
  r.add("sim.events_executed", res.events_executed, "count");
  r.add("sim.timer_fires", res.timer_fires, "count");
  r.add("sim.events_per_s", ratio(res.events_executed, base_wall), "1/s");
  r.add("waku.group_root_updates", res.group_root_updates, "count");
  r.add("waku.group_sync_bytes", res.group_sync_bytes, "bytes");

  // Sharded scheduler shape, from the kShardedThreads re-run.
  const scenario::ResourceUsage& sres = sharded.resource;
  const double sharded_wall = sres.wall_ms / 1000.0;
  double lane_max = 0;
  double lane_sum = 0;
  for (std::size_t lane = 1; lane < sres.lane_events_executed.size(); ++lane) {
    lane_max = std::max(lane_max, sres.lane_events_executed[lane]);
    lane_sum += sres.lane_events_executed[lane];
  }
  const double shard_lanes = static_cast<double>(sres.lane_events_executed.size()) - 1;
  r.add("sim.cpu_over_wall", ratio(sharded.cpu_s, sharded_wall), "ratio");
  r.add("sim.lane_imbalance", ratio(lane_max, ratio(lane_sum, shard_lanes)), "ratio");
  r.add("sim.global_lane_events",
        sres.lane_events_executed.empty() ? 0 : sres.lane_events_executed[0], "count");
  r.add("sim.wt2_speedup", ratio(base_wall, sharded_wall), "ratio");

  r.add("obs.mem_router_bytes", res.mem_router_bytes, "bytes");
  r.add("obs.mem_mcache_bytes", res.mem_mcache_bytes, "bytes");
  r.add("obs.mem_nullifier_bytes", res.mem_nullifier_bytes, "bytes");
  r.add("obs.mem_event_pool_bytes", res.mem_event_pool_bytes, "bytes");
  r.add("obs.mem_network_bytes", res.mem_network_bytes, "bytes");
  return r;
}

}  // namespace perfbench
