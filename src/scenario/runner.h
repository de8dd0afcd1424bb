#pragma once
// Executes one scenario: builds the simulated world a ScenarioSpec
// describes (WAKU-RLN-RELAY via waku::SimHarness, or the PoW baseline on
// a bare waku::RelayWorld — one world builder), drives the honest
// workload, the adversaries (steady and burst spammers, adaptive
// at-the-rate spammers and their over-rate probes, registration-storm
// waves, IWANT replayers), churn and partitions on the discrete-event
// clock — across one or many content topics — and distils the run into
// a MetricSet: delivery ratio (aggregate and per topic),
// propagation-latency percentiles, per-node traffic, spam containment
// and slashing coverage, nullifier-map footprint, membership-sync churn,
// and the coalition-first-spy adversary's view of originator anonymity
// under the configured observer placement.
//
// A run is a pure function of (spec, seed): all randomness flows from
// explicitly seeded Rng streams and the deterministic scheduler, so two
// runs with equal inputs produce identical metrics, byte for byte.

#include <cstdint>
#include <string>
#include <vector>

#include "obs/timeseries.h"
#include "scenario/metrics.h"
#include "scenario/spec.h"

namespace wakurln::scenario {

/// Host-machine cost of one run. Wall-clock is *not* part of the metric
/// set: it is machine-dependent, so it lives outside the byte-determinism
/// contract and is reported in the campaign's separate resources block.
/// The event-engine fields below it, by contrast, ARE deterministic —
/// pure functions of (spec, seed) — and gate the scaling roadmap.
struct ResourceUsage {
  double wall_ms = 0;      ///< host time spent inside run()
  double sim_seconds = 0;  ///< simulated time the run covered

  // Typed event engine statistics (sim::Scheduler::Stats). Event and
  // timer counts are deterministic at every thread count; the pool
  // fields (event_allocs*, event_pool_reuses) depend on how the node
  // partition splits the per-lane pools, so the report moves them into
  // the machine-ish "pool" sub-block instead of the deterministic
  // scheduler one.
  double events_scheduled = 0;   ///< events enqueued, incl. timer re-arms
  double events_executed = 0;
  double event_allocs = 0;       ///< pool misses over the whole run
  double event_pool_reuses = 0;  ///< pooled nodes recycled
  double event_queue_peak = 0;   ///< max live events queued at once
  double timer_fires = 0;        ///< periodic timer callbacks run
  /// Pool misses after world construction + warm-up (the steady state),
  /// and their rate per simulated second of the measured phase. ~0 means
  /// the traffic phase scheduled every event without allocating.
  double event_allocs_steady = 0;
  double event_allocs_per_sim_second = 0;

  // Parallel execution shape of the run (sharded scheduler, PR 9).
  // world_threads and the per-lane split describe how this particular
  // run was executed — diagnostics, not part of any determinism contract.
  double world_threads = 1;  ///< scheduler shards the run executed on
  /// Events executed per lane (index 0 = the global lane, then one entry
  /// per shard). Sums to events_executed.
  std::vector<double> lane_events_executed;
  /// Resident bytes of per-shard rings/pools, mailboxes and worker
  /// bookkeeping beyond the deterministic event-engine memory model.
  double parallel_scratch_bytes = 0;

  // Membership group-sync churn (waku::GroupSync::Stats), deterministic;
  // zero for the PoW baseline, which has no membership. Registration
  // storms are the scenarios that move these.
  double group_sync_bytes = 0;    ///< modeled bytes to apply the event stream
  double group_root_updates = 0;  ///< Merkle root changes over the run

  // Per-subsystem resident-memory peaks, sampled once per epoch over the
  // whole run (modeled bytes — see obs/memory.h; deterministic, reported
  // whether or not the observability layer is enabled). Sums across all
  // nodes of the world except the shared merkle view and the event pool.
  double mem_router_bytes = 0;      ///< gossipsub peer/mesh/seen state
                                    ///  (+ shared params/topic table, once)
  double mem_mcache_bytes = 0;      ///< gossip message caches
  double mem_nullifier_bytes = 0;   ///< RLN nullifier views + shared store
  double mem_merkle_bytes = 0;      ///< shared membership Merkle view
  double mem_event_pool_bytes = 0;  ///< scheduler calendar + event pool
  double mem_network_bytes = 0;     ///< interned link arena + overrides
};

class ScenarioRunner {
 public:
  /// Throws std::invalid_argument if the spec is infeasible (e.g. fewer
  /// nodes than adversaries + observers + one honest publisher).
  ScenarioRunner(ScenarioSpec spec, std::uint64_t seed);

  /// Builds the world, runs it to completion and returns the metrics.
  MetricSet run();

  /// Host cost of the last run() call.
  const ResourceUsage& resource() const { return resource_; }

  /// Per-epoch metric samples of the last run() — empty unless
  /// spec.observability. Moves the series out (one run per runner).
  obs::TimeSeries take_timeseries() { return std::move(series_); }

  /// Chrome trace-event JSON of the last run() — empty unless spec.trace.
  std::string take_trace_json() { return std::move(trace_json_); }

  const ScenarioSpec& spec() const { return spec_; }
  std::uint64_t seed() const { return seed_; }

 private:
  /// Builds the spec's world (RLN or PoW, one builder) and runs it.
  MetricSet run_world();

  ScenarioSpec spec_;
  std::uint64_t seed_;
  ResourceUsage resource_;
  obs::TimeSeries series_;
  std::string trace_json_;
};

}  // namespace wakurln::scenario
