#pragma once
// The benchmark's own drive of a workload's world, built only from public
// library calls.
//
// It builds the same world ScenarioRunner::run() builds for a workload
// spec — waku::SimHarness for RLN, the plain-relay stack for PoW — drives
// the same pre-drawn workload (same RNG streams and draw order as the
// runner's traffic phase), and times the calls into each layer from the
// outside. With `traced` set it also installs a TracingSink to split every
// frame delivery into network and router time. The traced and untraced
// drives of one (spec, seed) produce the same deterministic outcome.
//
// Supported specs: one topic, random-tail observers, honest publishers
// and steady spammers (the benchmark's workloads); anything else throws
// std::invalid_argument.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "layer_trace.h"
#include "scenario/spec.h"
#include "waku/rln_relay.h"

namespace perfbench {

namespace waku = wakurln::waku;

/// What one drive did (deterministic) and what it cost (host time).
struct WorldRun {
  // -- deterministic outcome -------------------------------------------
  std::uint64_t honest_deliveries = 0;  ///< non-self deliveries of honest messages
  std::uint64_t spam_deliveries = 0;    ///< non-self deliveries of spam messages
  std::uint64_t events_executed = 0;
  std::uint64_t frames_sent = 0;
  std::uint64_t frames_lost = 0;
  std::uint64_t publish_calls = 0;      ///< publish attempts the workload made
  std::uint64_t published = 0;          ///< messages that went onto the wire
  std::uint64_t validations = 0;        ///< validator calls, all outcomes
  std::uint64_t accepted = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t double_signals = 0;
  std::uint64_t slashes_submitted = 0;
  std::uint64_t proof_verifications = 0;
  std::uint64_t proof_cache_hits = 0;
  std::uint64_t group_slashes = 0;

  // -- host cost ---------------------------------------------------------
  std::size_t shards = 1;      ///< scheduler shard lanes of the world
  double wall_s = 0;           ///< whole drive: set-up through teardown
  double traffic_wall_s = 0;   ///< the traffic run_until span
  double traffic_cpu_s = 0;    ///< process CPU seconds over that span
  /// Layer spans (traced runs; untraced runs carry only the coarse ones).
  /// Their sum plus spans.unattributed() equals spans.wall() == wall_s.
  SpanTable spans;
  DeliveryTotals delivery;                  ///< traced runs only
  std::vector<util::SharedBytes> captured;  ///< message payloads the tap kept
  /// The world's validator state (RLN only), kept alive for replay timing.
  std::shared_ptr<const waku::RlnValidatorContext> rln_ctx;

  /// The deterministic outcome fields, for comparing two drives.
  std::vector<std::uint64_t> outcome() const {
    return {honest_deliveries, spam_deliveries,   events_executed,     frames_sent,
            frames_lost,       publish_calls,     published,           validations,
            accepted,          duplicates,        double_signals,      slashes_submitted,
            proof_verifications, proof_cache_hits, group_slashes};
  }
};

/// Builds, drives and tears down one world.
WorldRun drive_world(const wakurln::scenario::ScenarioSpec& spec, std::uint64_t seed,
                     bool traced);

/// Host seconds of the world's set-up calls only (build, subscribe,
/// register, warm-up); the teardown afterwards is not timed.
double measure_setup(const wakurln::scenario::ScenarioSpec& spec, std::uint64_t seed);

/// Converts the delivery thread-seconds of a traced run into wall-clock
/// spans and fills the traffic-phase spans of `run.spans`:
/// sim.network_self_s, gossipsub.handle_s, `publish_span` (the publish
/// calls, `publish_s` seconds on the coordinator) and sim.scheduler_self_s,
/// the rest of the traffic phase: event queue plus timers.
/// On one shard the delivery spans are wall time already. On several,
/// they are scaled by the share of the traffic phase's CPU time they
/// account for, so that the spans still partition the wall time.
void attribute_traffic(WorldRun& run, const std::string& publish_span,
                       double publish_s);

}  // namespace perfbench
