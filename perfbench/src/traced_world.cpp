#include "traced_world.h"

#include <algorithm>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>

#include "baselines/pow.h"
#include "gossipsub/message.h"
#include "sim/topology.h"
#include "util/bytes.h"
#include "util/rng.h"
#include "waku/harness.h"

namespace perfbench {
namespace {

using wakurln::scenario::ObserverPlacement;
using wakurln::scenario::Protocol;
using wakurln::scenario::ScenarioSpec;
namespace baselines = wakurln::baselines;
namespace gossipsub = wakurln::gossipsub;

void require_supported(const ScenarioSpec& s) {
  const bool supported =
      s.topics == 1 && s.adversaries.burst_flooders == 0 &&
      s.adversaries.adaptive_spammers == 0 && s.replay.replayers == 0 &&
      s.churn.leave_prob_per_epoch == 0 && !s.partition.enabled &&
      s.seen_ttl_seconds == 0 && s.acceptable_root_window == 0 &&
      s.observer.placement == ObserverPlacement::kRandomTail && !s.trace &&
      s.storm.stormers == 0 && !s.observability;
  if (!supported) {
    throw std::invalid_argument("traced world: spec '" + s.name +
                                "' uses a feature the drive does not model");
  }
}

// The runner's node layout for the supported specs:
// [active publishers][pure relays][spammers][observers].
std::size_t spammer_begin(const ScenarioSpec& s) { return s.honest_publishers(); }
std::size_t spammer_end(const ScenarioSpec& s) {
  return spammer_begin(s) + s.adversaries.spammers;
}

/// Members registered before traffic: active publishers and spammers.
std::vector<std::size_t> publishing_nodes(const ScenarioSpec& s) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < s.active_publishers(); ++i) out.push_back(i);
  for (std::size_t i = spammer_begin(s); i < spammer_end(s); ++i) out.push_back(i);
  return out;
}

std::string topic_of(const ScenarioSpec& s) { return "scenario/" + s.name; }

std::string payload_key(char tag, std::size_t node, std::uint64_t epoch,
                        std::uint64_t j) {
  return std::string(1, tag) + '|' + std::to_string(node) + '|' +
         std::to_string(epoch) + '|' + std::to_string(j);
}

util::Bytes padded_payload(const ScenarioSpec& s, const std::string& key) {
  util::Bytes out = wakurln::util::to_bytes(key);
  if (out.size() < s.payload_bytes) out.resize(s.payload_bytes, 0);
  return out;
}

/// Honest and spam deliveries, excluding an origin's own local delivery.
struct DeliveryCounter {
  std::uint64_t honest = 0;
  std::uint64_t spam = 0;

  void add(std::size_t node, std::span<const std::uint8_t> payload) {
    if (payload.size() < 3 || payload[1] != '|') return;
    std::size_t origin = 0;
    for (std::size_t k = 2; k < payload.size() && payload[k] != '|'; ++k) {
      origin = origin * 10 + (payload[k] - '0');
    }
    if (origin == node) return;
    if (payload[0] == 'h') ++honest;
    if (payload[0] == 's') ++spam;
  }
};

/// Publishes the workload message `key` from a node.
using PublishFn = std::function<void(std::size_t node, const std::string& key)>;

sim::TimeUs traffic_start_us(const ScenarioSpec& s, const sim::Scheduler& sched) {
  const std::uint64_t now_s = sched.now() / sim::kUsPerSecond;
  return (now_s / s.epoch_seconds + 1) * s.epoch_seconds * sim::kUsPerSecond;
}

template <typename F>
double timed(F&& f) {
  const Clock::time_point t0 = Clock::now();
  f();
  return seconds_between(t0, Clock::now());
}

/// WAKU-RLN-RELAY world: the waku::SimHarness the runner builds.
class RlnWorld {
 public:
  RlnWorld(const ScenarioSpec& spec, std::uint64_t seed) : spec_(spec), seed_(seed) {}

  void build() {
    waku::HarnessConfig cfg = waku::HarnessConfig::defaults();
    cfg.node_count = spec_.nodes;
    cfg.world_threads = spec_.world_threads;
    cfg.seed = seed_;
    cfg.topology = spec_.topology;
    cfg.extra_links_per_node = spec_.extra_links_per_node;
    cfg.erdos_renyi_p = spec_.erdos_renyi_p;
    cfg.link = spec_.link;
    cfg.rln.epoch_period_seconds = spec_.epoch_seconds;
    cfg.rln.messages_per_epoch = spec_.messages_per_epoch;
    cfg.rln.batch_crypto = spec_.batch_crypto;
    cfg.link_profile = spec_.link_profile;
    world_ = std::make_unique<waku::SimHarness>(cfg);
  }
  void subscribe() { world_->subscribe_all(topic_of(spec_)); }
  void register_members() {
    if (spec_.register_publishers_only) {
      world_->register_nodes(publishing_nodes(spec_));
    } else {
      world_->register_all();
    }
  }
  void warm_up() { world_->run_seconds(5); }

  sim::Scheduler& scheduler() { return world_->scheduler(); }
  sim::Network& network() { return world_->network(); }
  std::uint64_t drain_seconds() const {
    return world_->config().rln.max_delay_seconds +
           2 * world_->chain().config().block_time_seconds + 5;
  }

  /// The outcome is not needed: published messages are counted from the
  /// relays' stats.
  void publish(std::size_t node, const std::string& key, bool checked) {
    const util::Bytes payload = padded_payload(spec_, key);
    if (checked) {
      world_->node(node).publish(topic_of(spec_), payload);
    } else {
      world_->node(node).publish_unchecked(topic_of(spec_), payload);
    }
  }

  void collect(WorldRun& out) const {
    DeliveryCounter counter;
    for (const auto& d : world_->deliveries()) counter.add(d.node_index, d.payload.span());
    out.honest_deliveries = counter.honest;
    out.spam_deliveries = counter.spam;
    const waku::WakuRlnRelay::Stats s = world_->aggregate_stats();
    out.published = s.published;
    out.validations = s.accepted + s.invalid_envelope + s.invalid_epoch +
                      s.invalid_slot + s.unknown_root + s.invalid_proof +
                      s.duplicates + s.double_signals;
    out.accepted = s.accepted;
    out.duplicates = s.duplicates;
    out.double_signals = s.double_signals;
    out.slashes_submitted = s.slashes_submitted;
    out.proof_verifications = s.proof_verifications;
    out.proof_cache_hits = s.proof_cache_hits;
    out.group_slashes = world_->group_sync().stats().slashes_applied;
    out.rln_ctx = world_->validator_context();
  }

  void destroy() { world_.reset(); }

 private:
  const ScenarioSpec& spec_;
  std::uint64_t seed_;
  std::unique_ptr<waku::SimHarness> world_;
};

/// PoW-baseline world: the plain-relay stack the runner builds.
class PowWorld {
 public:
  PowWorld(const ScenarioSpec& spec, std::uint64_t seed) : spec_(spec), seed_(seed) {}

  void build() {
    parts_ = std::make_unique<Parts>(spec_, seed_);
    Parts& p = *parts_;
    const auto params = std::make_shared<const gossipsub::GossipSubParams>();
    const auto topics = std::make_shared<gossipsub::TopicTable>();
    std::vector<sim::NodeId> ids;
    ids.reserve(spec_.nodes);
    p.relays.reserve(spec_.nodes);
    for (std::size_t i = 0; i < spec_.nodes; ++i) {
      ids.push_back(p.net.add_node({}));
      p.relays.push_back(
          std::make_unique<waku::WakuRelay>(ids.back(), p.net, params, topics));
    }
    sim::build_topology(p.net, ids, spec_.topology, spec_.extra_links_per_node,
                        spec_.erdos_renyi_p, p.rng, sim::DegreeBias{});
    if (spec_.link_profile == sim::LinkProfile::kGeo) {
      sim::apply_geo_latency(p.net, ids, spec_.link);
    }
    for (auto& r : p.relays) r->start();
  }

  void subscribe() {
    Parts& p = *parts_;
    p.lanes.resize(p.sched.lane_count());
    const std::string topic = topic_of(spec_);
    for (std::size_t i = 0; i < spec_.nodes; ++i) {
      p.relays[i]->router().set_validator(
          topic, [&p, inner = baselines::make_pow_validator(spec_.pow_difficulty_bits)](
                     sim::NodeId source, const gossipsub::GsMessage& msg) {
            ++p.lanes[p.sched.current_lane()].validations;
            return inner(source, msg);
          });
      p.relays[i]->subscribe(topic, [&p, i](const gossipsub::TopicId&,
                                            const util::SharedBytes& data) {
        const auto env = baselines::PowEnvelope::deserialize(data);
        if (!env) return;
        const auto nul = std::find(env->payload.begin(), env->payload.end(), 0);
        p.lanes[p.sched.current_lane()].deliveries.add(
            i, std::span<const std::uint8_t>(env->payload.begin(), nul));
      });
    }
  }
  void register_members() {}  // PoW has no membership
  void warm_up() { parts_->sched.run_for(5 * sim::kUsPerSecond); }

  sim::Scheduler& scheduler() { return parts_->sched; }
  sim::Network& network() { return parts_->net; }
  std::uint64_t drain_seconds() const { return 10; }

  void publish(std::size_t node, const std::string& key, bool /*checked*/) {
    const auto env = baselines::pow_seal(padded_payload(spec_, key),
                                         spec_.pow_difficulty_bits);
    parts_->relays[node]->publish(topic_of(spec_), env.serialize());
    ++parts_->published;
  }

  void collect(WorldRun& out) const {
    for (const Lane& lane : parts_->lanes) {
      out.honest_deliveries += lane.deliveries.honest;
      out.spam_deliveries += lane.deliveries.spam;
      out.validations += lane.validations;
    }
    out.published = parts_->published;
  }

  void destroy() { parts_.reset(); }

 private:
  struct alignas(64) Lane {
    DeliveryCounter deliveries;
    std::uint64_t validations = 0;
  };
  /// Declaration order is destruction order in reverse: relays go before
  /// the network, the network before the scheduler it is registered with.
  struct Parts {
    Parts(const ScenarioSpec& spec, std::uint64_t seed)
        : rng(seed), sched(spec.world_threads, spec.nodes), net(sched, rng, spec.link) {}
    wakurln::util::Rng rng;
    sim::Scheduler sched;
    sim::Network net;
    std::vector<std::unique_ptr<waku::WakuRelay>> relays;
    std::vector<Lane> lanes;
    std::uint64_t published = 0;
  };

  const ScenarioSpec& spec_;
  std::uint64_t seed_;
  std::unique_ptr<Parts> parts_;
};

template <typename World>
void set_up(World& world, SpanTable& spans) {
  spans.add("waku.harness_build_s", timed([&] { world.build(); }));
  spans.add("waku.subscribe_s", timed([&] { world.subscribe(); }));
  spans.add("eth.register_s", timed([&] { world.register_members(); }));
  spans.add("gossipsub.warmup_s", timed([&] { world.warm_up(); }));
}

/// Pre-schedules the workload exactly as the runner's traffic phase does:
/// one RNG stream drawn epoch-major, node-minor. Returns the end time.
sim::TimeUs schedule_traffic(const ScenarioSpec& spec, std::uint64_t seed,
                             sim::Scheduler& sched,
                             const PublishFn& honest,
                             const PublishFn& spam,
                             std::uint64_t drain_seconds) {
  const sim::TimeUs t_us = spec.epoch_seconds * sim::kUsPerSecond;
  wakurln::util::Rng traffic_rng(seed ^ 0x7472616666696331ULL);
  const sim::TimeUs start_us = traffic_start_us(spec, sched);
  for (std::uint64_t e = 0; e < spec.traffic_epochs; ++e) {
    const sim::TimeUs epoch_us = start_us + e * t_us;
    for (std::size_t i = 0; i < spec.active_publishers(); ++i) {
      const bool publishes = traffic_rng.chance(spec.honest_publish_prob);
      const sim::TimeUs off = t_us / 4 + traffic_rng.uniform(0, t_us / 4);
      if (!publishes) continue;
      sched.schedule_at(epoch_us + off,
                        [&honest, i, e] { honest(i, payload_key('h', i, e, 0)); });
    }
    for (std::size_t i = spammer_begin(spec); i < spammer_end(spec); ++i) {
      const sim::TimeUs off = t_us / 4 + traffic_rng.uniform(0, t_us / 4);
      for (std::uint64_t j = 0; j < spec.adversaries.spam_per_epoch; ++j) {
        sched.schedule_at(epoch_us + off + j * sim::kUsPerMs,
                          [&spam, i, e, j] { spam(i, payload_key('s', i, e, j)); });
      }
    }
  }
  return start_us + spec.traffic_epochs * t_us + drain_seconds * sim::kUsPerSecond;
}

template <typename World>
WorldRun drive(const ScenarioSpec& spec, std::uint64_t seed, bool traced) {
  WorldRun run;
  const Clock::time_point t_begin = Clock::now();
  World world(spec, seed);
  set_up(world, run.spans);
  sim::Scheduler& sched = world.scheduler();
  run.shards = sched.shard_count();

  // Publishes run as global events on the coordinator, so one plain
  // accumulator times them at every thread count.
  Clock::duration publish_time{};
  const auto publish = [&](std::size_t node, const std::string& key, bool checked) {
    ++run.publish_calls;
    if (!traced) {
      world.publish(node, key, checked);
      return;
    }
    const Clock::time_point t0 = Clock::now();
    world.publish(node, key, checked);
    publish_time += Clock::now() - t0;
  };
  const PublishFn honest =
      [&](std::size_t node, const std::string& key) { publish(node, key, true); };
  const PublishFn spam =
      [&](std::size_t node, const std::string& key) { publish(node, key, false); };

  sim::TimeUs end_us = 0;
  run.spans.add("scenario.schedule_s", timed([&] {
                  end_us = schedule_traffic(spec, seed, sched, honest, spam,
                                            world.drain_seconds());
                }));

  {
    std::optional<TracingSink> sink;
    if (traced) sink.emplace(sched, world.network(), /*capture=*/64);
    const double cpu0 = process_cpu_seconds();
    run.traffic_wall_s = timed([&] { sched.run_until(end_us); });
    run.traffic_cpu_s = process_cpu_seconds() - cpu0;
    if (sink) {
      run.delivery = sink->totals();
      run.captured = sink->captured();
    }
  }
  const double publish_s = std::chrono::duration<double>(publish_time).count();
  if (traced) {
    attribute_traffic(run,
                      spec.protocol == Protocol::kPow ? "baselines.publish_s"
                                                      : "rln.publish_s",
                      publish_s);
  } else {
    run.spans.add("scenario.traffic_s", run.traffic_wall_s);
  }

  run.spans.add("scenario.report_s", timed([&] {
                  world.collect(run);
                  run.events_executed = sched.stats().executed;
                  const sim::Network::Stats ns = world.network().stats();
                  run.frames_sent = ns.frames_sent;
                  run.frames_lost = ns.frames_lost;
                }));
  run.spans.add("waku.teardown_s", timed([&] { world.destroy(); }));
  run.wall_s = seconds_between(t_begin, Clock::now());
  run.spans.set_wall(run.wall_s);
  return run;
}

template <typename World>
double setup_only(const ScenarioSpec& spec, std::uint64_t seed) {
  World world(spec, seed);
  SpanTable spans;
  set_up(world, spans);
  return spans.sum();
}

}  // namespace

void attribute_traffic(WorldRun& run, const std::string& publish_span,
                       double publish_s) {
  const double net_thread = run.delivery.network_self_s;
  const double handle_thread = run.delivery.handle_s;
  const double delivery_thread = net_thread + handle_thread;
  double scale = 1.0;
  if (run.shards > 1 && delivery_thread > 0) {
    const double cpu = run.traffic_cpu_s - publish_s;
    const double share = cpu > 0 ? std::clamp(delivery_thread / cpu, 0.0, 1.0) : 0.0;
    scale = share * std::max(run.traffic_wall_s - publish_s, 0.0) / delivery_thread;
  }
  run.spans.add("sim.network_self_s", net_thread * scale);
  run.spans.add("gossipsub.handle_s", handle_thread * scale);
  run.spans.add(publish_span, publish_s);
  run.spans.add("sim.scheduler_self_s",
                run.traffic_wall_s - publish_s - delivery_thread * scale);
}

WorldRun drive_world(const ScenarioSpec& spec, std::uint64_t seed, bool traced) {
  require_supported(spec);
  return spec.protocol == Protocol::kPow ? drive<PowWorld>(spec, seed, traced)
                                         : drive<RlnWorld>(spec, seed, traced);
}

double measure_setup(const ScenarioSpec& spec, std::uint64_t seed) {
  require_supported(spec);
  return spec.protocol == Protocol::kPow ? setup_only<PowWorld>(spec, seed)
                                         : setup_only<RlnWorld>(spec, seed);
}

}  // namespace perfbench
