#pragma once
// Turn-key simulated deployments. RelayWorld is the protocol-free part:
// N WAKU-RELAY peers on one scheduler and network, wired into a
// random-but-connected overlay, with a stamp-ordered delivery log and the
// protocol-free observability probes. SimHarness is WAKU-RLN-RELAY on top
// of it: one chain, one membership contract, an RLN relay per peer and
// block mining driven by the simulated clock. The scenario runner builds
// its PoW-baseline worlds on a bare RelayWorld, so both protocols share
// one world builder. This is the top-level entry point examples, benches
// and integration studies build on — "give me a working network in five
// lines".

#include <array>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "eth/membership_contract.h"
#include "obs/registry.h"
#include "sim/network.h"
#include "sim/scheduler.h"
#include "sim/topology.h"
#include "waku/relay.h"
#include "waku/rln_relay.h"

namespace wakurln::obs {
class Tracer;
}

namespace wakurln::waku {

/// The protocol-free knobs of a relay world.
struct WorldConfig {
  std::size_t node_count = 10;
  /// Scheduler shards executing the world (sim/scheduler.h). 1 = the
  /// serial engine; N > 1 partitions the nodes across N worker threads
  /// with conservative window synchronisation — every deterministic
  /// output stays byte-identical to the serial run. Worlds that attach a
  /// Tracer must stay at 1 (the tracer is not shard-aware).
  unsigned world_threads = 1;
  sim::LinkParams link;
  gossipsub::GossipSubParams gossip;
  /// Overlay family the peers are wired into.
  sim::TopologyKind topology = sim::TopologyKind::kRingPlusRandom;
  /// Random chords per node on top of the base ring (kRingPlusRandom).
  std::size_t extra_links_per_node = 3;
  /// Pairwise edge probability (kErdosRenyi).
  double erdos_renyi_p = 0.3;
  /// kGeo derives per-link latency from region pairs (sim/topology.h).
  sim::LinkProfile link_profile = sim::LinkProfile::kUniform;
  /// Node indices whose overlay degree is biased upward at build time:
  /// each gets degree_boost_links extra random chords through the
  /// sim::build_topology bias hook (sybil high-degree observer
  /// placement). Empty = the unbiased build, byte-identical to before.
  std::vector<std::size_t> degree_boost_nodes;
  std::size_t degree_boost_links = 0;
  std::uint64_t seed = 42;
};

struct HarnessConfig : WorldConfig {
  WakuRlnConfig rln;
  eth::Chain::Config chain;
  /// Stake per membership (forwarded into the contract config).
  std::uint64_t stake_wei = 1'000'000;
  double burn_fraction = 0.5;
  std::uint64_t initial_balance_wei = 100'000'000;

  static HarnessConfig defaults() {
    HarnessConfig cfg;
    cfg.rln.tree_depth = 12;
    cfg.link.base_latency = 30 * sim::kUsPerMs;
    cfg.link.jitter = 20 * sim::kUsPerMs;
    return cfg;
  }
};

/// Protocol-free relay world. Construction is two-phase, because the
/// world RNG is shared with whatever protocol runs on top: add_relay()
/// once per node (each router draws its stream seed from the world RNG),
/// then wire() draws the overlay, then start() launches the routers.
class RelayWorld {
 public:
  /// One observed application-level delivery. The payload is a shared
  /// view of the message buffer — recording 10k deliveries of one
  /// message costs 10k views, not 10k copies.
  struct Delivery {
    std::size_t node_index;
    util::SharedBytes payload;
    sim::TimeUs at;
  };

  /// Pull probes of the protocol running on the relays, keyed by column
  /// name (see attach_observability for where each group lands).
  using ProbeList = std::vector<std::pair<std::string, std::function<double()>>>;

  explicit RelayWorld(const WorldConfig& config);

  /// Adds the next peer (node index = size()) to the network.
  WakuRelay& add_relay();
  /// Wires the peers into the configured overlay: topology, degree bias
  /// and geo link latency.
  void wire();
  /// Starts every relay (network callbacks + heartbeats).
  void start();

  std::size_t size() const { return relays_.size(); }
  WakuRelay& relay(std::size_t i) { return *relays_.at(i); }

  sim::Scheduler& scheduler() { return scheduler_; }
  sim::Network& network() { return network_; }
  util::Rng& rng() { return rng_; }

  /// Advances the simulated world.
  void run_seconds(std::uint64_t seconds);
  void run_ms(std::uint64_t ms);

  /// Records node `node`'s delivery of `payload` into the executing
  /// lane's log (and a "deliver" trace instant). Call from subscription
  /// handlers only.
  void record_delivery(std::size_t node, const util::SharedBytes& payload);

  /// All recorded deliveries in event-stamp order — the exact order the
  /// serial engine would have produced, regardless of world_threads
  /// (per-lane logs are merged deterministically on read).
  const std::vector<Delivery>& deliveries() const;
  void clear_deliveries();

  /// Number of distinct nodes that delivered `payload`.
  std::size_t nodes_delivered(const util::Bytes& payload) const;

  /// Bytes of the world-shared router state (gossipsub parameter block +
  /// interned topic table) — counted once per world, never per node.
  std::size_t router_shared_bytes() const {
    return sizeof(gossipsub::GossipSubParams) + topic_table_->memory_bytes();
  }
  /// Routing state of every node plus the shared state, once.
  std::size_t router_bytes() const;
  /// Gossip message caches of every node.
  std::size_t mcache_bytes() const;

  /// Wires the observability layer into the world: registers the
  /// network's push instruments and the pull probes on `reg` in a fixed
  /// order (= time-series column order), and attaches `tracer` (may be
  /// nullptr) to every router and the delivery log. The protocol's probes
  /// land after delivered_total (`protocol[0]`), after the scheduler
  /// queue pair (`protocol[1]`) and after the gossip-cache bytes
  /// (`protocol[2]`). A disabled registry keeps everything inert. Call
  /// once, after construction and before driving traffic.
  void attach_observability(obs::Registry& reg, obs::Tracer* tracer,
                            const std::array<ProbeList, 3>& protocol = {});

 private:
  WorldConfig config_;
  util::Rng rng_;
  sim::Scheduler scheduler_;
  sim::Network network_;
  /// World-shared router state, one copy regardless of node count: each
  /// relay holds shared_ptr handles instead of private copies.
  std::shared_ptr<const gossipsub::GossipSubParams> gossip_params_;
  std::shared_ptr<gossipsub::TopicTable> topic_table_;
  std::vector<std::unique_ptr<WakuRelay>> relays_;
  /// Delivery records land in the recording node's lane log (workers
  /// never touch a shared vector); deliveries() folds the lane logs into
  /// deliveries_ in stamp order. Stamps only ever grow between folds, so
  /// the fold appends — earlier merged entries never reorder.
  mutable std::vector<Delivery> deliveries_;
  mutable std::vector<std::vector<std::pair<sim::Scheduler::Stamp, Delivery>>>
      lane_deliveries_;
  obs::Tracer* tracer_ = nullptr;
};

class SimHarness : public RelayWorld {
 public:
  explicit SimHarness(HarnessConfig config);

  WakuRlnRelay& node(std::size_t i) { return *nodes_.at(i); }
  eth::Address account_of(std::size_t i) const { return 10'000 + i; }

  eth::Chain& chain() { return chain_; }
  eth::MembershipContract& contract() { return *contract_; }
  /// The world's shared membership sync (churn counters live here).
  const GroupSync& group_sync() const { return *sync_; }
  /// The world's shared immutable validator state (CRS + verifier +
  /// nullifier record store) — one copy for all peers.
  const std::shared_ptr<const RlnValidatorContext>& validator_context() const {
    return ctx_;
  }
  const zksnark::KeyPair& crs() const { return crs_; }
  const HarnessConfig& config() const { return config_; }

  /// Subscribes every node to `topic`, recording deliveries.
  void subscribe_all(const gossipsub::TopicId& topic);

  /// Registers every node and mines the confirmations.
  void register_all();

  /// Registers only the given node indices and mines the confirmations —
  /// large worlds register their publishers while the remaining nodes
  /// stay pure (validating, unregistered) relays.
  void register_nodes(std::span<const std::size_t> indices);

  /// Aggregated stats across all nodes.
  WakuRlnRelay::Stats aggregate_stats() const;

  /// RelayWorld::attach_observability plus the RLN probes (acceptance,
  /// slashing, proof-cache hit rate, group-sync churn, stake burnt,
  /// nullifier and Merkle memory) and the RLN relays' tracer (publish /
  /// verify / cache-hit / drop events).
  void attach_observability(obs::Registry& reg, obs::Tracer* tracer);

 private:
  HarnessConfig config_;
  eth::Chain chain_;
  std::unique_ptr<eth::RegistryListContract> contract_;
  std::shared_ptr<GroupSync> sync_;
  zksnark::KeyPair crs_;
  std::shared_ptr<const RlnValidatorContext> ctx_;
  std::vector<std::unique_ptr<WakuRlnRelay>> nodes_;
  sim::TimerHandle mine_timer_;
};

}  // namespace wakurln::waku
