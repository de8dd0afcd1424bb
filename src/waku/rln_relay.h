#pragma once
// WAKU-RLN-RELAY — the paper's contribution (§III): WAKU-RELAY extended
// with RLN so each group member may publish at most one message per epoch.
//
// Per peer this class wires together:
//   * registration        — stake + pk to the membership contract; the
//                           commitment pk = H(sk) is hashed on first need
//                           (registration, or a caller reading
//                           identity()), so relays that never register
//                           pay no Poseidon
//   * group sync          — Merkle tree maintained from contract events
//                           (a GroupSync service, shareable across the
//                           peers of one simulated world), with an
//                           acceptable-root window
//   * rate-limited publish — RLN signal attached to every message
//   * routing validation  — proof check, epoch window (Thr = D/T),
//                           nullifier-map double-signal detection, and a
//                           message-id-keyed proof-result cache so IWANT
//                           re-deliveries and gossip duplicates skip the
//                           repeat zkSNARK verification
//   * verdict memo        — a host cache, one slot per scheduler lane,
//                           outside the model and the memory ledger (its
//                           occupancy depends on the thread count): the
//                           world computes each message's proof verdict
//                           and x = H(payload) once per lane. It is
//                           separate from the per-node modeled proof
//                           cache above; every relay still runs every
//                           check and keeps its own counts.
//   * slashing            — reconstructed sk submitted to the contract;
//                           the slasher earns the reward share

#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "eth/membership_contract.h"
#include "rln/epoch.h"
#include "rln/group.h"
#include "rln/identity.h"
#include "rln/nullifier_map.h"
#include "rln/prover.h"
#include "waku/group_sync.h"
#include "waku/relay.h"

namespace wakurln::obs {
class Tracer;
}

namespace wakurln::waku {

/// Host-side memo of the pure part of RLN validation: for each message id,
/// the proof verdict and x = RlnCircuit::message_to_x(payload). The id is
/// SHA-256(topic || data) of an immutable message, so an equal id means
/// equal bytes, and the verdict depends only on those bytes and the
/// world's CRS and rate. One slot per scheduler lane: a lane reads and
/// writes only its own slot, so no locks are needed. Each slot drops
/// entries older than the caller's retention window when it inserts.
///
/// Not part of the model: relays still count, trace and queue every
/// verification through their own proof cache, and the hit/miss counters
/// here appear in no report.
class VerdictMemo {
 public:
  struct Verdict {
    bool proof_ok = false;
    field::Fr x;
  };

  explicit VerdictMemo(std::size_t lanes) : lanes_(lanes) {}

  /// The lane's memoised verdict for `id`, if any (counts a hit or miss).
  std::optional<Verdict> find(std::size_t lane, const gossipsub::MessageId& id);
  /// Records `verdict` for `id` at `epoch`, first dropping the lane's
  /// entries recorded before `epoch - keep_epochs`.
  void insert(std::size_t lane, const gossipsub::MessageId& id, const Verdict& verdict,
              std::uint64_t epoch, std::uint64_t keep_epochs);

  std::size_t lane_count() const { return lanes_.size(); }
  /// Read these only while no lane executes (e.g. between runs).
  std::uint64_t hits() const;
  std::uint64_t misses() const;
  std::size_t size() const;

 private:
  /// Cache-line aligned: lanes on different threads never share a line.
  struct alignas(64) Lane {
    std::unordered_map<gossipsub::MessageId, Verdict, gossipsub::MessageIdHash> verdicts;
    /// (insert epoch, id) in insertion order; epochs never decrease
    /// because a lane executes its events in time order.
    std::deque<std::pair<std::uint64_t, gossipsub::MessageId>> order;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
  };
  std::vector<Lane> lanes_;
};

/// Validation state every pure relay of a world shares: the CRS, one
/// verifier built from it, the world's nullifier record store and the
/// host-side verdict memo. The old design gave each node a private copy
/// of the first three; one context per world is what lets a 250k-node
/// harness hold a single CRS and a single deduplicated record arena. A
/// relay constructed without a context builds a private one from its own
/// CRS copy, with a memo sized for its own scheduler.
struct RlnValidatorContext {
  zksnark::KeyPair crs;
  rln::RlnVerifier verifier;
  std::shared_ptr<rln::NullifierStore> store;
  /// Host cache (see VerdictMemo); mutable because filling it changes no
  /// observable state of the context.
  mutable VerdictMemo memo;

  /// `lanes` is the world scheduler's lane_count().
  static std::shared_ptr<const RlnValidatorContext> make(
      zksnark::KeyPair crs, std::uint64_t messages_per_epoch, std::size_t lanes);

  /// The proof verdict and x of message `id` (decoded as `payload` and
  /// `signal`) from `lane`'s memo slot. On a miss it hashes x once,
  /// verifies through the prepared path (`prepared`) or the scalar
  /// reference (verdicts identical), and records the result at `epoch`,
  /// dropping the slot's entries older than `keep_epochs`.
  VerdictMemo::Verdict verdict(std::size_t lane, const gossipsub::MessageId& id,
                               std::span<const std::uint8_t> payload,
                               const rln::RlnSignal& signal, bool prepared,
                               std::uint64_t epoch, std::uint64_t keep_epochs) const;

  /// Modeled resident bytes of the shared state (the record store
  /// dominates) — counted once per world by the harness. The memo is a
  /// host cache, not modeled state, so its bytes are left out.
  std::size_t memory_bytes() const {
    return sizeof(RlnValidatorContext) - sizeof(VerdictMemo) + store->memory_bytes();
  }
};

struct WakuRlnConfig {
  /// Membership tree depth (must match the proof-system setup).
  std::size_t tree_depth = 20;
  /// Epoch length T in seconds (paper §III).
  std::uint64_t epoch_period_seconds = 10;
  /// Maximum network delay D in seconds; Thr = ceil(D/T).
  std::uint64_t max_delay_seconds = 20;
  /// How many recent roots a router accepts (tolerates peers proving
  /// against a slightly stale tree during group sync).
  std::size_t acceptable_root_window = 5;
  /// Automatically submit slashing transactions on double-signals.
  bool auto_slash = true;
  /// Keep nullifier records for max(Thr,1)*this epochs before pruning.
  std::uint64_t nullifier_retention_factor = 2;
  /// Messages each member may publish per epoch. 1 is the paper's scheme;
  /// k > 1 is the RLN-v2-style rate extension: each (epoch, slot) pair is
  /// an independent external nullifier, so slot reuse still leaks the key.
  std::uint64_t messages_per_epoch = 1;
  /// Capacity of the proof-result cache (message ids; FIFO eviction;
  /// 0 disables). Cheap insurance: a re-delivered message (late IWANT
  /// after seen-cache expiry) reuses its zkSNARK verdict.
  std::size_t proof_cache_entries = 4096;
  /// Batched crypto hot path: registrations flush through the Merkle
  /// batch append at block seals and proofs verify through the
  /// allocation-free PreparedVerifier. Every deterministic report byte is
  /// identical either way (pinned by tests/report_pins_test.cpp); off =
  /// the scalar reference paths.
  bool batch_crypto = true;
};

class WakuRlnRelay {
 public:
  enum class PublishOutcome {
    kPublished,
    kNotRegistered,   ///< no confirmed membership yet
    kRateLimited,     ///< already published in this epoch (honest client stop)
    kProofFailed,     ///< local state inconsistent with the group
  };

  struct Stats {
    std::uint64_t published = 0;
    std::uint64_t accepted = 0;           ///< valid messages delivered/relayed
    std::uint64_t invalid_envelope = 0;   ///< unparseable data
    std::uint64_t invalid_epoch = 0;      ///< outside Thr window
    std::uint64_t invalid_slot = 0;       ///< message index beyond the rate
    std::uint64_t unknown_root = 0;       ///< not in the acceptable-root window
    std::uint64_t invalid_proof = 0;
    std::uint64_t duplicates = 0;         ///< same share seen again
    std::uint64_t double_signals = 0;     ///< rate violations detected
    std::uint64_t slashes_submitted = 0;  ///< slash txs sent to the contract
    std::uint64_t proof_verifications = 0;  ///< zkSNARK verify calls made
    std::uint64_t proof_cache_hits = 0;     ///< verify calls saved by the cache
  };

  using PayloadHandler =
      std::function<void(const gossipsub::TopicId&, const util::SharedBytes&)>;

  /// `group_sync` may be shared across the peers of one simulated world
  /// (their views are deterministically identical — see group_sync.h);
  /// nullptr creates a private sync. Likewise `ctx` shares the immutable
  /// validator state (CRS + verifier + nullifier record store); nullptr
  /// builds a private context from `crs` (which is ignored when a shared
  /// context is supplied).
  WakuRlnRelay(WakuRelay& relay, eth::Chain& chain,
               eth::MembershipContract& contract, zksnark::KeyPair crs,
               eth::Address account, WakuRlnConfig config, util::Rng rng,
               std::shared_ptr<GroupSync> group_sync = nullptr,
               std::shared_ptr<const RlnValidatorContext> ctx = nullptr);

  // -- membership -------------------------------------------------------
  /// Submits the staking registration transaction; membership becomes
  /// active once the event fires (next mined block).
  std::uint64_t request_registration();
  bool is_registered() const { return own_index_.has_value(); }
  /// This relay's identity. sk is drawn at construction; the commitment
  /// pk = H(sk) is computed on the first call (or at registration) and
  /// reused after. Call it from the coordinator or global lane, or from
  /// this relay's own lane: the first call writes the cached pk.
  const rln::Identity& identity() const;
  eth::Address account() const { return account_; }

  // -- messaging ----------------------------------------------------------
  /// Subscribes to `topic` with RLN validation installed on the route.
  void subscribe(const gossipsub::TopicId& topic, PayloadHandler handler);

  /// Rate-limited publish (honest client: refuses a second message in the
  /// same epoch locally).
  PublishOutcome publish(const gossipsub::TopicId& topic, const util::Bytes& payload);

  /// Publishes *without* the local rate check — simulates a misbehaving
  /// client; the network detects the double-signal and slashes.
  PublishOutcome publish_unchecked(const gossipsub::TopicId& topic,
                                   const util::Bytes& payload);

  // -- introspection ------------------------------------------------------
  const rln::RlnGroup& group() const { return sync_->group(); }
  const Stats& stats() const { return stats_; }
  std::uint64_t current_epoch() const;
  const rln::EpochScheme& epoch_scheme() const { return epochs_; }
  /// Per-node nullifier view bytes; the shared record store is accounted
  /// once per world via validator_context()->memory_bytes().
  std::size_t nullifier_map_bytes() const { return nullifier_map_.memory_bytes(); }
  const std::shared_ptr<const RlnValidatorContext>& validator_context() const {
    return ctx_;
  }

  /// Attaches the message-lifecycle tracer (nullptr detaches). `track` is
  /// the trace track (= node index) this relay's publish / verify /
  /// cache-hit / drop events land on.
  void set_tracer(obs::Tracer* tracer, std::uint32_t track) {
    tracer_ = tracer;
    trace_track_ = track;
  }

  /// The RLN wire envelope: var(signal) || var(payload).
  static util::Bytes encode_envelope(const rln::RlnSignal& signal,
                                     const util::Bytes& payload);
  static std::optional<std::pair<rln::RlnSignal, util::Bytes>> decode_envelope(
      std::span<const std::uint8_t> data);
  /// Zero-copy variant: the returned payload is a slice sharing `data`'s
  /// buffer (no allocation on the validation hot path).
  static std::optional<std::pair<rln::RlnSignal, util::SharedBytes>> decode_envelope(
      const util::SharedBytes& data);

 private:
  sim::Scheduler& scheduler() const { return relay_.router().network().scheduler(); }
  std::uint64_t now_seconds() const;
  sim::TimeUs now_us() const;
  /// Records a validation-drop instant ("drop", args.msg = reason).
  void trace_drop(const char* reason);
  PublishOutcome do_publish(const gossipsub::TopicId& topic,
                            const util::Bytes& payload, bool enforce_rate_limit);
  gossipsub::Validation validate(sim::NodeId source, const gossipsub::GsMessage& msg);
  /// This node's modeled verification of a proof whose verdict is
  /// `proof_ok`: proof-cache lookup, verification counts, trace span and
  /// the modeled batch queue.
  bool verify_proof_cached(const gossipsub::MessageId& id, bool proof_ok);
  void on_chain_event(const eth::ContractEvent& event);
  void submit_slash(const field::Fr& sk);
  bool root_acceptable(const field::Fr& root) const;
  void schedule_nullifier_gc();

  WakuRelay& relay_;
  eth::Chain& chain_;
  eth::MembershipContract& contract_;
  eth::Address account_;
  WakuRlnConfig config_;
  util::Rng rng_;

  /// sk from construction; pk valid only once has_pk_ (see identity()).
  mutable rln::Identity identity_;
  mutable bool has_pk_ = false;
  rln::EpochScheme epochs_;
  std::shared_ptr<GroupSync> sync_;
  std::shared_ptr<const RlnValidatorContext> ctx_;  ///< world-shared
  rln::NullifierMap nullifier_map_;
  /// Built from the shared CRS on first publish: pure relays (the vast
  /// majority of a large world) never pay for a prover.
  std::unique_ptr<rln::RlnProver> prover_;

  std::optional<std::uint64_t> own_index_;
  std::uint64_t publish_epoch_ = 0;       ///< epoch the counter refers to
  std::uint64_t published_in_epoch_ = 0;  ///< honest messages sent this epoch
  /// Absolute index the shared distinct-root sequence had when this relay
  /// was constructed; roots older than this were never in our window.
  std::uint64_t root_floor_ = 0;
  /// Nullifier records and verdict-memo entries are kept this many epochs.
  std::uint64_t keep_epochs_ = 1;
  /// Recovered secret keys already slashed: one slash tx per offender
  /// (pk = H(sk), so keying by sk needs no Poseidon call).
  std::unordered_set<field::Fr, field::FrHash> slash_submitted_;
  /// Proof verdicts by message id, FIFO-bounded at proof_cache_entries.
  std::unordered_map<gossipsub::MessageId, bool, gossipsub::MessageIdHash> proof_cache_;
  std::deque<gossipsub::MessageId> proof_cache_order_;
  PayloadHandler handler_;
  Stats stats_;
  sim::TimerHandle gc_timer_;
  obs::Tracer* tracer_ = nullptr;
  std::uint32_t trace_track_ = 0;
};

}  // namespace wakurln::waku
