#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "hash/poseidon.h"
#include "scenario/runner.h"
#include "scenario/scenarios.h"
#include "sim/topology.h"
#include "waku/harness.h"
#include "waku/relay.h"
#include "waku/rln_relay.h"

namespace wakurln::waku {
namespace {

using util::Bytes;
using util::Rng;

// Full-stack fixture: chain + contract + N waku-rln-relay peers on a
// simulated network, with block mining driven by the scheduler.
struct TestNet {
  sim::Scheduler sched;
  Rng rng{777};
  sim::Network net{sched, rng, link()};
  eth::Chain chain{chain_config()};
  std::unique_ptr<eth::RegistryListContract> contract;
  zksnark::KeyPair crs;
  std::vector<std::unique_ptr<WakuRelay>> relays;
  std::vector<std::unique_ptr<WakuRlnRelay>> nodes;
  std::unordered_map<sim::NodeId, std::vector<Bytes>> delivered;

  static sim::LinkParams link() {
    sim::LinkParams l;
    l.base_latency = 20 * sim::kUsPerMs;
    l.jitter = 10 * sim::kUsPerMs;
    return l;
  }
  static eth::Chain::Config chain_config() {
    eth::Chain::Config cfg;
    cfg.block_time_seconds = 12;
    return cfg;
  }
  static WakuRlnConfig rln_config() {
    WakuRlnConfig cfg;
    cfg.tree_depth = 10;
    cfg.epoch_period_seconds = 10;
    cfg.max_delay_seconds = 20;
    return cfg;
  }

  explicit TestNet(std::size_t n, WakuRlnConfig cfg = rln_config()) {
    eth::MembershipConfig mcfg;
    mcfg.tree_depth = cfg.tree_depth;
    contract = std::make_unique<eth::RegistryListContract>(chain, mcfg);
    crs = zksnark::MockGroth16::setup(cfg.tree_depth, rng);

    std::vector<sim::NodeId> ids;
    for (std::size_t i = 0; i < n; ++i) {
      const sim::NodeId id = net.add_node({});
      ids.push_back(id);
      relays.push_back(std::make_unique<WakuRelay>(id, net));
      const eth::Address account = 1000 + i;
      chain.ledger().mint(account, 100'000'000);
      nodes.push_back(std::make_unique<WakuRlnRelay>(
          *relays.back(), chain, *contract, crs, account, cfg, Rng(rng.next_u64())));
    }
    connect_ring_plus_random(net, ids, 3, rng);
    for (auto& r : relays) r->start();

    // Periodic block production on the simulated clock.
    schedule_mining();
  }

  void schedule_mining() {
    sched.schedule_after(chain.config().block_time_seconds * sim::kUsPerSecond, [this] {
      chain.mine_block(sched.now() / sim::kUsPerSecond);
      schedule_mining();
    });
  }

  void subscribe_all(const std::string& topic) {
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      nodes[i]->subscribe(topic, [this, id = relays[i]->id()](
                                     const gossipsub::TopicId&,
                                     const util::SharedBytes& payload) {
        delivered[id].push_back(payload.to_vector());
      });
    }
  }

  void register_all() {
    for (auto& n : nodes) n->request_registration();
    run_seconds(15);  // one block
  }

  void run_seconds(std::uint64_t s) { sched.run_for(s * sim::kUsPerSecond); }

  std::size_t total_delivered() const {
    std::size_t n = 0;
    for (const auto& [id, msgs] : delivered) n += msgs.size();
    return n;
  }
};

TEST(WakuRelayTest, AnonymousPayloadDelivery) {
  sim::Scheduler sched;
  Rng rng(1);
  sim::Network net(sched, rng, TestNet::link());
  std::vector<sim::NodeId> ids;
  std::vector<std::unique_ptr<WakuRelay>> relays;
  for (int i = 0; i < 10; ++i) {
    const auto id = net.add_node({});
    ids.push_back(id);
    relays.push_back(std::make_unique<WakuRelay>(id, net));
  }
  sim::connect_ring_plus_random(net, ids, 3, rng);
  int received = 0;
  for (auto& r : relays) {
    r->start();
    r->subscribe("chat",
                 [&](const gossipsub::TopicId&, const util::SharedBytes&) { ++received; });
  }
  sched.run_for(5 * sim::kUsPerSecond);
  relays[0]->publish("chat", util::to_bytes("hi"));
  sched.run_for(5 * sim::kUsPerSecond);
  EXPECT_EQ(received, 10);
}

TEST(WakuRlnRelayTest, RegistrationConfirmsViaContractEvent) {
  TestNet tn(4);
  EXPECT_FALSE(tn.nodes[0]->is_registered());
  tn.nodes[0]->request_registration();
  EXPECT_FALSE(tn.nodes[0]->is_registered());  // pending until mined
  tn.run_seconds(15);
  EXPECT_TRUE(tn.nodes[0]->is_registered());
  // Every peer's local group observed the same registration event.
  for (auto& n : tn.nodes) {
    EXPECT_EQ(n->group().member_count(), 1u);
  }
}

TEST(WakuRlnRelayTest, PublishRequiresRegistration) {
  TestNet tn(4);
  tn.subscribe_all("t");
  EXPECT_EQ(tn.nodes[0]->publish("t", util::to_bytes("m")),
            WakuRlnRelay::PublishOutcome::kNotRegistered);
}

TEST(WakuRlnRelayTest, ValidMessageReachesEveryone) {
  TestNet tn(8);
  tn.subscribe_all("t");
  tn.register_all();
  tn.run_seconds(5);
  EXPECT_EQ(tn.nodes[0]->publish("t", util::to_bytes("hello rln")),
            WakuRlnRelay::PublishOutcome::kPublished);
  tn.run_seconds(10);
  EXPECT_EQ(tn.total_delivered(), tn.nodes.size());
  for (const auto& [id, msgs] : tn.delivered) {
    ASSERT_EQ(msgs.size(), 1u);
    EXPECT_EQ(msgs[0], util::to_bytes("hello rln"));
  }
}

TEST(WakuRlnRelayTest, HonestClientIsRateLimitedLocally) {
  TestNet tn(4);
  tn.subscribe_all("t");
  tn.register_all();
  EXPECT_EQ(tn.nodes[0]->publish("t", util::to_bytes("first")),
            WakuRlnRelay::PublishOutcome::kPublished);
  EXPECT_EQ(tn.nodes[0]->publish("t", util::to_bytes("second-same-epoch")),
            WakuRlnRelay::PublishOutcome::kRateLimited);
  // Next epoch the client may publish again.
  tn.run_seconds(tn.nodes[0]->epoch_scheme().period_seconds());
  EXPECT_EQ(tn.nodes[0]->publish("t", util::to_bytes("next-epoch")),
            WakuRlnRelay::PublishOutcome::kPublished);
}

TEST(WakuRlnRelayTest, DoubleSignalDetectedAndSlashed) {
  TestNet tn(8);
  tn.subscribe_all("t");
  tn.register_all();
  tn.run_seconds(5);

  WakuRlnRelay& spammer = *tn.nodes[0];
  const auto account_before = tn.chain.ledger().balance_of(spammer.account());
  EXPECT_EQ(spammer.publish_unchecked("t", util::to_bytes("spam-1")),
            WakuRlnRelay::PublishOutcome::kPublished);
  EXPECT_EQ(spammer.publish_unchecked("t", util::to_bytes("spam-2")),
            WakuRlnRelay::PublishOutcome::kPublished);
  (void)account_before;
  tn.run_seconds(30);  // propagate + mine the slash tx

  // Some router detected the double-signal and slashed the spammer.
  std::uint64_t detections = 0, slashes = 0;
  for (auto& n : tn.nodes) {
    detections += n->stats().double_signals;
    slashes += n->stats().slashes_submitted;
  }
  EXPECT_GE(detections, 1u);
  EXPECT_GE(slashes, 1u);
  EXPECT_FALSE(tn.contract->is_active(spammer.identity().pk));
  EXPECT_FALSE(spammer.is_registered());  // self-view updated by event
  // Stake economics: half burnt, half rewarded to some slasher.
  EXPECT_EQ(tn.chain.ledger().burnt_total(), tn.contract->config().stake_wei / 2);
}

TEST(WakuRlnRelayTest, SlashedMemberCannotPublish) {
  TestNet tn(6);
  tn.subscribe_all("t");
  tn.register_all();
  tn.run_seconds(5);
  WakuRlnRelay& spammer = *tn.nodes[0];
  spammer.publish_unchecked("t", util::to_bytes("a"));
  spammer.publish_unchecked("t", util::to_bytes("b"));
  tn.run_seconds(30);
  ASSERT_FALSE(spammer.is_registered());
  EXPECT_EQ(spammer.publish("t", util::to_bytes("after-slash")),
            WakuRlnRelay::PublishOutcome::kNotRegistered);
}

TEST(LazyCommitmentTest, IdentityMatchesIdentityGenerateFromTheSameSeed) {
  // The relay draws sk exactly as Identity::generate does and hashes pk
  // only when asked, so the rng stream and the identity are unchanged.
  TestNet tn(1);
  WakuRelay relay(tn.net.add_node({}), tn.net);
  const WakuRlnRelay node(relay, tn.chain, *tn.contract, tn.crs, 5000,
                          TestNet::rln_config(), Rng(4242));
  Rng reference(4242);
  const rln::Identity expected = rln::Identity::generate(reference);
  EXPECT_EQ(node.identity().sk, expected.sk);
  EXPECT_EQ(node.identity().pk, expected.pk);
  EXPECT_EQ(node.identity().pk, hash::poseidon_hash1(node.identity().sk));
}

TEST(LazyCommitmentTest, UnreadIdentityRegistersPublishesAndIsSlashed) {
  TestNet tn(6);
  tn.subscribe_all("t");
  WakuRlnRelay& spammer = *tn.nodes[0];
  // Nobody reads identity() before registration builds the commitment.
  tn.register_all();
  ASSERT_TRUE(spammer.is_registered());
  EXPECT_TRUE(tn.contract->is_active(spammer.identity().pk));
  EXPECT_TRUE(spammer.group().index_of(spammer.identity().pk).has_value());
  tn.run_seconds(5);
  EXPECT_EQ(spammer.publish_unchecked("t", util::to_bytes("a")),
            WakuRlnRelay::PublishOutcome::kPublished);
  EXPECT_EQ(spammer.publish_unchecked("t", util::to_bytes("b")),
            WakuRlnRelay::PublishOutcome::kPublished);
  tn.run_seconds(30);
  EXPECT_FALSE(spammer.is_registered());
  EXPECT_FALSE(tn.contract->is_active(spammer.identity().pk));
  EXPECT_EQ(tn.chain.ledger().burnt_total(), tn.contract->config().stake_wei / 2);
}

TEST(LazyCommitmentTest, NeverRegisteredRelayIgnoresOtherMembersEvents) {
  TestNet tn(6);
  tn.subscribe_all("t");
  WakuRlnRelay& bystander = *tn.nodes[5];
  for (std::size_t i = 0; i < 5; ++i) tn.nodes[i]->request_registration();
  tn.run_seconds(15);  // MemberRegistered x5 mined
  EXPECT_FALSE(bystander.is_registered());
  EXPECT_EQ(bystander.group().member_count(), 5u);

  WakuRlnRelay& spammer = *tn.nodes[0];
  spammer.publish_unchecked("t", util::to_bytes("a"));
  spammer.publish_unchecked("t", util::to_bytes("b"));
  tn.run_seconds(30);  // MemberSlashed mined
  ASSERT_FALSE(spammer.is_registered());
  EXPECT_FALSE(bystander.is_registered());
  EXPECT_GE(bystander.stats().accepted, 1u);  // still relays as a pure router
  EXPECT_EQ(bystander.publish("t", util::to_bytes("m")),
            WakuRlnRelay::PublishOutcome::kNotRegistered);
  EXPECT_FALSE(tn.contract->is_active(bystander.identity().pk));
}

TEST(WakuRlnRelayTest, StaleEpochRejected) {
  TestNet tn(4);
  tn.subscribe_all("t");
  tn.register_all();
  tn.run_seconds(5);

  // Craft an envelope for an epoch far in the past (a newly registered
  // peer trying to back-fill history, §III).
  WakuRlnRelay& sender = *tn.nodes[0];
  const Bytes payload = util::to_bytes("stale");
  const std::uint64_t stale_epoch = 0;  // long past at t≈20s? current=2; use far future instead
  (void)stale_epoch;
  // Use a far-future epoch which is unambiguously outside Thr.
  const std::uint64_t future_epoch = sender.current_epoch() + 100;
  rln::RlnProver prover(tn.crs.pk, sender.identity());
  // Build the signal directly against the sender's group view.
  auto group_index = sender.group().index_of(sender.identity().pk);
  ASSERT_TRUE(group_index.has_value());
  Rng prng(5);
  const auto signal =
      prover.create_signal(payload, future_epoch, sender.group(), *group_index, prng);
  ASSERT_TRUE(signal.has_value());
  tn.relays[0]->publish("t", WakuRlnRelay::encode_envelope(*signal, payload));
  tn.run_seconds(10);

  std::uint64_t epoch_rejections = 0;
  for (auto& n : tn.nodes) epoch_rejections += n->stats().invalid_epoch;
  EXPECT_GE(epoch_rejections, 1u);
  EXPECT_EQ(tn.total_delivered(), 0u);
}

TEST(WakuRlnRelayTest, GarbageEnvelopeRejected) {
  TestNet tn(4);
  tn.subscribe_all("t");
  tn.register_all();
  tn.relays[0]->publish("t", util::to_bytes("not an rln envelope"));
  tn.run_seconds(10);
  std::uint64_t invalid = 0;
  for (auto& n : tn.nodes) invalid += n->stats().invalid_envelope;
  EXPECT_GE(invalid, 1u);
  EXPECT_EQ(tn.total_delivered(), 0u);
}

TEST(WakuRlnRelayTest, ForgedProofRejected) {
  TestNet tn(4);
  tn.subscribe_all("t");
  tn.register_all();
  tn.run_seconds(5);

  WakuRlnRelay& sender = *tn.nodes[0];
  const Bytes payload = util::to_bytes("forged");
  rln::RlnProver prover(tn.crs.pk, sender.identity());
  const auto index = sender.group().index_of(sender.identity().pk);
  Rng prng(6);
  auto signal = prover.create_signal(payload, sender.current_epoch(), sender.group(),
                                     *index, prng);
  ASSERT_TRUE(signal.has_value());
  signal->proof.bytes[40] ^= 0xff;  // corrupt the proof
  tn.relays[0]->publish("t", WakuRlnRelay::encode_envelope(*signal, payload));
  tn.run_seconds(10);

  std::uint64_t bad_proofs = 0;
  for (auto& n : tn.nodes) bad_proofs += n->stats().invalid_proof;
  EXPECT_GE(bad_proofs, 1u);
  EXPECT_EQ(tn.total_delivered(), 0u);
}

TEST(WakuRlnRelayTest, NonMemberCannotProduceValidSignal) {
  TestNet tn(4);
  tn.subscribe_all("t");
  tn.register_all();
  tn.run_seconds(5);

  // An outsider with a fresh identity but no registration: the prover
  // refuses (no leaf), and hand-rolling a signal against a fake group
  // fails root acceptance.
  Rng orng(7);
  const rln::Identity outsider = rln::Identity::generate(orng);
  rln::RlnGroup fake_group(tn.rln_config().tree_depth);
  fake_group.add_member(outsider.pk);
  rln::RlnProver prover(tn.crs.pk, outsider);
  const Bytes payload = util::to_bytes("outsider");
  const auto signal =
      prover.create_signal(payload, tn.nodes[1]->current_epoch(), fake_group, 0, orng);
  ASSERT_TRUE(signal.has_value());  // proof against the *fake* root
  tn.relays[0]->publish("t", WakuRlnRelay::encode_envelope(*signal, payload));
  tn.run_seconds(10);

  std::uint64_t unknown_roots = 0;
  for (auto& n : tn.nodes) unknown_roots += n->stats().unknown_root;
  EXPECT_GE(unknown_roots, 1u);
  EXPECT_EQ(tn.total_delivered(), 0u);
}

TEST(WakuRlnRelayTest, ReplayWithNewProofIsDuplicateNotSlash) {
  // Re-publishing the same payload in the same epoch with a re-randomised
  // proof yields the same share (x, y): routers must treat it as a
  // duplicate, not slashable evidence.
  TestNet tn(6);
  tn.subscribe_all("t");
  tn.register_all();
  tn.run_seconds(5);

  WakuRlnRelay& sender = *tn.nodes[0];
  const Bytes payload = util::to_bytes("same-message");
  rln::RlnProver prover(tn.crs.pk, sender.identity());
  const auto index = sender.group().index_of(sender.identity().pk);
  Rng prng(8);
  const std::uint64_t epoch = sender.current_epoch();
  const auto s1 = prover.create_signal(payload, epoch, sender.group(), *index, prng);
  const auto s2 = prover.create_signal(payload, epoch, sender.group(), *index, prng);
  ASSERT_TRUE(s1 && s2);
  ASSERT_NE(s1->proof, s2->proof);  // distinct gossip message ids
  tn.relays[0]->publish("t", WakuRlnRelay::encode_envelope(*s1, payload));
  tn.run_seconds(5);
  tn.relays[0]->publish("t", WakuRlnRelay::encode_envelope(*s2, payload));
  tn.run_seconds(15);

  std::uint64_t duplicates = 0, double_signals = 0;
  for (auto& n : tn.nodes) {
    duplicates += n->stats().duplicates;
    double_signals += n->stats().double_signals;
  }
  EXPECT_GE(duplicates, 1u);
  EXPECT_EQ(double_signals, 0u);
  EXPECT_TRUE(tn.contract->is_active(sender.identity().pk));  // not slashed
}

TEST(WakuRlnRelayTest, EnvelopeRoundTrip) {
  Rng rng(9);
  rln::RlnSignal signal;
  signal.epoch = 99;
  signal.y = field::Fr::random(rng);
  signal.nullifier = field::Fr::random(rng);
  signal.root = field::Fr::random(rng);
  rng.fill(signal.proof.bytes);
  const Bytes payload = util::to_bytes("payload");
  const Bytes envelope = WakuRlnRelay::encode_envelope(signal, payload);
  const auto decoded = WakuRlnRelay::decode_envelope(envelope);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->first, signal);
  EXPECT_EQ(decoded->second, payload);
  // Trailing garbage is rejected.
  Bytes extended = envelope;
  extended.push_back(0);
  EXPECT_FALSE(WakuRlnRelay::decode_envelope(extended).has_value());
}

TEST(WakuRlnRelayTest, CrsDepthMismatchThrows) {
  TestNet tn(1);
  WakuRlnConfig bad = TestNet::rln_config();
  bad.tree_depth = 12;  // CRS built for depth 10
  Rng rng(10);
  EXPECT_THROW(WakuRlnRelay(*tn.relays[0], tn.chain, *tn.contract, tn.crs, 1, bad,
                            Rng(1)),
               std::invalid_argument);
}

TEST(WakuRlnRelayTest, ProofCacheSkipsRepeatVerificationOnRedelivery) {
  // Two peers with a fast-expiring gossip seen-cache: re-publishing the
  // exact same envelope re-enters the receiver's validator after seen
  // expiry, and the message-id proof cache answers instead of the
  // zkSNARK verifier. The outcome stays the duplicate-ignore of the
  // nullifier map — only the repeat verification is saved.
  Rng rng(414);
  sim::Scheduler sched;
  sim::Network net{sched, rng, TestNet::link()};
  eth::Chain chain{TestNet::chain_config()};
  eth::MembershipConfig mcfg;
  const WakuRlnConfig cfg = TestNet::rln_config();
  mcfg.tree_depth = cfg.tree_depth;
  eth::RegistryListContract contract(chain, mcfg);
  const zksnark::KeyPair crs = zksnark::MockGroth16::setup(cfg.tree_depth, rng);

  gossipsub::GossipSubParams gossip;
  gossip.seen_ttl = 1 * sim::kUsPerSecond;  // heartbeats expire seen ids fast

  const sim::NodeId ida = net.add_node({});
  const sim::NodeId idb = net.add_node({});
  WakuRelay relay_a(ida, net, gossip);
  WakuRelay relay_b(idb, net, gossip);
  chain.ledger().mint(1, 100'000'000);
  chain.ledger().mint(2, 100'000'000);
  WakuRlnRelay a(relay_a, chain, contract, crs, 1, cfg, Rng(rng.next_u64()));
  WakuRlnRelay b(relay_b, chain, contract, crs, 2, cfg, Rng(rng.next_u64()));
  net.connect(ida, idb);
  relay_a.start();
  relay_b.start();
  a.subscribe("t", [](const gossipsub::TopicId&, const util::SharedBytes&) {});
  b.subscribe("t", [](const gossipsub::TopicId&, const util::SharedBytes&) {});

  a.request_registration();
  sched.run_for(2 * sim::kUsPerSecond);
  chain.mine_block(sched.now() / sim::kUsPerSecond);
  sched.run_for(3 * sim::kUsPerSecond);
  ASSERT_TRUE(a.is_registered());

  // One signal, serialized once, published twice: identical message id.
  rln::RlnProver prover(crs.pk, a.identity(), cfg.messages_per_epoch);
  Rng prng(7);
  const Bytes payload = util::to_bytes("cache me");
  const auto index = a.group().index_of(a.identity().pk);
  ASSERT_TRUE(index.has_value());
  const auto signal =
      prover.create_signal(payload, a.current_epoch(), a.group(), *index, prng);
  ASSERT_TRUE(signal.has_value());
  const Bytes envelope = WakuRlnRelay::encode_envelope(*signal, payload);

  relay_a.publish("t", envelope);
  sched.run_for(3 * sim::kUsPerSecond);  // deliver + expire b's seen entry
  EXPECT_EQ(b.stats().proof_verifications, 1u);
  EXPECT_EQ(b.stats().accepted, 1u);

  // Re-send exactly the same frame, skipping A's own validator (which
  // would classify it as a duplicate and drop the publish locally).
  relay_a.publish("t", envelope, /*apply_validator=*/false);
  sched.run_for(3 * sim::kUsPerSecond);
  EXPECT_EQ(b.stats().proof_verifications, 1u);  // no repeat verify
  EXPECT_EQ(b.stats().proof_cache_hits, 1u);
  EXPECT_EQ(b.stats().duplicates, 1u);  // nullifier map still says duplicate
}

// ---------------------------------------------------------------------------
// Batched crypto hot path: externally identical to the scalar reference.

// Drives two (chain, contract, GroupSync) stacks — one batching
// registrations per block, one applying them per event — through an
// identical transaction schedule and asserts the externally observable
// sync state matches after every block.
TEST(GroupSyncBatchTest, BatchedBlocksMatchScalarEventApplication) {
  eth::MembershipConfig mcfg;
  mcfg.tree_depth = 8;
  eth::Chain chain_b{TestNet::chain_config()}, chain_s{TestNet::chain_config()};
  eth::RegistryListContract contract_b(chain_b, mcfg), contract_s(chain_s, mcfg);
  GroupSync batched(chain_b, mcfg.tree_depth, /*batch_appends=*/true);
  GroupSync scalar(chain_s, mcfg.tree_depth, /*batch_appends=*/false);

  Rng rng(4040);
  std::vector<field::Fr> sks;
  std::uint64_t now = 0;
  const auto submit_register = [&](const field::Fr& pk) {
    const auto call = [pk](auto& contract) {
      return [&contract, pk](eth::TxContext& ctx) {
        contract.register_member(ctx, pk);
      };
    };
    chain_b.submit(1, mcfg.stake_wei, eth::MembershipContract::kRegisterCalldataBytes,
                   call(contract_b), now);
    chain_s.submit(1, mcfg.stake_wei, eth::MembershipContract::kRegisterCalldataBytes,
                   call(contract_s), now);
  };
  const auto submit_slash = [&](const field::Fr& sk) {
    const auto call = [sk](auto& contract) {
      return [&contract, sk](eth::TxContext& ctx) { contract.slash(ctx, sk); };
    };
    chain_b.submit(2, 0, eth::MembershipContract::kSlashCalldataBytes,
                   call(contract_b), now);
    chain_s.submit(2, 0, eth::MembershipContract::kSlashCalldataBytes,
                   call(contract_s), now);
  };
  const auto expect_synced = [&](int block) {
    ASSERT_EQ(batched.group().root(), scalar.group().root()) << "block " << block;
    ASSERT_EQ(batched.group().member_count(), scalar.group().member_count());
    // total_roots equality is the per-registration root-history claim:
    // a block of k registrations must add k distinct roots, not one.
    ASSERT_EQ(batched.total_roots(), scalar.total_roots()) << "block " << block;
    ASSERT_EQ(batched.stats().registrations_applied,
              scalar.stats().registrations_applied);
    ASSERT_EQ(batched.stats().slashes_applied, scalar.stats().slashes_applied);
    ASSERT_EQ(batched.stats().root_updates, scalar.stats().root_updates);
    ASSERT_EQ(batched.stats().sync_bytes, scalar.stats().sync_bytes);
    ASSERT_TRUE(batched.root_in_window(scalar.group().root(),
                                       scalar.current_root_index()));
  };

  // Block shapes: a registration storm (6 joins in one block), a mixed
  // block whose slash lands *after* same-block registrations (the batch
  // must flush before the slash reads membership), an empty block, and a
  // slash-only block.
  for (int block = 0; block < 8; ++block) {
    for (const eth::Address account : {1, 2}) {
      chain_b.ledger().mint(account, 100'000'000);
      chain_s.ledger().mint(account, 100'000'000);
    }
    const int joins = (block % 3 == 0) ? 6 : (block % 3 == 1 ? 3 : 0);
    for (int j = 0; j < joins; ++j) {
      const field::Fr sk = field::Fr::random(rng);
      sks.push_back(sk);
      submit_register(hash::poseidon_hash1(sk));
    }
    if (block >= 2 && block % 2 == 0 && !sks.empty()) {
      submit_slash(sks[static_cast<std::size_t>(block)]);  // post-join slash
    }
    now += chain_b.config().block_time_seconds;
    chain_b.mine_block(now);
    chain_s.mine_block(now);
    expect_synced(block);
  }
}

// Helper: every deterministic relay counter, compared field by field.
void expect_stats_equal(const WakuRlnRelay::Stats& a, const WakuRlnRelay::Stats& b,
                        std::size_t node) {
  EXPECT_EQ(a.published, b.published) << "node " << node;
  EXPECT_EQ(a.accepted, b.accepted) << "node " << node;
  EXPECT_EQ(a.invalid_envelope, b.invalid_envelope) << "node " << node;
  EXPECT_EQ(a.invalid_epoch, b.invalid_epoch) << "node " << node;
  EXPECT_EQ(a.invalid_slot, b.invalid_slot) << "node " << node;
  EXPECT_EQ(a.unknown_root, b.unknown_root) << "node " << node;
  EXPECT_EQ(a.invalid_proof, b.invalid_proof) << "node " << node;
  EXPECT_EQ(a.duplicates, b.duplicates) << "node " << node;
  EXPECT_EQ(a.double_signals, b.double_signals) << "node " << node;
  EXPECT_EQ(a.slashes_submitted, b.slashes_submitted) << "node " << node;
  EXPECT_EQ(a.proof_verifications, b.proof_verifications) << "node " << node;
  EXPECT_EQ(a.proof_cache_hits, b.proof_cache_hits) << "node " << node;
}

TEST(WakuRlnRelayTest, BatchCryptoOffIsObservationallyIdentical) {
  // The same world twice — batched crypto on vs. off — through a
  // workload that exercises every validation path: honest traffic, a
  // double-signal slash, and mid-run registrations that churn the root
  // window while proofs are in flight. Every deterministic counter and
  // the group state must match exactly.
  WakuRlnConfig on = TestNet::rln_config();
  on.batch_crypto = true;
  WakuRlnConfig off = TestNet::rln_config();
  off.batch_crypto = false;

  TestNet a(6, on), b(6, off);
  const auto drive = [](TestNet& tn) {
    tn.subscribe_all("t");
    // Register only the first four; the last two join mid-traffic.
    for (int i = 0; i < 4; ++i) tn.nodes[static_cast<std::size_t>(i)]->request_registration();
    tn.run_seconds(15);
    tn.nodes[0]->publish("t", util::to_bytes("m0"));
    tn.nodes[1]->publish("t", util::to_bytes("m1"));
    tn.run_seconds(5);
    // Mid-traffic joins advance the root sequence under in-flight proofs.
    tn.nodes[4]->request_registration();
    tn.nodes[5]->request_registration();
    tn.run_seconds(15);
    // A rogue client double-signals: detected, slashed.
    tn.nodes[2]->publish_unchecked("t", util::to_bytes("s1"));
    tn.nodes[2]->publish_unchecked("t", util::to_bytes("s2"));
    tn.run_seconds(25);
    tn.nodes[4]->publish("t", util::to_bytes("late join publishes"));
    tn.run_seconds(10);
  };
  drive(a);
  drive(b);

  ASSERT_EQ(a.total_delivered(), b.total_delivered());
  for (std::size_t i = 0; i < a.nodes.size(); ++i) {
    expect_stats_equal(a.nodes[i]->stats(), b.nodes[i]->stats(), i);
    EXPECT_EQ(a.nodes[i]->group().root(), b.nodes[i]->group().root());
    EXPECT_EQ(a.nodes[i]->group().member_count(), b.nodes[i]->group().member_count());
  }
}

TEST(WakuRlnRelayTest, SharedGroupSyncMatchesPrivateViews) {
  // A world where every peer shares one GroupSync must expose the same
  // roots and membership as per-peer private syncs (the views are
  // deterministically identical; sharing only removes redundant hashing).
  TestNet tn(3);  // private syncs
  for (auto& n : tn.nodes) n->request_registration();
  tn.run_seconds(15);
  const field::Fr private_root = tn.nodes[0]->group().root();
  EXPECT_EQ(tn.nodes[1]->group().root(), private_root);
  EXPECT_EQ(tn.nodes[2]->group().root(), private_root);
  EXPECT_EQ(tn.nodes[0]->group().member_count(), 3u);
  // Harness worlds share one sync; same membership state shape.
  HarnessConfig hc = HarnessConfig::defaults();
  hc.node_count = 3;
  hc.seed = tn.rng.next_u64() | 1;
  SimHarness world(hc);
  world.register_all();
  EXPECT_EQ(world.node(0).group().member_count(), 3u);
  EXPECT_EQ(world.node(0).group().root(), world.node(2).group().root());
  EXPECT_EQ(&world.node(0).group(), &world.node(1).group());  // one tree
}

// ---------------------------------------------------------------------------
// World verdict memo: a host cache of the proof verdict and x per message
// id, one slot per scheduler lane, invisible to the model.

TEST(VerdictMemoTest, VerdictMatchesDirectVerifierForValidAndTamperedEnvelopes) {
  TestNet tn(2);
  tn.register_all();
  WakuRlnRelay& sender = *tn.nodes[0];
  const RlnValidatorContext& ctx = *sender.validator_context();
  ASSERT_GE(ctx.memo.lane_count(), 2u);
  const std::uint64_t epoch = sender.current_epoch();
  const Bytes payload = util::to_bytes("memo me");

  rln::RlnProver prover(tn.crs.pk, sender.identity());
  const auto index = sender.group().index_of(sender.identity().pk);
  ASSERT_TRUE(index.has_value());
  Rng prng(21);
  const auto valid = prover.create_signal(payload, epoch, sender.group(), *index, prng);
  ASSERT_TRUE(valid.has_value());
  rln::RlnSignal bad_proof = *valid;
  bad_proof.proof.bytes[40] ^= 0xff;
  rln::RlnSignal rewritten_root = *valid;
  rewritten_root.root = field::Fr::random(prng);
  // Proved against a group no relay has seen: the proof itself verifies
  // (the root is a public input); rejecting the root is each relay's own
  // window check, which runs before the memo is consulted.
  Rng orng(22);
  const rln::Identity outsider = rln::Identity::generate(orng);
  rln::RlnGroup fake_group(TestNet::rln_config().tree_depth);
  fake_group.add_member(outsider.pk);
  const auto foreign_root =
      rln::RlnProver(tn.crs.pk, outsider).create_signal(payload, epoch, fake_group, 0, orng);
  ASSERT_TRUE(foreign_root.has_value());

  struct Case {
    const char* name;
    rln::RlnSignal signal;
    Bytes payload;
    bool expect_ok;
  };
  const std::vector<Case> cases = {
      {"valid", *valid, payload, true},
      {"tampered proof", bad_proof, payload, false},
      {"unknown root (rewritten)", rewritten_root, payload, false},
      {"unknown root (foreign group)", *foreign_root, payload, true},
      {"tampered payload", *valid, util::to_bytes("memo mE"), false},
  };
  const std::uint64_t misses_before = ctx.memo.misses();
  const std::uint64_t hits_before = ctx.memo.hits();
  std::set<gossipsub::MessageId> ids;
  for (const Case& c : cases) {
    const auto msg =
        gossipsub::GsMessage::create("t", WakuRlnRelay::encode_envelope(c.signal, c.payload));
    EXPECT_TRUE(ids.insert(msg.id).second) << c.name << ": id collides";
    const auto decoded = WakuRlnRelay::decode_envelope(msg.data);
    ASSERT_TRUE(decoded.has_value()) << c.name;
    const auto body = decoded->second.span();
    const bool direct = ctx.verifier.verify(body, decoded->first);
    EXPECT_EQ(direct, c.expect_ok) << c.name;
    EXPECT_EQ(ctx.verifier.verify_prepared(body, decoded->first), direct) << c.name;
    const field::Fr x = zksnark::RlnCircuit::message_to_x(body);
    // Lane 0 fills through the prepared path, lane 1 through the scalar
    // reference; the second ask on each lane is a hit.
    for (const std::size_t lane : {std::size_t{0}, std::size_t{1}}) {
      for (int ask = 0; ask < 2; ++ask) {
        const auto v = ctx.verdict(lane, msg.id, body, decoded->first,
                                   /*prepared=*/lane == 0, epoch, /*keep_epochs=*/4);
        EXPECT_EQ(v.proof_ok, direct) << c.name << " lane " << lane;
        EXPECT_EQ(v.x, x) << c.name << " lane " << lane;
      }
    }
  }
  EXPECT_EQ(ctx.memo.misses() - misses_before, 2 * cases.size());
  EXPECT_EQ(ctx.memo.hits() - hits_before, 2 * cases.size());
}

HarnessConfig memo_world(unsigned world_threads) {
  HarnessConfig hc = HarnessConfig::defaults();
  hc.node_count = 24;
  hc.world_threads = world_threads;
  hc.seed = 1313;
  return hc;
}

// Per-node modeled counters of one publish in a memo_world.
std::vector<std::array<std::uint64_t, 4>> publish_once(SimHarness& world) {
  world.subscribe_all("m");
  const std::array<std::size_t, 1> publisher{0};
  world.register_nodes(publisher);
  world.run_seconds(3);
  EXPECT_EQ(world.node(0).publish("m", util::to_bytes("once per lane")),
            WakuRlnRelay::PublishOutcome::kPublished);
  world.run_seconds(5);
  std::vector<std::array<std::uint64_t, 4>> counts;
  for (std::size_t i = 0; i < world.size(); ++i) {
    const auto& s = world.node(i).stats();
    counts.push_back({s.proof_verifications, s.proof_cache_hits, s.accepted, s.duplicates});
  }
  return counts;
}

TEST(VerdictMemoLaneTest, OneWorldVerifiesEachMessageOncePerLane) {
  std::vector<std::array<std::uint64_t, 4>> serial;
  for (const unsigned threads : {1u, 4u}) {
    SimHarness world(memo_world(threads));
    const auto counts = publish_once(world);
    const VerdictMemo& memo = world.validator_context()->memo;
    ASSERT_EQ(memo.lane_count(), world.scheduler().lane_count());
    // Every relay validated (and was charged for) the message itself...
    std::uint64_t lookups = 0;
    for (std::size_t i = 0; i < counts.size(); ++i) {
      EXPECT_EQ(counts[i][0], 1u) << "node " << i << " @" << threads;
      EXPECT_EQ(counts[i][2], 1u) << "node " << i << " @" << threads;
      lookups += counts[i][0] + counts[i][1];
    }
    EXPECT_EQ(world.nodes_delivered(util::to_bytes("once per lane")), world.size());
    // ...but the host verified it at most once per lane.
    EXPECT_GE(memo.misses(), 1u);
    EXPECT_LE(memo.misses(), memo.lane_count()) << "@" << threads;
    EXPECT_EQ(memo.hits() + memo.misses(), lookups) << "@" << threads;
    // The memo is invisible to the model: per-node counts match the
    // serial world's exactly.
    if (threads == 1) {
      serial = counts;
    } else {
      EXPECT_EQ(counts, serial);
    }
  }
}

TEST(VerdictMemoTest, PerNodeCountsUnchangedOnRedelivery) {
  // Re-sending one envelope after seen-cache expiry: each relay's own
  // proof cache answers (verifications_saved), its verification count
  // stays at one, and the host verdicts all come from the memo.
  HarnessConfig hc = memo_world(1);
  hc.gossip.seen_ttl = 1 * sim::kUsPerSecond;
  SimHarness world(hc);
  world.subscribe_all("m");
  const std::array<std::size_t, 1> publisher{0};
  world.register_nodes(publisher);
  world.run_seconds(3);

  WakuRlnRelay& sender = world.node(0);
  rln::RlnProver prover(world.crs().pk, sender.identity());
  const auto index = sender.group().index_of(sender.identity().pk);
  ASSERT_TRUE(index.has_value());
  Rng prng(31);
  const Bytes payload = util::to_bytes("replayed");
  const auto signal =
      prover.create_signal(payload, sender.current_epoch(), sender.group(), *index, prng);
  ASSERT_TRUE(signal.has_value());
  const Bytes envelope = WakuRlnRelay::encode_envelope(*signal, payload);
  world.relay(0).publish("m", envelope);
  world.run_seconds(3);
  const VerdictMemo& memo = world.validator_context()->memo;
  const std::uint64_t misses = memo.misses();
  const std::uint64_t hits = memo.hits();
  const auto saved = [&] {
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < world.size(); ++i) {
      total += world.node(i).stats().proof_cache_hits;
    }
    return total;
  };
  const std::uint64_t saved_before = saved();

  world.relay(0).publish("m", envelope, /*apply_validator=*/false);
  world.run_seconds(3);
  for (std::size_t i = 0; i < world.size(); ++i) {
    EXPECT_EQ(world.node(i).stats().proof_verifications, 1u) << "node " << i;
  }
  EXPECT_GT(saved(), saved_before);
  EXPECT_EQ(memo.misses(), misses);  // no host re-verification
  EXPECT_EQ(memo.hits() - hits, saved() - saved_before);
}

TEST(VerdictMemoTest, IwantReplayCountsMatchAcrossThreadCounts) {
  // Memo occupancy depends on the lane count; the modeled verification
  // counts do not.
  scenario::ScenarioSpec spec = scenario::find_scenario("iwant_replay");
  spec.nodes = 14;
  spec.traffic_epochs = 3;
  const scenario::MetricSet serial = scenario::ScenarioRunner(spec, 6).run();
  EXPECT_GT(serial.at("verifications_saved"), 0);
  spec.world_threads = 4;
  const scenario::MetricSet sharded = scenario::ScenarioRunner(spec, 6).run();
  EXPECT_EQ(sharded.at("verifications_total"), serial.at("verifications_total"));
  EXPECT_EQ(sharded.at("verifications_saved"), serial.at("verifications_saved"));
}

TEST(VerdictMemoTest, SizeStaysBoundedOverManyEpochs) {
  constexpr std::uint64_t kKeep = 3;
  constexpr std::size_t kPerEpoch = 10;
  VerdictMemo memo(2);
  for (std::uint64_t epoch = 0; epoch < 100; ++epoch) {
    for (std::size_t i = 0; i < kPerEpoch; ++i) {
      gossipsub::MessageId id{};
      id[0] = static_cast<std::uint8_t>(i);
      id[1] = static_cast<std::uint8_t>(epoch);
      id[2] = static_cast<std::uint8_t>(epoch >> 8);
      memo.insert(i % 2, id, VerdictMemo::Verdict{true, field::Fr::from_u64(epoch)}, epoch, kKeep);
    }
    EXPECT_LE(memo.size(), (kKeep + 1) * kPerEpoch) << "epoch " << epoch;
  }
  EXPECT_EQ(memo.size(), (kKeep + 1) * kPerEpoch);

  // A world publishing once per epoch keeps at most one retention
  // window of ids per lane.
  HarnessConfig hc = memo_world(1);
  hc.node_count = 8;
  SimHarness world(hc);
  world.subscribe_all("m");
  const std::array<std::size_t, 1> publisher{0};
  world.register_nodes(publisher);
  const std::uint64_t keep = std::max<std::uint64_t>(world.node(0).epoch_scheme().threshold(), 1) *
                             hc.rln.nullifier_retention_factor;
  const VerdictMemo& shared = world.validator_context()->memo;
  for (int e = 0; e < 40; ++e) {
    world.node(0).publish("m", util::to_bytes("tick " + std::to_string(e)));
    world.run_seconds(hc.rln.epoch_period_seconds);
    EXPECT_LE(shared.size(), shared.lane_count() * (keep + 1)) << "epoch " << e;
  }
  EXPECT_GT(shared.size(), 0u);
  EXPECT_LE(shared.misses(), 40 * shared.lane_count());
}

}  // namespace
}  // namespace wakurln::waku
