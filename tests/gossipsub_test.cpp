#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "gossipsub/router.h"
#include "sim/topology.h"

namespace wakurln::gossipsub {
namespace {

using sim::NodeId;
using util::Rng;

// A little harness holding a simulated gossip network.
struct Swarm {
  sim::Scheduler sched;
  Rng rng{12345};
  sim::Network net{sched, rng, make_link()};
  std::vector<std::unique_ptr<GossipSubRouter>> routers;
  std::unordered_map<NodeId, std::vector<GsMessage>> inbox;

  static sim::LinkParams make_link() {
    sim::LinkParams link;
    link.base_latency = 20 * sim::kUsPerMs;
    link.jitter = 10 * sim::kUsPerMs;
    link.loss_rate = 0;
    return link;
  }

  explicit Swarm(std::size_t n, GossipSubParams params = {}) {
    std::vector<NodeId> ids;
    for (std::size_t i = 0; i < n; ++i) {
      const NodeId id = net.add_node({});
      ids.push_back(id);
      routers.push_back(std::make_unique<GossipSubRouter>(id, net, params));
    }
    connect_ring_plus_random(net, ids, 3, rng);
    for (auto& r : routers) {
      r->start();
      r->set_message_handler(
          [this, id = r->id()](const GsMessage& m) { inbox[id].push_back(m); });
    }
  }

  void subscribe_all(const TopicId& topic) {
    for (auto& r : routers) r->subscribe(topic);
  }

  void settle(std::uint64_t seconds = 5) {
    sched.run_for(seconds * sim::kUsPerSecond);
  }

  std::size_t delivered_count(const TopicId& topic) const {
    std::size_t n = 0;
    for (const auto& [id, msgs] : inbox) {
      for (const auto& m : msgs) {
        if (m.topic == topic) ++n;
      }
    }
    return n;
  }
};

TEST(GsMessageTest, ContentAddressedId) {
  const GsMessage a = GsMessage::create("t", util::to_bytes("payload"));
  const GsMessage b = GsMessage::create("t", util::to_bytes("payload"));
  const GsMessage c = GsMessage::create("t", util::to_bytes("other"));
  const GsMessage d = GsMessage::create("u", util::to_bytes("payload"));
  EXPECT_EQ(a.id, b.id);  // no origin, no nonce: anonymity-preserving
  EXPECT_NE(a.id, c.id);
  EXPECT_NE(a.id, d.id);
}

TEST(RpcTest, WireSizeCountsComponents) {
  Rpc rpc;
  EXPECT_TRUE(rpc.empty());
  const std::size_t base = rpc.wire_size();
  rpc.publish.push_back(
      std::make_shared<const GsMessage>(GsMessage::create("topic", util::Bytes(100, 7))));
  EXPECT_GT(rpc.wire_size(), base + 100);
  EXPECT_FALSE(rpc.empty());
}

TEST(MessageCacheTest, ServesAndExpires) {
  MessageCache cache(3, 2);
  const auto msg = std::make_shared<const GsMessage>(
      GsMessage::create("t", util::to_bytes("m")));
  cache.put(msg);
  ASSERT_NE(cache.get(msg->id), nullptr);
  EXPECT_EQ(cache.gossip_ids("t").size(), 1u);
  EXPECT_TRUE(cache.gossip_ids("other").empty());
  cache.shift();
  cache.shift();
  EXPECT_EQ(cache.gossip_ids("t").size(), 0u);  // out of the gossip window
  ASSERT_NE(cache.get(msg->id), nullptr);       // still in history
  cache.shift();
  EXPECT_EQ(cache.get(msg->id), nullptr);  // dropped from history
}

TEST(MessageCacheTest, RejectsBadWindowConfig) {
  EXPECT_THROW(MessageCache(0, 0), std::invalid_argument);
  EXPECT_THROW(MessageCache(2, 3), std::invalid_argument);
}

TEST(ScoreTest, FreshPeerIsNeutral) {
  PeerScoreTracker tracker{PeerScoreParams{}};
  EXPECT_EQ(tracker.score(1, 0), 0.0);
}

TEST(ScoreTest, TimeInMeshAccrues) {
  PeerScoreTracker tracker{PeerScoreParams{}};
  tracker.on_join_mesh(1, "t", 0);
  const double s = tracker.score(1, 10 * sim::kUsPerSecond);
  EXPECT_NEAR(s, 0.01 * 10, 1e-9);
}

TEST(ScoreTest, FirstDeliveriesRewardAndDecay) {
  PeerScoreTracker tracker{PeerScoreParams{}};
  for (int i = 0; i < 5; ++i) tracker.on_first_delivery(1, "t");
  EXPECT_NEAR(tracker.score(1, 0), 5.0, 1e-9);
  tracker.decay();
  EXPECT_NEAR(tracker.score(1, 0), 4.5, 1e-9);
}

TEST(ScoreTest, InvalidMessagesPenaliseQuadratically) {
  PeerScoreTracker tracker{PeerScoreParams{}};
  tracker.on_invalid_message(1, "t");
  EXPECT_NEAR(tracker.score(1, 0), -100.0, 1e-9);
  tracker.on_invalid_message(1, "t");
  EXPECT_NEAR(tracker.score(1, 0), -400.0, 1e-9);
}

TEST(ScoreTest, IpColocationPenalisesSybils) {
  PeerScoreParams params;
  PeerScoreTracker tracker{params};
  // Four peers on one IP: each penalised by (4-1)^2 * -10.
  for (NodeId p = 1; p <= 4; ++p) tracker.set_peer_ip(p, 99);
  EXPECT_NEAR(tracker.score(1, 0), -90.0, 1e-9);
  // A fifth peer on its own IP is unaffected.
  tracker.set_peer_ip(5, 7);
  EXPECT_EQ(tracker.score(5, 0), 0.0);
  // Removing peers lifts the penalty.
  tracker.remove_peer(4);
  tracker.remove_peer(3);
  tracker.remove_peer(2);
  EXPECT_EQ(tracker.score(1, 0), 0.0);
}

TEST(RouterTest, MeshFormsWithinBounds) {
  Swarm swarm(20);
  swarm.subscribe_all("news");
  swarm.settle(10);
  for (const auto& r : swarm.routers) {
    const auto mesh = r->mesh_peers("news");
    EXPECT_GE(mesh.size(), 1u) << "router " << r->id();
    EXPECT_LE(mesh.size(), static_cast<std::size_t>(r->params().d_hi));
  }
}

TEST(RouterTest, PublishReachesAllSubscribers) {
  Swarm swarm(25);
  swarm.subscribe_all("news");
  swarm.settle(5);
  swarm.routers[0]->publish("news", util::to_bytes("breaking"));
  swarm.settle(10);
  // Every node including the publisher delivers exactly once.
  EXPECT_EQ(swarm.delivered_count("news"), swarm.routers.size());
}

TEST(RouterTest, NoDoubleDelivery) {
  Swarm swarm(15);
  swarm.subscribe_all("t");
  swarm.settle(5);
  for (int i = 0; i < 5; ++i) {
    swarm.routers[i]->publish("t", util::to_bytes("msg" + std::to_string(i)));
  }
  swarm.settle(10);
  for (const auto& [id, msgs] : swarm.inbox) {
    std::set<std::string> unique;
    for (const auto& m : msgs) {
      unique.insert(std::string(m.data.begin(), m.data.end()));
    }
    EXPECT_EQ(unique.size(), msgs.size()) << "node " << id << " saw duplicates";
  }
}

TEST(RouterTest, NonSubscriberDoesNotDeliverButRoutes) {
  Swarm swarm(20);
  // The first half subscribes; the rest merely relay if grafted. A
  // contiguous block keeps the subscriber-induced subgraph connected via
  // the ring edges regardless of where the random extra links land —
  // subscription announcements travel one hop (as in libp2p), so coverage
  // through the subscriber set must not depend on random shortcuts.
  const std::size_t subscribers = swarm.routers.size() / 2;
  for (std::size_t i = 0; i < subscribers; ++i) {
    swarm.routers[i]->subscribe("t");
  }
  swarm.settle(5);
  swarm.routers[0]->publish("t", util::to_bytes("m"));
  swarm.settle(10);
  for (std::size_t i = subscribers; i < swarm.routers.size(); ++i) {
    EXPECT_TRUE(swarm.inbox[swarm.routers[i]->id()].empty());
  }
  EXPECT_GE(swarm.delivered_count("t"), subscribers - 1);
  EXPECT_LE(swarm.delivered_count("t"), subscribers);
}

TEST(RouterTest, FanoutPublishFromNonSubscriber) {
  Swarm swarm(20);
  for (std::size_t i = 1; i < swarm.routers.size(); ++i) {
    swarm.routers[i]->subscribe("t");
  }
  swarm.settle(5);
  // Router 0 publishes without subscribing (fanout path).
  swarm.routers[0]->publish("t", util::to_bytes("from-outside"));
  swarm.settle(10);
  EXPECT_EQ(swarm.delivered_count("t"), swarm.routers.size() - 1);
}

TEST(RouterTest, ValidatorRejectStopsPropagationAndPenalises) {
  Swarm swarm(12);
  swarm.subscribe_all("t");
  // Every router rejects payloads starting with 'X'.
  for (auto& r : swarm.routers) {
    r->set_validator("t", [](NodeId, const GsMessage& m) {
      return !m.data.empty() && m.data[0] == 'X' ? Validation::kReject
                                                 : Validation::kAccept;
    });
  }
  swarm.settle(5);
  swarm.routers[0]->publish("t", util::to_bytes("Xspam"));
  swarm.settle(10);
  // The spam dies at the publisher's mesh frontier: no deliveries except
  // the publisher's own local delivery.
  EXPECT_LE(swarm.delivered_count("t"), 1u);
  std::uint64_t rejected = 0;
  for (const auto& r : swarm.routers) rejected += r->stats().rejected;
  EXPECT_GE(rejected, 1u);
}

TEST(RouterTest, ValidatorIgnoreStopsPropagationSilently) {
  Swarm swarm(12);
  swarm.subscribe_all("t");
  for (auto& r : swarm.routers) {
    r->set_validator("t",
                     [](NodeId, const GsMessage&) { return Validation::kIgnore; });
  }
  swarm.settle(5);
  swarm.routers[0]->publish("t", util::to_bytes("m"));
  swarm.settle(10);
  EXPECT_LE(swarm.delivered_count("t"), 1u);
  for (const auto& r : swarm.routers) {
    EXPECT_EQ(r->stats().rejected, 0u);
  }
}

TEST(RouterTest, UnsubscribeLeavesMesh) {
  Swarm swarm(10);
  swarm.subscribe_all("t");
  swarm.settle(5);
  swarm.routers[0]->unsubscribe("t");
  swarm.settle(5);
  EXPECT_FALSE(swarm.routers[0]->subscribed("t"));
  for (std::size_t i = 1; i < swarm.routers.size(); ++i) {
    for (NodeId p : swarm.routers[i]->mesh_peers("t")) {
      EXPECT_NE(p, swarm.routers[0]->id());
    }
  }
}

TEST(RouterTest, GossipRecoversFromLossyLinks) {
  GossipSubParams params;
  Swarm swarm(16, params);
  // Make every link lossy; IHAVE/IWANT must patch the holes.
  for (NodeId a = 0; a < 16; ++a) {
    for (NodeId b : swarm.net.neighbors(a)) {
      if (a < b) {
        sim::LinkParams lossy = Swarm::make_link();
        lossy.loss_rate = 0.15;
        swarm.net.set_link_params(a, b, lossy);
      }
    }
  }
  swarm.subscribe_all("t");
  swarm.settle(5);
  for (int i = 0; i < 10; ++i) {
    swarm.routers[i % 16]->publish("t", util::to_bytes(std::string("m").append(std::to_string(i))));
    swarm.settle(2);
  }
  swarm.settle(30);  // allow several gossip rounds
  // ≥95% of (message, node) pairs delivered despite 15% frame loss.
  const std::size_t total = swarm.delivered_count("t");
  EXPECT_GE(total, static_cast<std::size_t>(0.95 * 10 * 16));
}

TEST(RouterTest, GraylistedPeerIsIgnored) {
  GossipSubParams params;
  params.enable_scoring = true;
  Swarm swarm(8, params);
  swarm.subscribe_all("t");
  // Reject everything from node 7 so its score collapses below graylist.
  for (auto& r : swarm.routers) {
    r->set_validator("t", [](NodeId src, const GsMessage&) {
      return src == 7 ? Validation::kReject : Validation::kAccept;
    });
  }
  swarm.settle(5);
  // The spammer's modified client skips its own validator. The burst is
  // back-to-back so all three land before score-based pruning (with PRUNE
  // backoff) evicts the spammer from its neighbours' meshes.
  for (int i = 0; i < 3; ++i) {
    swarm.routers[7]->publish("t", util::to_bytes("spam" + std::to_string(i)),
                              /*apply_validator=*/false);
  }
  swarm.settle(1);
  // Node 7 crashed through the graylist threshold at its neighbours the
  // moment the first spam validated; the remaining burst frames were then
  // dropped *before* validation (that is the graylist working — and also
  // why the invalid counter does not keep climbing). The score decays
  // afterwards, so assert right after the burst: at minimum it is still
  // below the publish threshold.
  bool someone_penalised = false;
  std::uint64_t graylisted_frames = 0;
  for (const auto& r : swarm.routers) {
    if (r->id() != 7 && r->peer_score(7) <= params.score.publish_threshold) {
      someone_penalised = true;
    }
    graylisted_frames += r->stats().graylisted_frames;
  }
  EXPECT_TRUE(someone_penalised);
  EXPECT_GE(graylisted_frames, 1u);
}

// -- sorted-vector state equivalence ------------------------------------
// The struct-of-arrays refactor replaced the per-topic std::set mesh /
// fanout / backoff containers with sorted vectors. These tests pin the
// behaviour the replacement must preserve: mesh maintenance keeps the
// members sorted, unique and inside [1, d_hi] under graft/prune churn,
// a pruned link respects its backoff, and fanout state expires after
// fanout_ttl without a publish (then rebuilds on the next one).

TEST(RouterTest, MeshStaysSortedUniqueAndBoundedUnderChurn) {
  Swarm swarm(30);
  swarm.subscribe_all("t");
  // Several maintenance rounds with mid-run unsubscribes force both the
  // graft path (under-degree after leavers) and the prune path
  // (over-degree in a dense 30-node swarm).
  swarm.settle(10);
  swarm.routers[3]->unsubscribe("t");
  swarm.routers[17]->unsubscribe("t");
  swarm.settle(10);
  for (const auto& r : swarm.routers) {
    if (!r->subscribed("t")) continue;
    const auto mesh = r->mesh_peers("t");
    EXPECT_TRUE(std::is_sorted(mesh.begin(), mesh.end())) << "router " << r->id();
    EXPECT_EQ(std::adjacent_find(mesh.begin(), mesh.end()), mesh.end())
        << "router " << r->id() << " has duplicate mesh entries";
    EXPECT_GE(mesh.size(), 1u) << "router " << r->id();
    EXPECT_LE(mesh.size(), static_cast<std::size_t>(r->params().d_hi));
    // The leavers must be gone from every mesh.
    EXPECT_FALSE(std::binary_search(mesh.begin(), mesh.end(),
                                    swarm.routers[3]->id()));
    EXPECT_FALSE(std::binary_search(mesh.begin(), mesh.end(),
                                    swarm.routers[17]->id()));
  }
}

TEST(RouterTest, PruneBackoffBlocksImmediateRegraft) {
  GossipSubParams params;
  params.prune_backoff = 3600 * sim::kUsPerSecond;  // effectively forever
  Swarm swarm(20, params);
  swarm.subscribe_all("t");
  swarm.settle(10);
  // Unsubscribe sends PRUNE to the whole mesh; with an unexpiring backoff
  // the re-subscribing router must not re-graft any of those links even
  // across many heartbeats.
  const auto old_mesh = swarm.routers[0]->mesh_peers("t");
  ASSERT_GE(old_mesh.size(), 1u);
  swarm.routers[0]->unsubscribe("t");
  swarm.settle(2);
  swarm.routers[0]->subscribe("t");
  swarm.settle(10);
  const auto regrafted = swarm.routers[0]->mesh_peers("t");
  for (const NodeId peer : old_mesh) {
    EXPECT_FALSE(std::binary_search(regrafted.begin(), regrafted.end(), peer))
        << "re-grafted " << peer << " inside its prune backoff";
  }
}

TEST(RouterTest, FanoutExpiresAfterTtlAndRebuilds) {
  GossipSubParams params;
  params.fanout_ttl = 5 * sim::kUsPerSecond;
  Swarm swarm(15, params);
  for (std::size_t i = 1; i < swarm.routers.size(); ++i) {
    swarm.routers[i]->subscribe("t");
  }
  swarm.settle(5);

  // Non-subscriber publish builds fanout state.
  swarm.routers[0]->publish("t", util::to_bytes("first"));
  swarm.settle(2);
  const std::size_t with_fanout = swarm.routers[0]->memory_bytes();

  // Heartbeats past fanout_ttl with no publish drop the fanout peers; the
  // modeled footprint shrinks back below the loaded reading.
  swarm.settle(20);
  EXPECT_LT(swarm.routers[0]->memory_bytes(), with_fanout);

  // A publish after expiry rebuilds fanout and still reaches everyone.
  swarm.inbox.clear();
  swarm.routers[0]->publish("t", util::to_bytes("second"));
  swarm.settle(10);
  EXPECT_EQ(swarm.delivered_count("t"), swarm.routers.size() - 1);
}

TEST(RouterTest, StatsTrackForwarding) {
  Swarm swarm(10);
  swarm.subscribe_all("t");
  swarm.settle(5);
  swarm.routers[0]->publish("t", util::to_bytes("m"));
  swarm.settle(5);
  std::uint64_t forwarded = 0;
  for (const auto& r : swarm.routers) forwarded += r->stats().forwarded;
  EXPECT_GT(forwarded, 0u);
}

TEST(ZeroCopyTest, FanOutSharesOnePayloadAllocation) {
  // One published message floods a 12-node swarm. Every delivered copy —
  // inboxes, mcaches, frames still in flight — must view the single
  // buffer allocated at publish time.
  Swarm m(12);
  m.subscribe_all("z");
  m.settle();
  const std::uint64_t allocs0 = util::SharedBytes::allocation_count();
  m.routers[0]->publish("z", util::Bytes(4096, 0xAB));
  m.settle(10);
  EXPECT_EQ(util::SharedBytes::allocation_count(), allocs0 + 1);
  EXPECT_EQ(m.delivered_count("z"), m.routers.size());
  // All delivered messages alias the same bytes.
  const std::uint8_t* buffer = nullptr;
  for (const auto& [id, msgs] : m.inbox) {
    for (const GsMessage& msg : msgs) {
      if (buffer == nullptr) buffer = msg.data.data();
      EXPECT_EQ(msg.data.data(), buffer);
      EXPECT_GE(msg.data.use_count(), 1);
    }
  }
}

TEST(ZeroCopyTest, WireSizeModelSplitsPayloadAndControl) {
  Rpc rpc;
  const auto empty = rpc.wire_breakdown();
  EXPECT_EQ(empty.payload, 0u);
  EXPECT_EQ(empty.control, kRpcHeaderBytes);
  rpc.publish.push_back(std::make_shared<const GsMessage>(
      GsMessage::create("topic", util::Bytes(100, 7))));
  rpc.ihave.push_back({"topic", std::vector<MessageId>(3)});
  rpc.subscriptions.push_back({"topic", true});
  const auto b = rpc.wire_breakdown();
  EXPECT_EQ(b.payload, 100 + 5 + kMessageFramingBytes);
  EXPECT_EQ(b.control, kRpcHeaderBytes + (5 + kControlEntryBytes + kIdListCountBytes +
                                          3 * kMessageIdBytes) +
                           (5 + kControlEntryBytes));
  EXPECT_EQ(rpc.wire_size(), b.payload + b.control);
}

TEST(ZeroCopyTest, RouterAccountsBytesByClass) {
  Swarm m(8);
  m.subscribe_all("z");
  m.settle();
  std::uint64_t payload0 = 0;
  for (auto& r : m.routers) payload0 += r->stats().payload_bytes_sent;
  EXPECT_EQ(payload0, 0u);  // only control traffic so far
  m.routers[0]->publish("z", util::Bytes(512, 1));
  m.settle(10);
  std::uint64_t payload_bytes = 0;
  std::uint64_t control_bytes = 0;
  for (auto& r : m.routers) {
    payload_bytes += r->stats().payload_bytes_sent;
    control_bytes += r->stats().control_bytes_sent;
  }
  EXPECT_GT(payload_bytes, 0u);
  EXPECT_GT(control_bytes, 0u);
  // Byte classes reconcile exactly with the network's total accounting.
  EXPECT_EQ(payload_bytes + control_bytes, m.net.stats().bytes_sent);
}

}  // namespace
}  // namespace wakurln::gossipsub
