// Focused control-plane tests for the GossipSub router: GRAFT/PRUNE
// handshakes, IHAVE/IWANT recovery, fanout lifecycle and seen-cache TTL —
// each on a minimal hand-wired topology where every frame is accountable.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "gossipsub/router.h"
#include "gossipsub/seen_cache.h"

namespace wakurln::gossipsub {
namespace {

using sim::NodeId;
using util::Rng;

struct MiniNet {
  sim::Scheduler sched;
  Rng rng{99};
  sim::Network net;
  std::vector<std::unique_ptr<GossipSubRouter>> routers;

  explicit MiniNet(std::size_t n, GossipSubParams params = {},
                   sim::LinkParams link = fast_link())
      : net(sched, rng, link) {
    for (std::size_t i = 0; i < n; ++i) {
      const NodeId id = net.add_node({});
      routers.push_back(std::make_unique<GossipSubRouter>(id, net, params));
    }
  }

  static sim::LinkParams fast_link() {
    sim::LinkParams l;
    l.base_latency = 5 * sim::kUsPerMs;
    l.jitter = 0;
    l.bandwidth_bytes_per_sec = 0;
    return l;
  }

  void start_all() {
    for (auto& r : routers) r->start();
  }
  void run_s(std::uint64_t s) { sched.run_for(s * sim::kUsPerSecond); }
};

TEST(GossipControlTest, GraftHandshakeFormsSymmetricMesh) {
  MiniNet m(2);
  m.net.connect(0, 1);
  m.start_all();
  m.routers[0]->subscribe("t");
  m.routers[1]->subscribe("t");
  m.run_s(3);
  EXPECT_EQ(m.routers[0]->mesh_peers("t"), std::vector<NodeId>{1});
  EXPECT_EQ(m.routers[1]->mesh_peers("t"), std::vector<NodeId>{0});
}

TEST(GossipControlTest, GraftToNonSubscriberIsPrunedBack) {
  MiniNet m(2);
  m.net.connect(0, 1);
  m.start_all();
  m.routers[0]->subscribe("t");  // 1 never subscribes
  m.run_s(5);
  EXPECT_TRUE(m.routers[0]->mesh_peers("t").empty());
}

TEST(GossipControlTest, UnsubscribeSendsPruneAndSubscriptionUpdate) {
  MiniNet m(2);
  m.net.connect(0, 1);
  m.start_all();
  m.routers[0]->subscribe("t");
  m.routers[1]->subscribe("t");
  m.run_s(3);
  m.routers[1]->unsubscribe("t");
  m.run_s(3);
  EXPECT_TRUE(m.routers[0]->mesh_peers("t").empty());
  // Router 0 no longer counts 1 as a topic peer, so the mesh stays empty
  // across further heartbeats.
  m.run_s(3);
  EXPECT_TRUE(m.routers[0]->mesh_peers("t").empty());
}

TEST(GossipControlTest, IHaveIWantDeliversWithoutAnyMesh) {
  // With D = 0 no mesh ever forms, so eager push is impossible: the ONLY
  // way a message can travel is IHAVE advertisement -> IWANT fetch. This
  // isolates the lazy-gossip path end to end.
  GossipSubParams params;
  params.d = 0;
  params.d_lo = 0;
  params.d_hi = 0;
  MiniNet m(2, params);
  m.net.connect(0, 1);
  m.start_all();
  m.routers[0]->subscribe("t");
  m.routers[1]->subscribe("t");
  m.run_s(2);

  int delivered_at_1 = 0;
  m.routers[1]->set_message_handler([&](const GsMessage&) { ++delivered_at_1; });

  m.routers[0]->publish("t", util::to_bytes("lazy only"));
  EXPECT_TRUE(m.routers[0]->mesh_peers("t").empty());
  m.run_s(4);  // a few heartbeats for IHAVE -> IWANT -> message
  EXPECT_EQ(delivered_at_1, 1);
  EXPECT_GE(m.routers[1]->stats().delivered, 1u);
}

TEST(GossipControlTest, PruneBackoffPreventsImmediateRegraft) {
  GossipSubParams params;
  params.prune_backoff = 30 * sim::kUsPerSecond;
  MiniNet m(2, params);
  m.net.connect(0, 1);
  m.start_all();
  m.routers[0]->subscribe("t");
  m.routers[1]->subscribe("t");
  m.run_s(3);
  ASSERT_EQ(m.routers[0]->mesh_peers("t").size(), 1u);

  // Force a prune by unsubscribing and re-subscribing on node 1: node 0
  // received PRUNE and must not re-graft node 1 during the backoff.
  m.routers[1]->unsubscribe("t");
  m.run_s(2);
  EXPECT_TRUE(m.routers[0]->mesh_peers("t").empty());
  m.routers[1]->subscribe("t");
  m.run_s(5);
  // Both sides honour the backoff: no mesh reforms yet...
  EXPECT_TRUE(m.routers[0]->mesh_peers("t").empty());
  // ...but after the backoff expires the mesh heals.
  m.run_s(30);
  EXPECT_EQ(m.routers[0]->mesh_peers("t").size(), 1u);
}

TEST(GossipControlTest, IWantServedFromMessageCacheOnly) {
  MiniNet m(2);
  m.net.connect(0, 1);
  m.start_all();
  m.routers[0]->subscribe("t");
  m.routers[1]->subscribe("t");
  m.run_s(2);
  m.routers[0]->publish("t", util::to_bytes("cached"));
  m.run_s(1);
  // After mcache_len heartbeats the message leaves the cache; a late IWANT
  // (simulated by a fresh peer asking via IHAVE path) cannot be served.
  m.run_s(m.routers[0]->params().mcache_len + 1);
  EXPECT_TRUE(m.routers[0]->has_seen(
      GsMessage::create("t", util::to_bytes("cached")).id));
}

TEST(GossipControlTest, SeenCacheExpiresAfterTtl) {
  GossipSubParams params;
  params.seen_ttl = 3 * sim::kUsPerSecond;
  MiniNet m(2, params);
  m.net.connect(0, 1);
  m.start_all();
  m.routers[0]->subscribe("t");
  m.routers[1]->subscribe("t");
  m.run_s(2);
  const MessageId id = m.routers[0]->publish("t", util::to_bytes("ttl probe"));
  m.run_s(1);
  EXPECT_TRUE(m.routers[0]->has_seen(id));
  m.run_s(6);  // beyond seen_ttl + heartbeat GC
  EXPECT_FALSE(m.routers[0]->has_seen(id));
}

TEST(GossipControlTest, SeenCacheSweepThatExpiresNothingChangesNothing) {
  SeenCache cache;
  std::vector<MessageId> ids;
  for (int i = 0; i < 40; ++i) {
    const std::string data = std::string("seen ").append(std::to_string(i));
    ids.push_back(GsMessage::create("t", util::to_bytes(data)).id);
    cache.insert(ids.back(), 100 + i);
  }
  // Settle the table at its fitting capacity first.
  cache.expire_older_than(200, 1000);
  const std::size_t size = cache.size();
  const std::size_t capacity = cache.capacity();
  const std::size_t bytes = cache.memory_bytes();
  ASSERT_EQ(size, ids.size());

  cache.expire_older_than(300, 1000);  // every entry is younger than the ttl
  EXPECT_EQ(cache.size(), size);
  EXPECT_EQ(cache.capacity(), capacity);
  EXPECT_EQ(cache.memory_bytes(), bytes);
  for (const MessageId& id : ids) EXPECT_TRUE(cache.contains(id));
  EXPECT_FALSE(cache.contains(GsMessage::create("t", util::to_bytes("absent")).id));

  // A later sweep that does expire entries still drops exactly those.
  cache.expire_older_than(100 + 20 + 1000, 1000);
  EXPECT_EQ(cache.size(), 20u);
  for (int i = 0; i < 40; ++i) EXPECT_EQ(cache.contains(ids[i]), i >= 20) << i;
}

TEST(GossipControlTest, FanoutExpiresAfterTtl) {
  GossipSubParams params;
  params.fanout_ttl = 2 * sim::kUsPerSecond;
  MiniNet m(3, params);
  m.net.connect(0, 1);
  m.net.connect(0, 2);
  m.start_all();
  m.routers[1]->subscribe("t");
  m.routers[2]->subscribe("t");
  m.run_s(2);

  int received = 0;
  m.routers[1]->set_message_handler([&](const GsMessage&) { ++received; });
  m.routers[2]->set_message_handler([&](const GsMessage&) { ++received; });

  // Node 0 publishes without subscribing: fanout path.
  m.routers[0]->publish("t", util::to_bytes("f1"));
  m.run_s(1);
  EXPECT_EQ(received, 2);
  // After the fanout TTL the state is dropped; a later publish rebuilds it
  // and still delivers.
  m.run_s(5);
  m.routers[0]->publish("t", util::to_bytes("f2"));
  m.run_s(1);
  EXPECT_EQ(received, 4);
}

TEST(GossipControlTest, MeshRespectsUpperBoundUnderManyPeers) {
  GossipSubParams params;
  params.d = 4;
  params.d_lo = 3;
  params.d_hi = 6;
  MiniNet m(15, params);
  // Star-plus-clique: node 0 connected to everyone.
  for (NodeId i = 1; i < 15; ++i) m.net.connect(0, i);
  m.start_all();
  for (auto& r : m.routers) r->subscribe("t");
  m.run_s(10);
  const auto mesh = m.routers[0]->mesh_peers("t");
  EXPECT_LE(mesh.size(), 6u);
  EXPECT_GE(mesh.size(), 3u);
}

TEST(GossipControlTest, PeerExchangeOnPruneDiscoversNewPeers) {
  // Star: spokes only know the hub. When the hub prunes its oversubscribed
  // mesh, the PRUNE carries PX referrals, and pruned spokes connect to
  // each other — mesh capacity stops depending on one super-node.
  GossipSubParams params;
  params.d = 2;
  params.d_lo = 2;
  params.d_hi = 3;
  MiniNet m(10, params);
  for (NodeId i = 1; i < 10; ++i) m.net.connect(0, i);
  m.start_all();
  for (auto& r : m.routers) r->subscribe("t");
  m.run_s(15);

  // At least some spokes now have spoke-to-spoke links learned via PX.
  std::size_t spoke_to_spoke = 0;
  for (NodeId i = 1; i < 10; ++i) {
    for (NodeId n : m.net.neighbors(i)) {
      if (n != 0) ++spoke_to_spoke;
    }
  }
  EXPECT_GT(spoke_to_spoke, 0u);
  // And the hub's mesh respects its bounds despite 9 candidates.
  EXPECT_LE(m.routers[0]->mesh_peers("t").size(), 3u);
}

TEST(GossipControlTest, PxDisabledKeepsTopologyStatic) {
  GossipSubParams params;
  params.d = 2;
  params.d_lo = 2;
  params.d_hi = 3;
  params.px_peers = 0;  // no referrals attached
  MiniNet m(8, params);
  for (NodeId i = 1; i < 8; ++i) m.net.connect(0, i);
  m.start_all();
  for (auto& r : m.routers) r->subscribe("t");
  m.run_s(15);
  for (NodeId i = 1; i < 8; ++i) {
    EXPECT_EQ(m.net.neighbors(i), std::vector<NodeId>{0}) << "spoke " << i;
  }
}

TEST(GossipControlTest, DisconnectedPeerLeavesAllState) {
  MiniNet m(3);
  m.net.connect(0, 1);
  m.net.connect(0, 2);
  m.start_all();
  for (auto& r : m.routers) r->subscribe("t");
  m.run_s(3);
  ASSERT_FALSE(m.routers[0]->mesh_peers("t").empty());
  m.net.disconnect(0, 1);
  m.run_s(1);
  for (NodeId p : m.routers[0]->mesh_peers("t")) EXPECT_NE(p, 1u);
  const auto known = m.routers[0]->known_peers();
  EXPECT_EQ(std::count(known.begin(), known.end(), 1u), 0);
}

}  // namespace
}  // namespace wakurln::gossipsub
