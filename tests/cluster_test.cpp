// Tests for the consistent-hash ring and the ZooKeeper-lite coordinator.
#include <map>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "cluster/coordinator.hpp"
#include "cluster/ring.hpp"
#include "common/hash.hpp"
#include "common/keygen.hpp"
#include "common/rng.hpp"

namespace hydra::cluster {
namespace {

// ---------------------------------------------------------------- ring

TEST(Ring, EmptyRingOwnsNothing) {
  ConsistentHashRing ring;
  EXPECT_EQ(ring.owner(123), kInvalidShard);
  EXPECT_EQ(ring.shard_count(), 0u);
}

TEST(Ring, SingleShardOwnsEverything) {
  ConsistentHashRing ring;
  ring.add_shard(5);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(ring.owner(hash_key(format_key(static_cast<std::uint64_t>(i)))), 5u);
  }
}

TEST(Ring, OwnershipIsDeterministic) {
  ConsistentHashRing a, b;
  for (ShardId s = 0; s < 8; ++s) {
    a.add_shard(s);
    b.add_shard(s);
  }
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t h = hash_key(format_key(static_cast<std::uint64_t>(i)));
    EXPECT_EQ(a.owner(h), b.owner(h));
  }
}

TEST(Ring, LoadSpreadsAcrossShards) {
  ConsistentHashRing ring(/*vnodes=*/64);
  constexpr int kShards = 8;
  for (ShardId s = 0; s < kShards; ++s) ring.add_shard(s);
  std::map<ShardId, int> counts;
  constexpr int kKeys = 40000;
  for (int i = 0; i < kKeys; ++i) {
    ++counts[ring.owner(hash_key(format_key(static_cast<std::uint64_t>(i))))];
  }
  EXPECT_EQ(counts.size(), static_cast<std::size_t>(kShards));
  for (const auto& [shard, n] : counts) {
    EXPECT_GT(n, kKeys / kShards / 3) << "shard " << shard << " starved";
    EXPECT_LT(n, kKeys / kShards * 3) << "shard " << shard << " overloaded";
  }
}

TEST(Ring, RemovalOnlyMovesTheRemovedShardsKeys) {
  ConsistentHashRing ring;
  for (ShardId s = 0; s < 8; ++s) ring.add_shard(s);
  std::map<int, ShardId> before;
  for (int i = 0; i < 5000; ++i) {
    before[i] = ring.owner(hash_key(format_key(static_cast<std::uint64_t>(i))));
  }
  ring.remove_shard(3);
  for (const auto& [i, owner] : before) {
    const ShardId now = ring.owner(hash_key(format_key(static_cast<std::uint64_t>(i))));
    if (owner == 3) {
      EXPECT_NE(now, 3u);
    } else {
      EXPECT_EQ(now, owner) << "key " << i << " moved although its shard survived";
    }
  }
}

// Adversarial vnode collisions via an injectable point function: every
// shard's replica r lands on the same point, so ownership of each point is
// pure tie-break. The lowest ShardId must win regardless of insertion
// order, and the runner-up must inherit when the winner is removed.
TEST(Ring, VnodeCollisionTieBreakIsLowestShardId) {
  // All shards collide on every point: point depends only on the replica.
  const auto collide = [](ShardId, int replica) {
    return static_cast<std::uint64_t>(replica) * 0x0101010101010101ULL;
  };
  ConsistentHashRing ascending(4, collide);
  ConsistentHashRing descending(4, collide);
  for (ShardId s = 0; s < 4; ++s) ascending.add_shard(s);
  for (ShardId s = 4; s-- > 0;) descending.add_shard(s);

  for (std::uint64_t h = 0; h < 4096; h += 7) {
    EXPECT_EQ(ascending.owner(h), 0u) << "lowest id must serve a contested point";
    EXPECT_EQ(descending.owner(h), ascending.owner(h))
        << "insertion order changed ownership of a contested point";
  }

  // Remove the winner: the runner-up (next-lowest id) inherits every point.
  ascending.remove_shard(0);
  for (std::uint64_t h = 0; h < 4096; h += 7) {
    EXPECT_EQ(ascending.owner(h), 1u);
  }
  // Partial collisions: shards {2, 5} contest, 7 stands alone elsewhere.
  const auto partial = [](ShardId shard, int replica) {
    if (shard == 2 || shard == 5) return 1000ULL + static_cast<std::uint64_t>(replica);
    return 500'000ULL + static_cast<std::uint64_t>(replica);
  };
  ConsistentHashRing mixed(2, partial);
  mixed.add_shard(5);
  mixed.add_shard(7);
  mixed.add_shard(2);
  EXPECT_EQ(mixed.owner(900), 2u);  // contested points: lowest of {2, 5}
  mixed.remove_shard(2);
  EXPECT_EQ(mixed.owner(900), 5u);  // runner-up inherits
  mixed.remove_shard(5);
  EXPECT_EQ(mixed.owner(900), 7u);  // wrap to the sole survivor
}

// The flat sorted vnode vector answers exactly as the structure it replaced:
// a map from ring point to the shards hashing there, lowest ShardId serving.
// Random add/remove sequences over random hashes, with points drawn from a
// small range so collisions are frequent.
TEST(Ring, OwnerMatchesAReferenceMapUnderCollisions) {
  constexpr int kVnodes = 8;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    // Odd seeds spread points over 64 bits; even seeds squeeze them into 64
    // values, so most points are contested.
    const std::uint64_t range = seed % 2 == 0 ? 64 : 0;
    const ConsistentHashRing::PointFn point = [range](ShardId shard, int replica) {
      const std::uint64_t p =
          mix64((static_cast<std::uint64_t>(shard) << 8) ^ static_cast<std::uint64_t>(replica));
      return range == 0 ? p : p % range;
    };
    Xoshiro256 rng(seed);
    ConsistentHashRing ring(kVnodes, point);
    std::map<std::uint64_t, std::set<ShardId>> reference;
    std::set<ShardId> members;
    for (int step = 0; step < 60; ++step) {
      const auto shard = static_cast<ShardId>(rng.below(12));
      if (members.contains(shard)) {
        ring.remove_shard(shard);
        members.erase(shard);
        for (int r = 0; r < kVnodes; ++r) {
          auto it = reference.find(point(shard, r));
          if (it == reference.end()) continue;
          it->second.erase(shard);
          if (it->second.empty()) reference.erase(it);
        }
      } else {
        ring.add_shard(shard);
        members.insert(shard);
        for (int r = 0; r < kVnodes; ++r) reference[point(shard, r)].insert(shard);
      }
      for (int probe = 0; probe < 50; ++probe) {
        // Every point and its neighbours first, then random hashes.
        std::uint64_t h = range == 0 ? rng() : rng.below(range + 8);
        if (probe < static_cast<int>(reference.size())) {
          h = std::next(reference.begin(), probe)->first + static_cast<std::uint64_t>(probe % 3) - 1;
        }
        ShardId want = kInvalidShard;
        if (!reference.empty()) {
          auto it = reference.lower_bound(h);
          if (it == reference.end()) it = reference.begin();
          want = *it->second.begin();
        }
        ASSERT_EQ(ring.owner(h), want) << "seed " << seed << " step " << step << " hash " << h;
      }
    }
  }
}

// The consistent-hashing contract the migration plan relies on: growing
// N -> N+1 shards remaps ~1/(N+1) of the keyspace (all of it onto the new
// shard), shrinking remaps exactly the victim's ~1/N share. 64k-key sample,
// 50% relative tolerance (64 vnodes is a coarse smoother).
TEST(Ring, RebalancingMovesAboutOneNth) {
  constexpr int kShards = 8;
  constexpr std::uint64_t kKeys = 64 * 1024;
  ConsistentHashRing ring;
  for (ShardId s = 0; s < kShards; ++s) ring.add_shard(s);

  std::vector<ShardId> before(kKeys);
  for (std::uint64_t i = 0; i < kKeys; ++i) before[i] = ring.owner(mix64(i));

  // --- grow: 8 -> 9 ---------------------------------------------------------
  ring.add_shard(kShards);
  std::uint64_t moved = 0;
  for (std::uint64_t i = 0; i < kKeys; ++i) {
    const ShardId now = ring.owner(mix64(i));
    if (now != before[i]) {
      ++moved;
      EXPECT_EQ(now, static_cast<ShardId>(kShards))
          << "key " << i << " moved between two surviving shards";
    }
  }
  const double expect_grow = static_cast<double>(kKeys) / (kShards + 1);
  EXPECT_GT(moved, static_cast<std::uint64_t>(expect_grow * 0.5)) << "moved " << moved;
  EXPECT_LT(moved, static_cast<std::uint64_t>(expect_grow * 1.5)) << "moved " << moved;

  // --- shrink back: 9 -> 8 --------------------------------------------------
  ring.remove_shard(kShards);
  for (std::uint64_t i = 0; i < kKeys; ++i) {
    EXPECT_EQ(ring.owner(mix64(i)), before[i]) << "shrink did not restore key " << i;
  }

  // --- drain a founding member: 8 -> 7 --------------------------------------
  ring.remove_shard(3);
  std::uint64_t drained = 0;
  for (std::uint64_t i = 0; i < kKeys; ++i) {
    const ShardId now = ring.owner(mix64(i));
    if (before[i] == 3) {
      ++drained;
      EXPECT_NE(now, 3u);
    } else {
      EXPECT_EQ(now, before[i]) << "key " << i << " moved although its shard survived";
    }
  }
  const double expect_drain = static_cast<double>(kKeys) / kShards;
  EXPECT_GT(drained, static_cast<std::uint64_t>(expect_drain * 0.5));
  EXPECT_LT(drained, static_cast<std::uint64_t>(expect_drain * 1.5));
}

TEST(Ring, VersionBumpsOnMembershipChange) {
  ConsistentHashRing ring;
  const std::uint64_t v0 = ring.version();
  ring.add_shard(1);
  EXPECT_GT(ring.version(), v0);
  const std::uint64_t v1 = ring.version();
  ring.add_shard(1);  // duplicate: no change
  EXPECT_EQ(ring.version(), v1);
  ring.remove_shard(1);
  EXPECT_GT(ring.version(), v1);
  ring.remove_shard(1);  // already gone: no change
}

TEST(Ring, ShardsListsMembers) {
  ConsistentHashRing ring;
  ring.add_shard(2);
  ring.add_shard(0);
  EXPECT_TRUE(ring.contains(0));
  EXPECT_TRUE(ring.contains(2));
  EXPECT_FALSE(ring.contains(1));
  EXPECT_EQ(ring.shards(), (std::vector<ShardId>{0, 2}));
}

// ---------------------------------------------------------------- coordinator

class CoordinatorTest : public ::testing::Test {
 protected:
  sim::Scheduler sched;
  Coordinator coord{sched};
};

TEST_F(CoordinatorTest, CreateGetSetRemove) {
  bool created = false;
  coord.create("/a", "v1", 0, [&](bool ok) { created = ok; });
  sched.run_for(kSecond);
  EXPECT_TRUE(created);
  EXPECT_TRUE(coord.exists("/a"));
  EXPECT_EQ(coord.data("/a"), "v1");

  bool duplicate_ok = true;
  coord.create("/a", "v2", 0, [&](bool ok) { duplicate_ok = ok; });
  sched.run_for(kSecond);
  EXPECT_FALSE(duplicate_ok) << "duplicate create must fail";

  coord.set_data("/a", "v3");
  sched.run_for(kSecond);
  EXPECT_EQ(coord.data("/a"), "v3");

  bool got = false;
  std::string data;
  coord.get_data("/a", [&](bool ok, std::string d) {
    got = ok;
    data = std::move(d);
  });
  sched.run_for(kSecond);
  EXPECT_TRUE(got);
  EXPECT_EQ(data, "v3");

  coord.remove("/a");
  sched.run_for(kSecond);
  EXPECT_FALSE(coord.exists("/a"));
}

TEST_F(CoordinatorTest, SetOnMissingNodeFails) {
  bool ok = true;
  coord.set_data("/ghost", "x", [&](bool r) { ok = r; });
  sched.run_for(kSecond);
  EXPECT_FALSE(ok);
}

TEST_F(CoordinatorTest, ChildrenListsByPrefix) {
  coord.create("/shards/0/primary", "n0");
  coord.create("/shards/1/primary", "n1");
  coord.create("/swat/0", "m");
  sched.run_for(kSecond);
  EXPECT_EQ(coord.children("/shards/").size(), 2u);
  EXPECT_EQ(coord.children("/swat/").size(), 1u);
  EXPECT_TRUE(coord.children("/none/").empty());
}

TEST_F(CoordinatorTest, WatchesFireOnEachEventType) {
  std::vector<std::pair<std::string, WatchEvent>> events;
  coord.watch("/w", [&](const std::string& p, WatchEvent e) { events.emplace_back(p, e); });
  coord.create("/w", "1");
  sched.run_for(kSecond);
  coord.set_data("/w", "2");
  sched.run_for(kSecond);
  coord.remove("/w");
  sched.run_for(kSecond);
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].second, WatchEvent::kCreated);
  EXPECT_EQ(events[1].second, WatchEvent::kChanged);
  EXPECT_EQ(events[2].second, WatchEvent::kDeleted);
}

TEST_F(CoordinatorTest, PrefixWatchSeesAllChildren) {
  int fired = 0;
  coord.watch_prefix("/shards/", [&](const std::string&, WatchEvent) { ++fired; });
  coord.create("/shards/3/primary", "x");
  coord.create("/other", "y");
  sched.run_for(kSecond);
  EXPECT_EQ(fired, 1);
}

TEST_F(CoordinatorTest, EphemeralNodesDieWithExpiredSession) {
  const SessionId s = coord.open_session("proc");
  coord.create("/eph", "x", s);
  sched.run_for(kSecond);
  ASSERT_TRUE(coord.exists("/eph"));
  ASSERT_TRUE(coord.session_alive(s));

  bool deleted = false;
  coord.watch("/eph", [&](const std::string&, WatchEvent e) {
    if (e == WatchEvent::kDeleted) deleted = true;
  });
  // No heartbeats: the sweep expires the session and reaps the znode.
  sched.run_for(5 * kSecond);
  EXPECT_FALSE(coord.session_alive(s));
  EXPECT_FALSE(coord.exists("/eph"));
  EXPECT_TRUE(deleted);
}

TEST_F(CoordinatorTest, HeartbeatsKeepSessionAlive) {
  const SessionId s = coord.open_session("proc");
  coord.create("/eph", "x", s);
  // Heartbeat every 500ms against a 2s timeout.
  for (int i = 1; i <= 20; ++i) {
    sched.at(static_cast<Time>(i) * 500 * kMillisecond, [&] { coord.heartbeat(s); });
  }
  sched.run_for(10 * kSecond);
  EXPECT_TRUE(coord.session_alive(s));
  EXPECT_TRUE(coord.exists("/eph"));
  // Stop heartbeating: it must now expire.
  sched.run_for(5 * kSecond);
  EXPECT_FALSE(coord.exists("/eph"));
}

TEST_F(CoordinatorTest, CloseSessionReapsImmediately) {
  const SessionId s = coord.open_session("proc");
  coord.create("/eph", "x", s);
  sched.run_for(kSecond);
  coord.close_session(s);
  EXPECT_FALSE(coord.exists("/eph"));
  EXPECT_FALSE(coord.session_alive(s));
}

TEST_F(CoordinatorTest, PersistentNodesSurviveSessionDeath) {
  const SessionId s = coord.open_session("proc");
  coord.create("/persistent", "x", 0);
  coord.create("/eph", "y", s);
  sched.run_for(5 * kSecond);
  EXPECT_TRUE(coord.exists("/persistent"));
  EXPECT_FALSE(coord.exists("/eph"));
}

TEST_F(CoordinatorTest, CreateWithDeadSessionFails) {
  const SessionId s = coord.open_session("proc");
  coord.close_session(s);
  bool ok = true;
  coord.create("/eph", "x", s, [&](bool r) { ok = r; });
  sched.run_for(kSecond);
  EXPECT_FALSE(ok);
}

}  // namespace
}  // namespace hydra::cluster
