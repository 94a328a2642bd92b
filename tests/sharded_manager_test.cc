// ShardedSessionManager: routing stability, per-shard WAL layout,
// recovery across shard-count changes, and aggregate metrics.

#include <gtest/gtest.h>
#include <sys/stat.h>

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "service/session_manager.h"
#include "service/sharded_manager.h"
#include "util/json.h"
#include "util/rng.h"
#include "service_test_util.h"

namespace kbrepair {
namespace {

// ------------------------------------------------------------------
// Routing.

TEST(ShardRoutingTest, MatchesReferenceFnv1a64) {
  // An independent spelling of FNV-1a 64: shard ownership is a durable
  // on-disk contract (WAL placement), so the hash must never drift.
  const auto reference = [](const std::string& id, size_t shards) {
    uint64_t h = 14695981039346656037ull;
    for (char c : id) {
      h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ull;
    }
    return static_cast<size_t>(h % shards);
  };
  for (uint64_t n = 1; n <= 2000; ++n) {
    const std::string id = "s-" + std::to_string(n);
    for (size_t shards : {2u, 3u, 4u, 8u}) {
      EXPECT_EQ(ShardedSessionManager::ShardForSession(id, shards),
                reference(id, shards))
          << id << " over " << shards << " shards";
    }
  }
}

TEST(ShardRoutingTest, SingleShardAlwaysRoutesToZero) {
  EXPECT_EQ(ShardedSessionManager::ShardForSession("s-1", 1), 0u);
  EXPECT_EQ(ShardedSessionManager::ShardForSession("anything", 0), 0u);
}

TEST(ShardRoutingTest, SpreadsSessionsAcrossAllShards) {
  // Not a statistical claim, just an anti-degeneracy check: 1000
  // consecutive ids must not starve any of 4 shards.
  std::vector<size_t> counts(4, 0);
  for (uint64_t n = 1; n <= 1000; ++n) {
    ++counts[ShardedSessionManager::ShardForSession(
        "s-" + std::to_string(n), counts.size())];
  }
  for (size_t i = 0; i < counts.size(); ++i) {
    EXPECT_GT(counts[i], 100u) << "shard " << i << " starved";
  }
}

TEST(ShardRoutingTest, WalDirLayout) {
  EXPECT_EQ(ShardedSessionManager::ShardWalDir("/w", 0, 1), "/w");
  EXPECT_EQ(ShardedSessionManager::ShardWalDir("/w", 2, 4), "/w/shard-2");
}

// ------------------------------------------------------------------
// Behavior through the front-end.

TEST(ShardedManagerTest, CreatesGloballyUniqueIdsAcrossShards) {
  ShardedConfig config;
  config.num_shards = 4;
  config.shard.num_workers = 1;
  ShardedSessionManager manager(config);
  std::set<std::string> ids;
  std::set<size_t> shards_hit;
  for (uint64_t i = 0; i < 16; ++i) {
    StatusOr<JsonValue> created =
        manager.Execute(MakeRequest(SyntheticCreate(100 + i)));
    ASSERT_TRUE(created.ok()) << created.status();
    const std::string id = created->Get("session").AsString();
    EXPECT_TRUE(ids.insert(id).second) << "duplicate session id " << id;
    shards_hit.insert(ShardedSessionManager::ShardForSession(id, 4));
    // The owning shard answers this session's commands.
    StatusOr<JsonValue> status =
        manager.Execute(SessionCommand("status", id));
    EXPECT_TRUE(status.ok()) << status.status();
  }
  EXPECT_EQ(ids.size(), 16u);
  EXPECT_GT(shards_hit.size(), 1u)
      << "16 sessions all hashed to one shard — routing is degenerate";
  // The id counter is front-end-global: ids are s-1..s-16 regardless of
  // which shard owns each (byte-compatible with the unsharded daemon).
  for (uint64_t n = 1; n <= 16; ++n) {
    EXPECT_EQ(ids.count("s-" + std::to_string(n)), 1u);
  }
  manager.Shutdown();
}

TEST(ShardedManagerTest, UnknownSessionIsNotFoundOnItsOwningShard) {
  ShardedConfig config;
  config.num_shards = 3;
  config.shard.num_workers = 1;
  ShardedSessionManager manager(config);
  StatusOr<JsonValue> missing =
      manager.Execute(SessionCommand("status", "s-404"));
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound)
      << missing.status();
  manager.Shutdown();
}

TEST(ShardedManagerTest, SingleShardCreateMatchesPlainManagerByteForByte) {
  ServiceConfig plain_config;
  plain_config.num_workers = 1;
  SessionManager plain(plain_config);
  StatusOr<JsonValue> want = plain.Execute(
      MakeRequest(SyntheticCreate(7, 30, "opti-mcd", "incremental")));
  ASSERT_TRUE(want.ok()) << want.status();

  ShardedConfig config;
  config.num_shards = 1;
  config.shard.num_workers = 1;
  ShardedSessionManager sharded(config);
  StatusOr<JsonValue> got = sharded.Execute(
      MakeRequest(SyntheticCreate(7, 30, "opti-mcd", "incremental")));
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(got->Dump(), want->Dump())
      << "the 1-shard pass-through changed a create response";
  plain.Shutdown();
  sharded.Shutdown();
}

TEST(ShardedManagerTest, AggregateMetricsKeepSingleShardShape) {
  ShardedConfig config;
  config.num_shards = 4;
  config.shard.num_workers = 1;
  ShardedSessionManager manager(config);
  const size_t kSessions = 12;
  for (uint64_t i = 0; i < kSessions; ++i) {
    StatusOr<JsonValue> created =
        manager.Execute(MakeRequest(SyntheticCreate(200 + i)));
    ASSERT_TRUE(created.ok()) << created.status();
    JsonValue close = JsonValue::Object();
    close.Set("command", JsonValue::String("close"));
    close.Set("session", created->Get("session"));
    ASSERT_TRUE(manager.Execute(MakeRequest(std::move(close))).ok());
  }
  JsonValue metrics_request = JsonValue::Object();
  metrics_request.Set("command", JsonValue::String("metrics"));
  StatusOr<JsonValue> metrics =
      manager.Execute(MakeRequest(std::move(metrics_request)));
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  // Aggregate section: identical shape to the unsharded daemon, with
  // sums over the shards.
  const JsonValue& sessions = metrics->Get("sessions");
  EXPECT_EQ(sessions.Get("opened").AsInt(-1),
            static_cast<int64_t>(kSessions));
  EXPECT_EQ(sessions.Get("completed").AsInt(-1),
            static_cast<int64_t>(kSessions));
  EXPECT_EQ(sessions.Get("active").AsInt(-1), 0);
  EXPECT_EQ(metrics->Get("service").Get("shards").AsInt(0), 4);
  // Per-shard rows: present, one per shard, opened sums to the total.
  const JsonValue& per_shard = metrics->Get("per_shard");
  ASSERT_TRUE(per_shard.is_array());
  ASSERT_EQ(per_shard.size(), 4u);
  int64_t opened_sum = 0;
  for (size_t i = 0; i < per_shard.size(); ++i) {
    EXPECT_EQ(per_shard.at(i).Get("shard").AsInt(-1),
              static_cast<int64_t>(i));
    opened_sum += per_shard.at(i).Get("sessions_opened").AsInt(0);
  }
  EXPECT_EQ(opened_sum, static_cast<int64_t>(kSessions));

  // The exposition gains the shard="i" series only when sharded.
  std::string text;
  manager.AppendMetricsText(&text);
  EXPECT_NE(text.find("kbrepair_shard_sessions_opened_total{shard=\"0\"}"),
            std::string::npos);
  manager.Shutdown();
}

// ------------------------------------------------------------------
// WAL layout and recovery across shard-count changes.

// Creates `count` WAL-backed sessions mid-dialogue (created, one
// question asked, never closed) and returns their ids.
std::vector<std::string> StartInterruptedSessions(const std::string& wal_root,
                                                  size_t num_shards,
                                                  size_t count) {
  ShardedConfig config;
  config.num_shards = num_shards;
  config.shard.num_workers = 1;
  config.shard.wal_dir = wal_root;
  ShardedSessionManager manager(config);
  std::vector<std::string> ids;
  for (uint64_t i = 0; i < count; ++i) {
    StatusOr<JsonValue> created =
        manager.Execute(MakeRequest(SyntheticCreate(300 + i)));
    EXPECT_TRUE(created.ok()) << created.status();
    const std::string id = created->Get("session").AsString();
    StatusOr<JsonValue> asked = manager.Execute(SessionCommand("ask", id));
    EXPECT_TRUE(asked.ok()) << asked.status();
    ids.push_back(id);
  }
  manager.Shutdown();  // "crash": WALs stay behind
  return ids;
}

void ExpectAllRecovered(const std::string& wal_root, size_t num_shards,
                        const std::vector<std::string>& ids) {
  ShardedConfig config;
  config.num_shards = num_shards;
  config.shard.num_workers = 1;
  config.shard.wal_dir = wal_root;
  config.shard.recover = true;
  ShardedSessionManager manager(config);
  for (const std::string& id : ids) {
    SCOPED_TRACE("session " + id + " with " + std::to_string(num_shards) +
                 " shards");
    StatusOr<JsonValue> status = manager.Execute(SessionCommand("status", id));
    EXPECT_TRUE(status.ok()) << status.status();
    // The WAL landed in the directory the id now hashes to.
    const std::string wal =
        ShardedSessionManager::ShardWalDir(
            wal_root,
            ShardedSessionManager::ShardForSession(id, num_shards),
            num_shards) +
        "/" + id + ".wal";
    struct stat st{};
    EXPECT_EQ(::stat(wal.c_str(), &st), 0) << wal << " missing";
  }
  // New ids continue past the recovered ones instead of colliding.
  StatusOr<JsonValue> created =
      manager.Execute(MakeRequest(SyntheticCreate(999)));
  ASSERT_TRUE(created.ok()) << created.status();
  for (const std::string& id : ids) {
    EXPECT_NE(created->Get("session").AsString(), id);
  }
  manager.Shutdown();
}

TEST(ShardedRecoveryTest, SameShardCount) {
  TempDir wal;
  const std::vector<std::string> ids =
      StartInterruptedSessions(wal.path, 2, 6);
  ASSERT_EQ(ids.size(), 6u);
  ExpectAllRecovered(wal.path, 2, ids);
}

TEST(ShardedRecoveryTest, ScaleUpRebalancesWals) {
  TempDir wal;
  const std::vector<std::string> ids =
      StartInterruptedSessions(wal.path, 2, 6);
  ExpectAllRecovered(wal.path, 4, ids);
}

TEST(ShardedRecoveryTest, ScaleDownToSingleShardUsesRootLayout) {
  TempDir wal;
  const std::vector<std::string> ids =
      StartInterruptedSessions(wal.path, 3, 6);
  ExpectAllRecovered(wal.path, 1, ids);
}

TEST(ShardedRecoveryTest, UnshardedWalsMoveIntoShardDirs) {
  TempDir wal;
  // The pre-sharding layout: WALs directly in the root.
  const std::vector<std::string> ids =
      StartInterruptedSessions(wal.path, 1, 6);
  ExpectAllRecovered(wal.path, 4, ids);
}

}  // namespace
}  // namespace kbrepair
