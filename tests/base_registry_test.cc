// BaseRegistry lifecycle properties: refcounted eviction, idempotent
// registration, durability log recovery — including a metamorphic
// random-schedule test that interleaves register / acquire / release /
// sweep and checks the registry against a plain model after every op:
//
//  * a base is NEVER evicted while a handle references it;
//  * an orphaned base IS evicted once idle past the TTL;
//  * re-registering an evicted base rebuilds a snapshot with the
//    identical content hash;
//  * handles keep their snapshot alive independently of eviction.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "service/base_registry.h"
#include "service/session_manager.h"
#include "util/json.h"
#include "util/rng.h"
#include "service_test_util.h"

namespace kbrepair {
namespace {

// Small synthetic KBs so the many registrations stay fast.
JsonValue BaseParams(const std::string& name, uint64_t kb_seed) {
  JsonValue params = JsonValue::Object();
  params.Set("name", JsonValue::String(name));
  params.Set("kb", JsonValue::String("synthetic"));
  params.Set("kb_seed", JsonValue::Number(static_cast<int64_t>(kb_seed)));
  params.Set("num_facts", JsonValue::Number(int64_t{30}));
  return params;
}

// Everything registered more than ~a millisecond ago is "idle past the
// TTL" under this sweep.
size_t SweepAll(BaseRegistry& registry) {
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  return registry.SweepExpired(1e-6);
}

TEST(BaseRegistryTest, RegisterAcquireReleaseLifecycle) {
  auto registry = std::make_shared<BaseRegistry>();
  ASSERT_TRUE(registry->Register(BaseParams("b", 7)).ok());
  EXPECT_TRUE(registry->Has("b"));
  EXPECT_EQ(registry->NumBases(), 1u);
  EXPECT_EQ(registry->RefCount("b"), 0u);

  StatusOr<BaseRegistry::Handle> handle = registry->Acquire("b");
  ASSERT_TRUE(handle.ok()) << handle.status();
  ASSERT_TRUE(bool(*handle));
  EXPECT_EQ(handle->name(), "b");
  EXPECT_NE(handle->snapshot(), nullptr);
  EXPECT_EQ(registry->RefCount("b"), 1u);

  // Referenced: the sweep must not touch it, however stale.
  EXPECT_EQ(SweepAll(*registry), 0u);
  EXPECT_TRUE(registry->Has("b"));

  const std::shared_ptr<const SharedKbSnapshot> kept = handle->snapshot();
  handle->Release();
  EXPECT_FALSE(bool(*handle));
  EXPECT_EQ(registry->RefCount("b"), 0u);

  // Orphaned and idle: evicted.
  EXPECT_EQ(SweepAll(*registry), 1u);
  EXPECT_FALSE(registry->Has("b"));
  EXPECT_EQ(registry->NumBases(), 0u);

  // The released snapshot we copied out is still alive and readable —
  // eviction drops the registry's reference, not ours.
  EXPECT_GT(kept->kb.facts().size(), 0u);
}

TEST(BaseRegistryTest, AcquireUnknownIsNotFound) {
  auto registry = std::make_shared<BaseRegistry>();
  StatusOr<BaseRegistry::Handle> handle = registry->Acquire("ghost");
  ASSERT_FALSE(handle.ok());
  EXPECT_EQ(handle.status().code(), StatusCode::kNotFound);
}

TEST(BaseRegistryTest, ReRegisterIdenticalIsIdempotent) {
  auto registry = std::make_shared<BaseRegistry>();
  StatusOr<JsonValue> first = registry->Register(BaseParams("b", 7));
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_FALSE(first->Get("already_registered").AsBool(false));

  StatusOr<JsonValue> again = registry->Register(BaseParams("b", 7));
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_TRUE(again->Get("already_registered").AsBool(false));
  EXPECT_EQ(first->Get("hash").AsString(), again->Get("hash").AsString());
  EXPECT_EQ(registry->NumBases(), 1u);
}

TEST(BaseRegistryTest, ReRegisterDifferentKbUnderSameNameFails) {
  auto registry = std::make_shared<BaseRegistry>();
  ASSERT_TRUE(registry->Register(BaseParams("b", 7)).ok());
  StatusOr<JsonValue> clash = registry->Register(BaseParams("b", 8));
  ASSERT_FALSE(clash.ok());
  EXPECT_EQ(clash.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(registry->NumBases(), 1u);
}

TEST(BaseRegistryTest, ReRegisterAfterEvictionYieldsIdenticalSnapshot) {
  auto registry = std::make_shared<BaseRegistry>();
  ASSERT_TRUE(registry->Register(BaseParams("b", 11)).ok());
  StatusOr<uint64_t> hash_before = registry->ContentHash("b");
  ASSERT_TRUE(hash_before.ok());

  ASSERT_EQ(SweepAll(*registry), 1u);
  ASSERT_FALSE(registry->Has("b"));

  StatusOr<JsonValue> re = registry->Register(BaseParams("b", 11));
  ASSERT_TRUE(re.ok()) << re.status();
  // A fresh registration (not the idempotent path) with the identical
  // deterministic snapshot.
  EXPECT_FALSE(re->Get("already_registered").AsBool(false));
  StatusOr<uint64_t> hash_after = registry->ContentHash("b");
  ASSERT_TRUE(hash_after.ok());
  EXPECT_EQ(*hash_before, *hash_after);
}

// --- Metamorphic random schedules ----------------------------------------

class BaseRegistryMetamorphic : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BaseRegistryMetamorphic, RandomScheduleKeepsModelInvariants) {
  Rng rng(GetParam() * 67 + 5);
  auto registry = std::make_shared<BaseRegistry>();

  const std::vector<std::string> names = {"alpha", "beta", "gamma"};
  auto seed_of = [](size_t name_index) -> uint64_t {
    return 50 + name_index;  // deterministic KB per name, distinct KBs
  };

  // The model: per-name live flag + expected refcount + expected hash.
  struct ModelEntry {
    bool live = false;
    uint64_t refcount = 0;
    uint64_t hash = 0;
  };
  std::map<std::string, ModelEntry> model;
  for (const std::string& name : names) model[name];
  std::vector<std::pair<std::string, BaseRegistry::Handle>> handles;

  for (int op = 0; op < 120; ++op) {
    SCOPED_TRACE("op " + std::to_string(op));
    const size_t name_index = rng.UniformIndex(names.size());
    const std::string& name = names[name_index];
    ModelEntry& entry = model[name];
    switch (rng.UniformIndex(4)) {
      case 0: {  // register (idempotent or fresh)
        StatusOr<JsonValue> registered =
            registry->Register(BaseParams(name, seed_of(name_index)));
        ASSERT_TRUE(registered.ok()) << registered.status();
        StatusOr<uint64_t> hash = registry->ContentHash(name);
        ASSERT_TRUE(hash.ok());
        if (entry.hash != 0) {
          // Deterministic rebuild: eviction and re-registration never
          // change the snapshot.
          ASSERT_EQ(entry.hash, *hash);
        }
        entry.hash = *hash;
        entry.live = true;
        break;
      }
      case 1: {  // acquire
        StatusOr<BaseRegistry::Handle> handle = registry->Acquire(name);
        if (!entry.live) {
          ASSERT_FALSE(handle.ok());
          ASSERT_EQ(handle.status().code(), StatusCode::kNotFound);
        } else {
          ASSERT_TRUE(handle.ok()) << handle.status();
          ASSERT_EQ(handle->snapshot()->content_hash, entry.hash);
          handles.emplace_back(name, std::move(*handle));
          ++entry.refcount;
        }
        break;
      }
      case 2: {  // release a random outstanding handle
        if (handles.empty()) break;
        const size_t pick = rng.UniformIndex(handles.size());
        --model[handles[pick].first].refcount;
        handles[pick].second.Release();
        handles.erase(handles.begin() + static_cast<long>(pick));
        break;
      }
      case 3: {  // sweep: exactly the idle orphans disappear
        SweepAll(*registry);
        for (auto& [n, m] : model) {
          if (m.live && m.refcount == 0) m.live = false;
        }
        break;
      }
    }
    // Registry vs model, after every op.
    for (const auto& [n, m] : model) {
      ASSERT_EQ(registry->Has(n), m.live) << n;
      if (m.live) {
        ASSERT_EQ(registry->RefCount(n), m.refcount) << n;
      }
    }
    // Every outstanding handle still reads its (possibly evicted)
    // snapshot.
    for (const auto& [n, h] : handles) {
      ASSERT_TRUE(bool(h));
      ASSERT_GT(h.snapshot()->kb.facts().size(), 0u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BaseRegistryMetamorphic,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

// --- Durability log -------------------------------------------------------

TEST(BaseRegistryLogTest, RecoveryRestoresLiveSetAndCompacts) {
  TempDir dir;
  uint64_t hash_b1 = 0;
  uint64_t hash_b3 = 0;
  {
    auto registry = std::make_shared<BaseRegistry>(dir.path);
    ASSERT_TRUE(registry->Register(BaseParams("b1", 1)).ok());
    ASSERT_TRUE(registry->Register(BaseParams("b2", 2)).ok());
    ASSERT_TRUE(registry->Register(BaseParams("b3", 3)).ok());
    hash_b1 = *registry->ContentHash("b1");
    hash_b3 = *registry->ContentHash("b3");
    // Protect b1 and b3 with handles; the sweep evicts only b2.
    StatusOr<BaseRegistry::Handle> h1 = registry->Acquire("b1");
    StatusOr<BaseRegistry::Handle> h3 = registry->Acquire("b3");
    ASSERT_TRUE(h1.ok());
    ASSERT_TRUE(h3.ok());
    EXPECT_EQ(SweepAll(*registry), 1u);
    EXPECT_FALSE(registry->Has("b2"));
  }

  auto recovered = std::make_shared<BaseRegistry>(dir.path);
  ASSERT_TRUE(recovered->RecoverFromLog().ok());
  EXPECT_EQ(recovered->NumBases(), 2u);
  EXPECT_TRUE(recovered->Has("b1"));
  EXPECT_FALSE(recovered->Has("b2"));
  EXPECT_TRUE(recovered->Has("b3"));
  EXPECT_EQ(*recovered->ContentHash("b1"), hash_b1);
  EXPECT_EQ(*recovered->ContentHash("b3"), hash_b3);
  // Recovered bases start unreferenced; their sessions re-acquire.
  EXPECT_EQ(recovered->RefCount("b1"), 0u);

  // Recovery compacted the log to the live set: two register records,
  // no evict records.
  std::ifstream log(dir.path + "/bases.jsonl");
  size_t registers = 0;
  size_t others = 0;
  std::string line;
  while (std::getline(log, line)) {
    if (line.empty()) continue;
    StatusOr<JsonValue> parsed = JsonValue::Parse(line);
    ASSERT_TRUE(parsed.ok());
    if (parsed->Get("op").AsString() == "register") {
      ++registers;
    } else {
      ++others;
    }
  }
  EXPECT_EQ(registers, 2u);
  EXPECT_EQ(others, 0u);
}

TEST(BaseRegistryLogTest, HashMismatchIsDroppedNotFatal) {
  TempDir dir;
  {
    std::ofstream log(dir.path + "/bases.jsonl");
    // A record whose hash cannot match the rebuilt KB: recovery must
    // drop the base (its sessions will fail recovery individually)
    // rather than serve a snapshot that differs from what was promised.
    log << "{\"op\":\"register\",\"name\":\"bad\","
           "\"hash\":\"0000000000000000\","
           "\"params\":{\"name\":\"bad\",\"kb\":\"synthetic\","
           "\"kb_seed\":5,\"num_facts\":30}}\n";
  }
  auto registry = std::make_shared<BaseRegistry>(dir.path);
  ASSERT_TRUE(registry->RecoverFromLog().ok());
  EXPECT_FALSE(registry->Has("bad"));
  EXPECT_EQ(registry->NumBases(), 0u);
}

// --- Manager integration: sessions hold handles ---------------------------

TEST(BaseRegistryManagerTest, SessionsProtectTheirBaseUntilClosed) {
  ServiceConfig config;
  config.num_workers = 2;
  SessionManager manager(config);
  const std::shared_ptr<BaseRegistry>& registry = manager.base_registry();
  ASSERT_NE(registry, nullptr);

  JsonValue reg = BaseParams("shared", 9);
  reg.Set("command", JsonValue::String("register-base"));
  ASSERT_TRUE(manager.Execute(MakeRequest(std::move(reg))).ok());

  // Three sessions forked from the base.
  std::vector<std::string> sessions;
  for (int i = 0; i < 3; ++i) {
    JsonValue create = JsonValue::Object();
    create.Set("command", JsonValue::String("create"));
    create.Set("base", JsonValue::String("shared"));
    create.Set("strategy", JsonValue::String("random"));
    create.Set("engine", JsonValue::String(i % 2 == 0 ? "scratch"
                                                      : "incremental"));
    create.Set("seed", JsonValue::Number(static_cast<int64_t>(100 + i)));
    StatusOr<JsonValue> created = manager.Execute(MakeRequest(create));
    ASSERT_TRUE(created.ok()) << created.status();
    sessions.push_back(created->Get("session").AsString());
  }
  EXPECT_EQ(registry->RefCount("shared"), 3u);

  // Closing releases, one by one; the base survives every sweep while
  // any session lives.
  for (size_t i = 0; i < sessions.size(); ++i) {
    JsonValue close = JsonValue::Object();
    close.Set("command", JsonValue::String("close"));
    close.Set("session", JsonValue::String(sessions[i]));
    ASSERT_TRUE(manager.Execute(MakeRequest(close)).ok());
    EXPECT_EQ(registry->RefCount("shared"), sessions.size() - 1 - i);
    if (i + 1 < sessions.size()) {
      EXPECT_EQ(SweepAll(*registry), 0u);
      EXPECT_TRUE(registry->Has("shared"));
    }
  }

  // All sessions gone: the orphaned base expires...
  EXPECT_EQ(SweepAll(*registry), 1u);
  EXPECT_FALSE(registry->Has("shared"));

  // ...and forking from it now fails cleanly.
  JsonValue create = JsonValue::Object();
  create.Set("command", JsonValue::String("create"));
  create.Set("base", JsonValue::String("shared"));
  create.Set("strategy", JsonValue::String("random"));
  create.Set("engine", JsonValue::String("scratch"));
  create.Set("seed", JsonValue::Number(int64_t{1}));
  StatusOr<JsonValue> orphan = manager.Execute(MakeRequest(create));
  ASSERT_FALSE(orphan.ok());
  EXPECT_EQ(orphan.status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace kbrepair
