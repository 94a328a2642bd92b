// Crash recovery: a session interrupted mid-dialogue and rebuilt from
// its WAL must be byte-identical to one that was never interrupted.
//
// Two layers of coverage:
//  * In-process: drive a SessionManager with a WAL dir, drop it
//    mid-dialogue, start a fresh manager with recover=true and compare
//    snapshots and close outputs byte-for-byte against an uninterrupted
//    reference — across three strategies and both conflict engines.
//  * Daemon-level: spawn the real kbrepaird (KBREPAIRD_PATH), kill -9 it
//    mid-dialogue, restart with --recover-dir, and finish the dialogue;
//    the repaired fact base must match the uninterrupted run exactly.

#include <gtest/gtest.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "service/daemon_client.h"
#include "service/session_manager.h"
#include "service/wal.h"
#include "util/json.h"
#include "util/rng.h"
#include "service_test_util.h"

namespace kbrepair {
namespace {

// Drives an uninterrupted reference session to completion, returning
// the full choice sequence plus the snapshot dump after `split` answers
// and the close output fingerprint.
struct ReferenceRun {
  std::vector<int64_t> choices;
  std::string mid_snapshot;
  std::string close_output;
};

StatusOr<ReferenceRun> RunReference(const JsonValue& create_params,
                                    uint64_t seed, size_t split) {
  ServiceConfig config;
  config.num_workers = 2;
  SessionManager manager(config);
  KBREPAIR_ASSIGN_OR_RETURN(JsonValue created,
                            manager.Execute(MakeRequest(create_params)));
  const std::string session = created.Get("session").AsString();

  ReferenceRun run;
  Rng rng(seed);
  for (;;) {
    KBREPAIR_ASSIGN_OR_RETURN(
        JsonValue asked, manager.Execute(SessionCommand("ask", session)));
    if (asked.Get("done").AsBool(false)) break;
    const int64_t num_fixes = asked.Get("question").Get("num_fixes").AsInt(0);
    const int64_t choice = static_cast<int64_t>(
        rng.UniformIndex(static_cast<size_t>(num_fixes)));
    run.choices.push_back(choice);
    KBREPAIR_RETURN_IF_ERROR(
        manager.Execute(AnswerCommand(session, choice)).status());
    if (run.choices.size() == split) {
      KBREPAIR_ASSIGN_OR_RETURN(
          JsonValue snap, manager.Execute(SessionCommand("snapshot", session)));
      run.mid_snapshot = snap.Dump();
    }
  }
  JsonValue close = JsonValue::Object();
  close.Set("command", JsonValue::String("close"));
  close.Set("session", JsonValue::String(session));
  close.Set("include_facts", JsonValue::Bool(true));
  KBREPAIR_ASSIGN_OR_RETURN(JsonValue closed,
                            manager.Execute(MakeRequest(close)));
  run.close_output = CloseFingerprint(closed);
  return run;
}

// With `legacy_chase_threads`, the crashed manager's create (hence its
// WAL create record) also carries "chase_threads": 4, as daemons with
// the former parallel chase wrote it. Recovery must ignore the param
// and still reproduce the reference run, which never had it.
void RoundTrip(const std::string& strategy, const std::string& engine,
               size_t wal_compact_every, int64_t num_facts = 40,
               bool legacy_chase_threads = false) {
  SCOPED_TRACE("strategy=" + strategy + " engine=" + engine +
               " compact_every=" + std::to_string(wal_compact_every));
  const uint64_t seed = 20180326;
  const JsonValue create_params =
      SyntheticCreate(seed, num_facts, strategy, engine);
  JsonValue recorded_params = create_params;
  if (legacy_chase_threads) {
    recorded_params.Set("chase_threads", JsonValue::Number(int64_t{4}));
  }

  StatusOr<ReferenceRun> ref = RunReference(create_params, seed, 3);
  ASSERT_TRUE(ref.ok()) << ref.status();
  // Dialogues under the chosen num_facts are long enough to interrupt;
  // a skip here would silently drop a strategy from coverage.
  ASSERT_GT(ref->choices.size(), 3u)
      << "dialogue too short to interrupt (" << ref->choices.size()
      << " questions) — pick a larger num_facts for this strategy";

  TempDir wal_dir;
  std::string session;
  {
    // Phase one: a WAL-backed manager that "crashes" (is destroyed)
    // after 3 answers, before ever closing the session.
    ServiceConfig config;
    config.num_workers = 2;
    config.wal_dir = wal_dir.path;
    config.wal_compact_every = wal_compact_every;
    SessionManager manager(config);
    StatusOr<JsonValue> created =
        manager.Execute(MakeRequest(recorded_params));
    ASSERT_TRUE(created.ok()) << created.status();
    session = created->Get("session").AsString();
    for (size_t i = 0; i < 3; ++i) {
      StatusOr<JsonValue> asked =
          manager.Execute(SessionCommand("ask", session));
      ASSERT_TRUE(asked.ok()) << asked.status();
      ASSERT_FALSE(asked->Get("done").AsBool(false));
      ASSERT_TRUE(
          manager.Execute(AnswerCommand(session, ref->choices[i])).ok());
    }
  }

  // Phase two: recover from the WAL and finish the dialogue.
  ServiceConfig config;
  config.num_workers = 2;
  config.wal_dir = wal_dir.path;
  config.recover = true;
  config.wal_compact_every = wal_compact_every;
  SessionManager manager(config);

  StatusOr<JsonValue> metrics =
      manager.Execute(MakeRequest([] {
        JsonValue params = JsonValue::Object();
        params.Set("command", JsonValue::String("metrics"));
        return params;
      }()));
  ASSERT_TRUE(metrics.ok());
  EXPECT_EQ(metrics->Get("durability").Get("sessions_recovered").AsInt(0), 1);

  StatusOr<JsonValue> snap =
      manager.Execute(SessionCommand("snapshot", session));
  ASSERT_TRUE(snap.ok()) << snap.status();
  EXPECT_EQ(snap->Dump(), ref->mid_snapshot)
      << "recovered session diverged from the uninterrupted one";

  // Mirror the reference loop exactly (including the final ask that
  // observes done=true) so the close outputs are comparable.
  size_t next_choice = 3;
  for (;;) {
    StatusOr<JsonValue> asked = manager.Execute(SessionCommand("ask", session));
    ASSERT_TRUE(asked.ok()) << asked.status();
    if (asked->Get("done").AsBool(false)) break;
    ASSERT_LT(next_choice, ref->choices.size())
        << "recovered dialogue ran past the reference";
    ASSERT_TRUE(
        manager.Execute(AnswerCommand(session, ref->choices[next_choice]))
            .ok());
    ++next_choice;
  }
  EXPECT_EQ(next_choice, ref->choices.size())
      << "recovered dialogue finished early";
  JsonValue close = JsonValue::Object();
  close.Set("command", JsonValue::String("close"));
  close.Set("session", JsonValue::String(session));
  close.Set("include_facts", JsonValue::Bool(true));
  StatusOr<JsonValue> closed = manager.Execute(MakeRequest(close));
  ASSERT_TRUE(closed.ok()) << closed.status();
  EXPECT_EQ(CloseFingerprint(*closed), ref->close_output)
      << "recovered repair diverged from the uninterrupted one";

  // Closing removed the WAL: a third manager recovers nothing.
  ServiceConfig config3;
  config3.wal_dir = wal_dir.path;
  config3.recover = true;
  SessionManager manager3(config3);
  StatusOr<JsonValue> gone = manager3.Execute(SessionCommand("status", session));
  EXPECT_FALSE(gone.ok());
}

TEST(CrashRecoveryTest, RandomScratch) { RoundTrip("random", "scratch", 64); }
TEST(CrashRecoveryTest, RandomIncremental) {
  RoundTrip("random", "incremental", 64, 40, /*legacy_chase_threads=*/true);
}
// The opti-* dialogues converge in ≤3 questions on the 40-fact KB, so
// they run on a larger one that leaves room to crash mid-dialogue.
TEST(CrashRecoveryTest, OptiMcdScratch) {
  RoundTrip("opti-mcd", "scratch", 64, 80);
}
TEST(CrashRecoveryTest, OptiMcdIncremental) {
  RoundTrip("opti-mcd", "incremental", 64, 80);
}
TEST(CrashRecoveryTest, OptiPropScratch) {
  RoundTrip("opti-prop", "scratch", 64, 80);
}
TEST(CrashRecoveryTest, OptiPropIncremental) {
  RoundTrip("opti-prop", "incremental", 64, 80);
}

// Compaction every 2 appends forces recovery through snapshot records.
TEST(CrashRecoveryTest, RecoversThroughCompactedWal) {
  RoundTrip("random", "scratch", 2);
}

TEST(CrashRecoveryTest, CorruptWalIsQuarantinedNotFatal) {
  TempDir wal_dir;
  {
    std::ofstream out(wal_dir.path + "/s-9.wal");
    out << "{\"op\":\"create\",\"params\":{\"kb\":\"synthetic\"}}\n"
        << "garbage interior line\n"
        << "{\"op\":\"close\"}\n";
  }
  ServiceConfig config;
  config.wal_dir = wal_dir.path;
  config.recover = true;
  SessionManager manager(config);
  // The daemon came up, did not register the broken session, and set
  // the file aside for inspection.
  EXPECT_FALSE(manager.Execute(SessionCommand("status", "s-9")).ok());
  struct stat st;
  EXPECT_NE(::stat((wal_dir.path + "/s-9.wal").c_str(), &st), 0);
  EXPECT_EQ(::stat((wal_dir.path + "/s-9.wal.corrupt").c_str(), &st), 0);
  // And fresh sessions still allocate ids past the quarantined one.
  StatusOr<JsonValue> created = manager.Execute(
      MakeRequest(SyntheticCreate(7, 40)));
  ASSERT_TRUE(created.ok()) << created.status();
  EXPECT_EQ(created->Get("session").AsString(), "s-10");
}

TEST(CrashRecoveryTest, ClosedWalIsDroppedOnRecovery) {
  TempDir wal_dir;
  std::string session;
  {
    ServiceConfig config;
    config.wal_dir = wal_dir.path;
    SessionManager manager(config);
    StatusOr<JsonValue> created = manager.Execute(
        MakeRequest(SyntheticCreate(11, 40)));
    ASSERT_TRUE(created.ok()) << created.status();
    session = created->Get("session").AsString();
    // Interrupt the close *after* its WAL record: simulate by writing
    // the close record and crashing before Finish by hand.
    std::ofstream out(wal_dir.path + "/" + session + ".wal",
                      std::ios::app);
    out << "{\"op\":\"close\"}\n";
  }
  ServiceConfig config;
  config.wal_dir = wal_dir.path;
  config.recover = true;
  SessionManager manager(config);
  // The logged close wins: the session is not resurrected and its WAL
  // is gone.
  EXPECT_FALSE(manager.Execute(SessionCommand("status", session)).ok());
  struct stat st;
  EXPECT_NE(::stat((wal_dir.path + "/" + session + ".wal").c_str(), &st), 0);
}

#ifdef KBREPAIRD_PATH
// ------------------------------------------------------------------
// Daemon-level: the real binary, a real SIGKILL, a real restart.

TEST(CrashRecoveryTest, DaemonKillDashNineAndRestart) {
  const uint64_t seed = 424242;
  const JsonValue create_params = SyntheticCreate(seed, 40);

  StatusOr<ReferenceRun> ref = RunReference(create_params, seed, 2);
  ASSERT_TRUE(ref.ok()) << ref.status();
  if (ref->choices.size() <= 2) {
    GTEST_SKIP() << "dialogue too short to interrupt";
  }

  TempDir wal_dir;
  DaemonProcess daemon;
  ASSERT_TRUE(daemon.Start(
      {KBREPAIRD_PATH, "--workers", "2", "--wal-dir", wal_dir.path},
      DaemonProcess::Stdio::kPiped));
  ServerConnection conn(daemon);

  JsonValue create = create_params;
  StatusOr<JsonValue> created = conn.Call(std::move(create));
  ASSERT_TRUE(created.ok()) << created.status();
  const std::string session = created->Get("session").AsString();
  for (size_t i = 0; i < 2; ++i) {
    StatusOr<JsonValue> asked =
        conn.Call(SessionCommand("ask", session).params);
    ASSERT_TRUE(asked.ok()) << asked.status();
    ASSERT_TRUE(
        conn.Call(AnswerCommand(session, ref->choices[i]).params).ok());
  }

  daemon.Kill9();  // no drain, no flush — a genuine crash

  DaemonProcess revived;
  ASSERT_TRUE(revived.Start(
      {KBREPAIRD_PATH, "--workers", "2", "--recover-dir", wal_dir.path},
      DaemonProcess::Stdio::kPiped));
  ServerConnection revived_conn(revived);
  StatusOr<JsonValue> snap =
      revived_conn.Call(SessionCommand("snapshot", session).params);
  ASSERT_TRUE(snap.ok()) << snap.status();
  EXPECT_EQ(snap->Dump(), ref->mid_snapshot);

  size_t next_choice = 2;
  for (;;) {
    StatusOr<JsonValue> asked =
        revived_conn.Call(SessionCommand("ask", session).params);
    ASSERT_TRUE(asked.ok()) << asked.status();
    if (asked->Get("done").AsBool(false)) break;
    ASSERT_LT(next_choice, ref->choices.size());
    ASSERT_TRUE(
        revived_conn
            .Call(AnswerCommand(session, ref->choices[next_choice]).params)
            .ok());
    ++next_choice;
  }
  EXPECT_EQ(next_choice, ref->choices.size());
  JsonValue close = JsonValue::Object();
  close.Set("command", JsonValue::String("close"));
  close.Set("session", JsonValue::String(session));
  close.Set("include_facts", JsonValue::Bool(true));
  StatusOr<JsonValue> closed = revived_conn.Call(std::move(close));
  ASSERT_TRUE(closed.ok()) << closed.status();
  EXPECT_EQ(CloseFingerprint(*closed), ref->close_output)
      << "post-crash repair diverged from the uninterrupted run";
  // Call retries never-executed codes; here every command must succeed
  // on its first attempt, before and after the crash.
  EXPECT_EQ(conn.retries(), 0u);
  EXPECT_EQ(revived_conn.retries(), 0u);
  revived_conn.Shutdown();
  EXPECT_EQ(revived.CloseAndWait(), 0);
}
#endif  // KBREPAIRD_PATH

}  // namespace
}  // namespace kbrepair
