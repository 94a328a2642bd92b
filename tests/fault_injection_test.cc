// Fault-injection matrix: every registered failpoint is armed and the
// specified outcome asserted — a clean error envelope, an engine
// fallback, or DeadlineExceeded. In every case the service keeps
// serving and no acknowledged state is lost.
//
// Registered failpoints:
//   wal.append      WAL write fails      -> command rejected Unavailable
//   wal.fsync       WAL durability fails -> rejected + counted, retryable
//   chase.saturate  chase blows up       -> error envelope, no crash
//   delta.corrupt   delta engine diverges-> demoted to scratch, dialogue
//                                          continues correctly
//   fs.atomic_write transcript/compaction write fails -> counted, logged
//   fs.fsync        durability step of atomic writes fails
//   worker.stall    wedged worker        -> DeadlineExceeded + watchdog

#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <string>

#include "repair/inquiry.h"
#include "service/session.h"
#include "service/session_manager.h"
#include "util/cancel.h"
#include "util/failpoint.h"
#include "util/fs.h"
#include "util/json.h"
#include "service_test_util.h"

namespace kbrepair {
namespace {

JsonValue GetMetrics(SessionManager& manager) {
  JsonValue params = JsonValue::Object();
  params.Set("command", JsonValue::String("metrics"));
  StatusOr<JsonValue> metrics = manager.Execute(MakeRequest(std::move(params)));
  EXPECT_TRUE(metrics.ok()) << metrics.status();
  return metrics.ok() ? *metrics : JsonValue::Object();
}

// Failpoints are process-global; every test starts and ends clean.
class FaultInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override { failpoint::Reset(); }
  void TearDown() override { failpoint::Reset(); }
};

// ------------------------------------------------------------------
// The registry itself.

TEST_F(FaultInjectionTest, ArmSkipFailSemantics) {
  failpoint::Arm("t.point", /*skip=*/2, /*fail=*/2);
  EXPECT_FALSE(failpoint::ShouldFail("t.point"));
  EXPECT_FALSE(failpoint::ShouldFail("t.point"));
  EXPECT_TRUE(failpoint::ShouldFail("t.point"));
  EXPECT_TRUE(failpoint::ShouldFail("t.point"));
  EXPECT_FALSE(failpoint::ShouldFail("t.point"));  // exhausted
  EXPECT_EQ(failpoint::Hits("t.point"), 5u);
  EXPECT_FALSE(failpoint::ShouldFail("t.never_armed"));
}

TEST_F(FaultInjectionTest, ConfigureParsesTheSpecGrammar) {
  ASSERT_TRUE(failpoint::Configure("a.forever,b.counted=2,c.offset=1:1").ok());
  EXPECT_TRUE(failpoint::ShouldFail("a.forever"));
  EXPECT_TRUE(failpoint::ShouldFail("a.forever"));  // -1 = forever
  EXPECT_TRUE(failpoint::ShouldFail("b.counted"));
  EXPECT_TRUE(failpoint::ShouldFail("b.counted"));
  EXPECT_FALSE(failpoint::ShouldFail("b.counted"));
  EXPECT_FALSE(failpoint::ShouldFail("c.offset"));
  EXPECT_TRUE(failpoint::ShouldFail("c.offset"));
  EXPECT_FALSE(failpoint::ShouldFail("c.offset"));
  EXPECT_FALSE(failpoint::Configure("bad=not_a_number").ok());
  EXPECT_FALSE(failpoint::Configure("=3").ok());
}

TEST_F(FaultInjectionTest, DisarmAndResetClear) {
  failpoint::Arm("t.x", 0, -1);
  EXPECT_TRUE(failpoint::ShouldFail("t.x"));
  failpoint::Disarm("t.x");
  EXPECT_FALSE(failpoint::ShouldFail("t.x"));
  failpoint::Arm("t.y", 0, -1);
  failpoint::Reset();
  EXPECT_FALSE(failpoint::ShouldFail("t.y"));
}

// ------------------------------------------------------------------
// Cooperative cancellation.

TEST_F(FaultInjectionTest, CancelTokenExpires) {
  CancelToken token;
  EXPECT_FALSE(token.armed());
  EXPECT_TRUE(token.Check("idle").ok());
  token.ArmDeadline(0);  // non-positive budget = already expired
  EXPECT_TRUE(token.armed());
  EXPECT_TRUE(token.Expired());
  const Status status = token.Check("chase");
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);
  token.Disarm();
  EXPECT_TRUE(token.Check("chase").ok());
}

TEST_F(FaultInjectionTest, ChaseHonorsCancelToken) {
  // An engine built with a pre-expired token must refuse to chase,
  // surfacing DeadlineExceeded instead of burning the worker.
  const JsonValue params = SyntheticCreate(1, 40);
  std::string label;
  StatusOr<KnowledgeBase> kb = BuildKbFromParams(params, &label);
  ASSERT_TRUE(kb.ok()) << kb.status();
  StatusOr<InquiryOptions> options = InquiryOptionsFromParams(params);
  ASSERT_TRUE(options.ok());
  auto cancel = std::make_shared<CancelToken>();
  cancel->ArmDeadline(0);
  options->chase_options.cancel = cancel;
  InquiryEngine engine(&*kb, *options);
  const Status begun = engine.Begin();
  ASSERT_FALSE(begun.ok());
  EXPECT_EQ(begun.code(), StatusCode::kDeadlineExceeded) << begun;
}

// ------------------------------------------------------------------
// Filesystem failpoints.

TEST_F(FaultInjectionTest, AtomicWriteFailpointsLeaveTargetIntact) {
  TempDir dir;
  const std::string path = dir.path + "/file.json";
  ASSERT_TRUE(AtomicWriteFile(path, "original\n").ok());

  failpoint::Arm("fs.atomic_write", 0, 1);
  EXPECT_FALSE(AtomicWriteFile(path, "clobbered\n").ok());
  failpoint::Arm("fs.fsync", 0, 1);
  EXPECT_FALSE(AtomicWriteFile(path, "clobbered\n").ok());

  // Both failures left the original contents untouched.
  EXPECT_TRUE(AtomicWriteFile(path, "updated\n").ok());
}

TEST_F(FaultInjectionTest, TranscriptWriteFailureIsCountedNotFatal) {
  TempDir transcripts;
  ServiceConfig config;
  config.num_workers = 1;
  config.transcript_dir = transcripts.path;
  SessionManager manager(config);
  StatusOr<JsonValue> created =
      manager.Execute(MakeRequest(SyntheticCreate(5, 40)));
  ASSERT_TRUE(created.ok()) << created.status();
  const std::string session = created->Get("session").AsString();

  failpoint::Arm("fs.atomic_write", 0, -1);
  JsonValue close = JsonValue::Object();
  close.Set("command", JsonValue::String("close"));
  close.Set("session", JsonValue::String(session));
  StatusOr<JsonValue> closed = manager.Execute(MakeRequest(close));
  // The close itself succeeds — only the best-effort flush failed, and
  // it failed *visibly*.
  ASSERT_TRUE(closed.ok()) << closed.status();
  failpoint::Reset();
  const JsonValue metrics = GetMetrics(manager);
  EXPECT_GE(metrics.Get("durability").Get("transcript_write_failures").AsInt(0),
            1);
}

// ------------------------------------------------------------------
// WAL failpoints: log-before-execute means an unloggable command is
// rejected, never half-applied.

TEST_F(FaultInjectionTest, WalAppendFailureRejectsCreate) {
  TempDir wal_dir;
  ServiceConfig config;
  config.num_workers = 1;
  config.wal_dir = wal_dir.path;
  SessionManager manager(config);

  failpoint::Arm("wal.append", 0, -1);
  StatusOr<JsonValue> created =
      manager.Execute(MakeRequest(SyntheticCreate(5, 40)));
  ASSERT_FALSE(created.ok());
  EXPECT_EQ(created.status().code(), StatusCode::kUnavailable);
  // No session registered, no stray WAL file.
  EXPECT_TRUE(ListWalSessionIds(wal_dir.path).empty());

  // The service survives: disarm and the same create succeeds.
  failpoint::Reset();
  StatusOr<JsonValue> retried =
      manager.Execute(MakeRequest(SyntheticCreate(5, 40)));
  ASSERT_TRUE(retried.ok()) << retried.status();
  const JsonValue metrics = GetMetrics(manager);
  EXPECT_GE(metrics.Get("traffic").Get("rejected_commands").AsInt(0), 1);
}

TEST_F(FaultInjectionTest, WalFsyncFailureRejectsAnswerRetryably) {
  TempDir wal_dir;
  ServiceConfig config;
  config.num_workers = 1;
  config.wal_dir = wal_dir.path;
  SessionManager manager(config);
  StatusOr<JsonValue> created =
      manager.Execute(MakeRequest(SyntheticCreate(5, 40)));
  ASSERT_TRUE(created.ok()) << created.status();
  const std::string session = created->Get("session").AsString();

  StatusOr<JsonValue> asked = manager.Execute(SessionCommand("ask", session));
  ASSERT_TRUE(asked.ok()) << asked.status();
  ASSERT_FALSE(asked->Get("done").AsBool(false));
  const std::string question_dump = asked->Get("question").Dump();

  failpoint::Arm("wal.fsync", 0, 1);
  StatusOr<JsonValue> answered = manager.Execute(AnswerCommand(session, 0));
  ASSERT_FALSE(answered.ok());
  EXPECT_EQ(answered.status().code(), StatusCode::kUnavailable);

  // Nothing was applied: the same question is still pending, and the
  // retried answer succeeds exactly once.
  StatusOr<JsonValue> re_asked =
      manager.Execute(SessionCommand("ask", session));
  ASSERT_TRUE(re_asked.ok()) << re_asked.status();
  EXPECT_EQ(re_asked->Get("question").Dump(), question_dump);
  StatusOr<JsonValue> retried = manager.Execute(AnswerCommand(session, 0));
  ASSERT_TRUE(retried.ok()) << retried.status();

  const JsonValue metrics = GetMetrics(manager);
  EXPECT_GE(metrics.Get("durability").Get("wal_fsync_failures").AsInt(0), 1);
  EXPECT_GE(metrics.Get("traffic").Get("rejected_commands").AsInt(0), 1);
}

// ------------------------------------------------------------------
// Engine failpoints.

TEST_F(FaultInjectionTest, ChaseSaturationFaultIsACleanError) {
  ServiceConfig config;
  config.num_workers = 1;
  SessionManager manager(config);

  failpoint::Arm("chase.saturate", 0, -1);
  StatusOr<JsonValue> created =
      manager.Execute(MakeRequest(SyntheticCreate(5, 40)));
  ASSERT_FALSE(created.ok());  // error envelope, not a crash

  failpoint::Reset();
  StatusOr<JsonValue> retried =
      manager.Execute(MakeRequest(SyntheticCreate(5, 40)));
  ASSERT_TRUE(retried.ok()) << retried.status();
  const JsonValue metrics = GetMetrics(manager);
  EXPECT_GE(metrics.Get("sessions").Get("failed").AsInt(0), 1);
}

TEST_F(FaultInjectionTest, DeltaCorruptionDemotesToScratchMidSession) {
  ServiceConfig config;
  config.num_workers = 1;
  SessionManager manager(config);
  StatusOr<JsonValue> created = manager.Execute(
      MakeRequest(SyntheticCreate(7, 40, "random", "incremental")));
  ASSERT_TRUE(created.ok()) << created.status();
  const std::string session = created->Get("session").AsString();

  StatusOr<JsonValue> status = manager.Execute(SessionCommand("status", session));
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status->Get("engine_active").AsString(), "incremental");
  EXPECT_FALSE(status->Get("engine_degraded").AsBool(true));

  StatusOr<JsonValue> asked = manager.Execute(SessionCommand("ask", session));
  ASSERT_TRUE(asked.ok()) << asked.status();
  ASSERT_FALSE(asked->Get("done").AsBool(false));

  // The engine's post-fix invariant check "detects divergence" on the
  // next answer; the session demotes itself instead of failing.
  failpoint::Arm("delta.corrupt", 0, 1);
  StatusOr<JsonValue> answered = manager.Execute(AnswerCommand(session, 0));
  ASSERT_TRUE(answered.ok()) << answered.status();
  failpoint::Reset();

  status = manager.Execute(SessionCommand("status", session));
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status->Get("engine_active").AsString(), "scratch");
  EXPECT_TRUE(status->Get("engine_degraded").AsBool(false));

  // The dialogue still completes on the scratch engine.
  for (int i = 0; i < 100000; ++i) {
    StatusOr<JsonValue> next = manager.Execute(SessionCommand("ask", session));
    ASSERT_TRUE(next.ok()) << next.status();
    if (next->Get("done").AsBool(false)) break;
    ASSERT_TRUE(manager.Execute(AnswerCommand(session, 0)).ok());
  }
  JsonValue close = JsonValue::Object();
  close.Set("command", JsonValue::String("close"));
  close.Set("session", JsonValue::String(session));
  StatusOr<JsonValue> closed = manager.Execute(MakeRequest(close));
  ASSERT_TRUE(closed.ok()) << closed.status();
  EXPECT_TRUE(closed->Get("consistent").AsBool(false));

  const JsonValue metrics = GetMetrics(manager);
  EXPECT_GE(metrics.Get("durability").Get("engine_fallbacks").AsInt(0), 1);
}

// ------------------------------------------------------------------
// Worker watchdog.

TEST_F(FaultInjectionTest, WorkerStallIsDetectedAndDeadlined) {
  ServiceConfig config;
  config.num_workers = 2;
  config.deadline_ms = 50;  // stall threshold 4x = 200ms
  SessionManager manager(config);
  StatusOr<JsonValue> created =
      manager.Execute(MakeRequest(SyntheticCreate(5, 40)));
  ASSERT_TRUE(created.ok()) << created.status();
  const std::string session = created->Get("session").AsString();

  failpoint::Arm("worker.stall", 0, 1);
  StatusOr<JsonValue> stalled =
      manager.Execute(SessionCommand("status", session));
  ASSERT_FALSE(stalled.ok());
  EXPECT_EQ(stalled.status().code(), StatusCode::kDeadlineExceeded);

  // The worker came back, the watchdog saw the stall, and the command
  // was accounted as deadline-exceeded.
  StatusOr<JsonValue> after = manager.Execute(SessionCommand("status", session));
  ASSERT_TRUE(after.ok()) << after.status();
  const JsonValue metrics = GetMetrics(manager);
  EXPECT_GE(metrics.Get("durability").Get("worker_stalls").AsInt(0), 1);
  EXPECT_GE(metrics.Get("traffic").Get("deadline_exceeded").AsInt(0), 1);
}

}  // namespace
}  // namespace kbrepair
