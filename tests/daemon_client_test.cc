// The shared daemon-client module: the /metrics exposition validator
// against a table of malformed bodies, the span-tree validator against
// hand-built trees, port-file reads, the launcher's fail-fast connect,
// and the oracle replay pinned to a known transcript and to the
// in-process service.

#include "service/daemon_client.h"

#include <gtest/gtest.h>

#include <signal.h>

#include <chrono>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "service/session_manager.h"
#include "util/json.h"
#include "util/net.h"
#include "service_test_util.h"

namespace kbrepair {
namespace {

// --- ParseExposition -------------------------------------------------------

TEST(ParseExpositionTest, AcceptsWellFormedBody) {
  const std::string body =
      "# HELP kbrepair_up Liveness.\n"
      "# TYPE kbrepair_up gauge\n"
      "kbrepair_up 1\n"
      "kbrepair_turn_delay_seconds_bucket{le=\"0.5\"} 3\n"
      "kbrepair_turn_delay_seconds_bucket{le=\"+Inf\"} 4\n"
      "kbrepair:ratio 0.25\n";
  std::map<std::string, double> series;
  ASSERT_EQ(ParseExposition(body, &series), "");
  EXPECT_EQ(series.size(), 4u);
  EXPECT_EQ(series.at("kbrepair_up"), 1);
  EXPECT_EQ(series.at("kbrepair_turn_delay_seconds_bucket{le=\"+Inf\"}"), 4);
  EXPECT_EQ(series.at("kbrepair:ratio"), 0.25);
}

TEST(ParseExpositionTest, RejectsEveryMalformedForm) {
  const struct {
    const char* what;
    const char* body;
  } kMalformed[] = {
      {"empty body", ""},
      {"blank line", "a 1\n\nb 2\n"},
      {"leading-digit name", "1abc 1\n"},
      {"empty name", "{le=\"1\"} 1\n"},
      {"bad name character", "a-b 1\n"},
      {"missing trailing newline", "a 1\nb 2"},
      {"unbalanced labels", "a{le=\"1\" 1\n"},
      {"duplicate series", "a{x=\"1\"} 1\na{x=\"1\"} 2\n"},
      {"non-numeric value", "a one\n"},
      {"trailing junk after value", "a 1x\n"},
      {"no value", "a\n"},
      {"unknown comment", "# EOF\n"},
      {"comment without space", "#HELP a x\n"},
  };
  for (const auto& c : kMalformed) {
    std::map<std::string, double> series;
    EXPECT_NE(ParseExposition(c.body, &series), "") << c.what;
  }
}

// --- ValidateSpanTree ------------------------------------------------------

JsonValue Span(int64_t id, int64_t parent, const std::string& name,
               int64_t start_us, int64_t dur_us,
               const std::string& detail = "") {
  JsonValue span = JsonValue::Object();
  span.Set("id", JsonValue::Number(id));
  span.Set("parent", JsonValue::Number(parent));
  span.Set("name", JsonValue::String(name));
  span.Set("start_us", JsonValue::Number(start_us));
  span.Set("dur_us", JsonValue::Number(dur_us));
  if (!detail.empty()) span.Set("detail", JsonValue::String(detail));
  return span;
}

// One create/ask/answer/close round trip, in creation order.
std::vector<JsonValue> SoundTree() {
  return {
      Span(1, 0, "rpc.create", 0, 100),
      Span(2, 0, "rpc.ask", 200, 100),
      Span(3, 2, "session.ask", 210, 80, "session=s-1 step=1"),
      Span(4, 3, "inquiry.next_question", 220, 60),
      Span(5, 4, "chase.saturate", 230, 10),
      Span(6, 0, "rpc.answer", 400, 100),
      Span(7, 6, "session.answer", 410, 80, "session=s-1 step=1"),
      Span(8, 7, "wal.append", 420, 10),
      Span(9, 0, "rpc.close", 600, 50),
      Span(10, 9, "session.close", 610, 30),
  };
}

JsonValue ToArray(const std::vector<JsonValue>& spans) {
  JsonValue array = JsonValue::Array();
  for (const JsonValue& span : spans) array.Append(span);
  return array;
}

TEST(ValidateSpanTreeTest, AcceptsSoundTreeInAnyOrder) {
  std::vector<JsonValue> spans = SoundTree();
  std::vector<SpanInfo> by_id;
  ASSERT_EQ(ValidateSpanTree(ToArray(spans), /*expect_wal=*/true, &by_id),
            "");
  ASSERT_EQ(by_id.size(), spans.size());
  EXPECT_EQ(by_id.front().name, "rpc.create");
  // Drains are not id-ordered; the validator sorts.
  std::swap(spans.front(), spans.back());
  by_id.clear();
  ASSERT_EQ(ValidateSpanTree(ToArray(spans), true, &by_id), "");
  EXPECT_EQ(by_id.front().name, "rpc.create");
  EXPECT_EQ(by_id.back().name, "session.close");
}

TEST(ValidateSpanTreeTest, AParentStillOpenAtDrainIsLegal) {
  std::vector<JsonValue> spans = SoundTree();
  spans.erase(spans.begin() + 1);  // rpc.ask, parent of session.ask
  spans.push_back(Span(11, 0, "rpc.ask", 900, 10));
  EXPECT_EQ(ValidateSpanTree(ToArray(spans), true), "");
}

TEST(ValidateSpanTreeTest, RejectsEveryBrokenTree) {
  const struct {
    const char* what;
    size_t index;  // span in SoundTree() to replace
    JsonValue replacement;
  } kBroken[] = {
      {"zero id", 0, Span(0, 0, "rpc.create", 0, 100)},
      {"negative parent", 0, Span(1, -1, "rpc.create", 0, 100)},
      {"empty name", 0, Span(1, 0, "", 0, 100)},
      {"negative start", 0, Span(1, 0, "rpc.create", -1, 100)},
      {"duplicate id", 1, Span(1, 0, "rpc.ask", 200, 100)},
      {"parent id not smaller", 2, Span(3, 3, "session.ask", 210, 80,
                                        "session=s-1 step=1")},
      {"child starts before parent", 3,
       Span(4, 3, "inquiry.next_question", 200, 60)},
      {"child ends after parent", 3,
       Span(4, 3, "inquiry.next_question", 220, 200)},
      {"missing step annotation", 6,
       Span(7, 6, "session.answer", 410, 80, "session=s-1")},
      {"step goes backwards", 2,
       Span(3, 2, "session.ask", 210, 80, "session=s-1 step=2")},
      {"required span missing", 9, Span(10, 9, "session.other", 610, 30)},
      {"no chase span", 4, Span(5, 4, "repair.scan", 230, 10)},
      {"no wal span", 7, Span(8, 7, "repair.apply", 420, 10)},
  };
  for (const auto& c : kBroken) {
    std::vector<JsonValue> spans = SoundTree();
    spans[c.index] = c.replacement;
    EXPECT_NE(ValidateSpanTree(ToArray(spans), /*expect_wal=*/true), "")
        << c.what;
  }
  EXPECT_NE(ValidateSpanTree(JsonValue::Array(), false), "") << "no spans";
}

TEST(ValidateSpanTreeTest, StepsAreCheckedPerSession) {
  std::vector<JsonValue> spans = SoundTree();
  spans.push_back(Span(11, 0, "rpc.ask", 700, 50));
  spans.push_back(Span(12, 11, "session.ask", 710, 30, "session=s-1 step=3"));
  spans.push_back(Span(13, 0, "rpc.ask", 800, 50));
  // Another session's lower step does not count against s-1.
  spans.push_back(Span(14, 13, "session.ask", 810, 30, "session=s-2 step=1"));
  EXPECT_EQ(ValidateSpanTree(ToArray(spans), true), "");
  spans.push_back(Span(15, 0, "rpc.ask", 900, 50));
  spans.push_back(Span(16, 15, "session.ask", 910, 30, "session=s-1 step=2"));
  EXPECT_NE(ValidateSpanTree(ToArray(spans), true), "");
}

// --- ReadPortFile ----------------------------------------------------------

TEST(ReadPortFileTest, AbsentEmptyAndPartialFilesReadAsZero) {
  TempDir dir;
  const std::string path = dir.path + "/port";
  EXPECT_EQ(ReadPortFile(path), 0) << "absent";
  const auto write = [&](const std::string& contents) {
    std::ofstream(path, std::ios::trunc) << contents;
  };
  write("");
  EXPECT_EQ(ReadPortFile(path), 0) << "empty (mkstemp placeholder)";
  write("\n");
  EXPECT_EQ(ReadPortFile(path), 0) << "newline only";
  write("port");
  EXPECT_EQ(ReadPortFile(path), 0) << "not a number";
  write("0\n");
  EXPECT_EQ(ReadPortFile(path), 0) << "port 0 is unbound";
  write("-7\n");
  EXPECT_EQ(ReadPortFile(path), 0) << "negative";
  write("70000\n");
  EXPECT_EQ(ReadPortFile(path), 0) << "out of range";
  write("4242\n");
  EXPECT_EQ(ReadPortFile(path), 4242);
  write("4242");
  EXPECT_EQ(ReadPortFile(path), 4242) << "no trailing newline";
}

// --- DaemonProcess + ConnectWithRetry --------------------------------------

TEST(DaemonProcessTest, ConnectFailsFastWhenTheProcessExits) {
  DaemonProcess process;
  ASSERT_TRUE(process.Start({"/bin/sh", "-c", "exit 3"},
                            DaemonProcess::Stdio::kDetached));
  const auto start = std::chrono::steady_clock::now();
  StatusOr<int> fd = ConnectWithRetry(
      [] { return StatusOr<int>(Status::Unavailable("no listener")); },
      &process, /*attempts=*/6000);
  ASSERT_FALSE(fd.ok());
  EXPECT_EQ(fd.status().code(), StatusCode::kInternal) << fd.status();
  // Without the exit check the 6000 attempts would take a minute.
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::seconds(30));
  EXPECT_TRUE(process.Exited());
  EXPECT_EQ(process.CloseAndWait(), 3);
}

TEST(DaemonProcessTest, ExecFailureExitsWith127) {
  DaemonProcess process;
  ASSERT_TRUE(process.Start({"/nonexistent/kbrepaird"},
                            DaemonProcess::Stdio::kPiped));
  EXPECT_EQ(process.CloseAndWait(), 127);
}

// --- ReplayRandomDialogue --------------------------------------------------

// The repair of the 30-fact synthetic KB (kb_seed 7) under the random
// user with seed 7, recorded when the oracle was factored out of its
// callers. A change here is a change to the paper's inquiry or to the
// synthetic generator, not to the oracle.
TEST(ReplayRandomDialogueTest, MatchesKnownTranscript) {
  StatusOr<std::vector<std::string>> facts =
      ReplayRandomDialogue(SyntheticCreate(7), 7);
  ASSERT_TRUE(facts.ok()) << facts.status();
  const std::vector<std::string> kExpected = {
      "p0_0(_N54,_N23,p_c5,p_c6)", "p0_0(p_c1,p_c7,p_c8,p_c9)",
      "p0_1(p_c2,p_c1)", "p0_2(p_c10,p_c2,_N72,_N83)", "p0_3(_N20,p_c3)",
      "p0_3(_N20,p_c3)", "p1_0(_N46,p_c16,p_c17)", "p1_1(p_c15,p_c14)",
      "p1_2(p_c18,_N7,p_c20,p_c15)", "p1_2(p_c21,p_c22,p_c23,p_c15)",
      "p_pad0(p_c24,p_c25)", "p3_1(p_c26,p_c27,p_c28)", "p_pad1(p_c29,p_c30)",
      "p0_2(p_c31,p_c32,p_c33,p_c34)", "p1_0(p_c35,p_c36,p_c37)",
      "p4_1(p_c38,p_c39)", "p_pad2(p_c40,p_c41)",
      "p1_2(p_c42,p_c43,p_c44,p_c45)", "p4_0(p_c46,p_c47,p_c48)",
      "p_pad3(p_c49,p_c50)", "p_pad4(p_c51,p_c52)", "p_pad5(p_c53,p_c54)",
      "p_pad6(p_c55,p_c56)", "p2_0(p_c57,p_c58,p_c59)",
      "p1_0(p_c60,p_c61,p_c62)", "p_pad7(p_c63,p_c64)", "p_pad8(p_c65,p_c66)",
      "p_pad9(p_c67,p_c68)", "p2_1(p_c69,p_c70)", "p3_0(p_c71,p_c72)",
  };
  EXPECT_EQ(*facts, kExpected);
}

// The oracle and the service run the same dialogue: the session's close
// returns exactly the replayed facts.
TEST(ReplayRandomDialogueTest, AgreesWithTheInProcessService) {
  ServiceConfig config;
  config.num_workers = 1;
  SessionManager manager(config);
  for (const uint64_t seed : {7u, 8u, 9u}) {
    const JsonValue create = SyntheticCreate(seed);
    StatusOr<size_t> answered = DriveRandomDialogue(
        [&](JsonValue params) {
          return manager.Execute(MakeRequest(std::move(params)));
        },
        create, create, seed);
    EXPECT_TRUE(answered.ok()) << "seed " << seed << ": " << answered.status();
  }
}

#ifdef KBREPAIRD_PATH
// --- ServerConnection ------------------------------------------------------

// Concurrent dialogues pipelined over one connection: the reader thread
// must hand every response to its caller, on pipes and on a socket.
void ExpectConcurrentDialoguesMatchOracle(ServerConnection& conn) {
  constexpr uint64_t kSeeds[] = {11, 12, 13, 14, 15, 16};
  std::vector<Status> outcomes(std::size(kSeeds), Status::Ok());
  std::vector<std::thread> threads;
  for (size_t i = 0; i < std::size(kSeeds); ++i) {
    threads.emplace_back([&, i] {
      const JsonValue create = SyntheticCreate(kSeeds[i]);
      outcomes[i] = DriveRandomDialogue(
                        [&](JsonValue request) {
                          return conn.Call(std::move(request));
                        },
                        create, create, kSeeds[i])
                        .status();
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (size_t i = 0; i < std::size(kSeeds); ++i) {
    EXPECT_TRUE(outcomes[i].ok()) << "seed " << kSeeds[i] << ": "
                                  << outcomes[i];
  }
  EXPECT_EQ(conn.garbled_lines(), 0u);
  EXPECT_TRUE(conn.UnansweredIds().empty());
}

TEST(ServerConnectionTest, PipelinedDialoguesOverPipes) {
  DaemonProcess daemon;
  ASSERT_TRUE(daemon.Start({KBREPAIRD_PATH, "--workers", "2"},
                           DaemonProcess::Stdio::kPiped));
  ServerConnection conn(daemon);
  ExpectConcurrentDialoguesMatchOracle(conn);
  conn.Shutdown();
  EXPECT_TRUE(conn.closed());
  EXPECT_EQ(daemon.CloseAndWait(), 0);
}

TEST(ServerConnectionTest, PipelinedDialoguesOverUnixSocket) {
  TempDir dir;
  const std::string sock_path = dir.path + "/sock";
  DaemonProcess daemon;
  ASSERT_TRUE(daemon.Start({KBREPAIRD_PATH, "--workers", "2", "--shards",
                            "2", "--listen-unix", sock_path},
                           DaemonProcess::Stdio::kDetached));
  StatusOr<int> fd = ConnectWithRetry(
      [&] { return net::ConnectUnix(sock_path); }, &daemon);
  ASSERT_TRUE(fd.ok()) << fd.status();
  ServerConnection conn(*fd);
  ExpectConcurrentDialoguesMatchOracle(conn);
  conn.Shutdown();
  EXPECT_EQ(daemon.Terminate(), 0);
}

TEST(ServerConnectionTest, DaemonCrashFailsLaterCallsAsUnavailable) {
  // As DaemonProcess asks of its callers: with SIGPIPE ignored, a write
  // to the dead daemon fails with EPIPE instead of killing the test.
  ::signal(SIGPIPE, SIG_IGN);
  DaemonProcess daemon;
  ASSERT_TRUE(daemon.Start({KBREPAIRD_PATH, "--workers", "1"},
                           DaemonProcess::Stdio::kPiped));
  ServerConnection conn(daemon);
  ASSERT_TRUE(conn.Call(SyntheticCreate(3)).ok());
  daemon.Kill9();
  StatusOr<JsonValue> after = conn.Call(SyntheticCreate(4));
  EXPECT_FALSE(after.ok());
  EXPECT_EQ(after.status().code(), StatusCode::kUnavailable);
  EXPECT_TRUE(conn.closed());
}
#endif  // KBREPAIRD_PATH

}  // namespace
}  // namespace kbrepair
