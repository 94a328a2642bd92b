// Socket transport differential: dialogues over the daemon's socket
// listener must be byte-identical to the same dialogues over stdio.
//
// Spawns the real kbrepaird twice — once on stdin/stdout pipes, once
// with --listen-unix and --shards 2 — and replays the same scripted
// repair dialogue for every strategy x engine cell, with the same
// request ids. The recorded response transcripts must match byte for
// byte (the close response is compared through a fingerprint that
// drops its wall-clock timing fields, which legitimately differ).
// One cell is additionally replayed with every request dribbled one
// byte at a time, proving reassembly does not change a single byte.

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "service/daemon_client.h"
#include "service/net/framer.h"
#include "util/json.h"
#include "util/net.h"
#include "util/rng.h"
#include "util/status.h"
#include "service_test_util.h"

namespace kbrepair {
namespace {

#ifdef KBREPAIRD_PATH

// ------------------------------------------------------------------
// A synchronous line channel over any (read fd, write fd) pair —
// daemon pipes or a connected socket, owned and closed by the channel —
// with optional write fragmentation to exercise reassembly.

class LineChannel {
 public:
  LineChannel(int read_fd, int write_fd, size_t write_chunk = 0)
      : read_fd_(read_fd), write_fd_(write_fd), write_chunk_(write_chunk) {}
  explicit LineChannel(std::pair<int, int> pipes)
      : LineChannel(pipes.first, pipes.second) {}
  ~LineChannel() {
    ::close(read_fd_);
    if (write_fd_ != read_fd_) ::close(write_fd_);
  }
  LineChannel(const LineChannel&) = delete;
  LineChannel& operator=(const LineChannel&) = delete;

  Status WriteLine(const std::string& line) {
    const std::string framed = line + "\n";
    const size_t chunk =
        write_chunk_ == 0 ? framed.size() : write_chunk_;
    for (size_t off = 0; off < framed.size();) {
      const size_t want = std::min(chunk, framed.size() - off);
      const ssize_t n = ::write(write_fd_, framed.data() + off, want);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) {
        return Status::Unavailable("write failed: " +
                                   std::string(std::strerror(errno)));
      }
      off += static_cast<size_t>(n);
      if (write_chunk_ != 0) {
        // A short pause between fragments defeats kernel coalescing so
        // the server genuinely observes partial lines.
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
    }
    return Status::Ok();
  }

  StatusOr<std::string> ReadLine() {
    for (;;) {
      if (!queued_.empty()) {
        std::string line = std::move(queued_.front());
        queued_.erase(queued_.begin());
        return line;
      }
      char chunk[4096];
      const ssize_t n = ::read(read_fd_, chunk, sizeof chunk);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return Status::Unavailable("channel closed");
      if (!framer_.Feed(chunk, static_cast<size_t>(n), &queued_)) {
        return Status::Internal("oversized response line");
      }
    }
  }

 private:
  int read_fd_;
  int write_fd_;
  size_t write_chunk_;  // 0 = whole lines; N = N-byte fragments
  net::LineFramer framer_{1 << 20};
  std::vector<std::string> queued_;
};

// ------------------------------------------------------------------
// The scripted dialogue, recorded as a transcript.

// Drives one strategy x engine cell over `channel`, issuing request ids
// "<tag>-<n>", and appends every raw response line (close responses as
// fingerprints) to the returned transcript.
StatusOr<std::vector<std::string>> DriveCell(LineChannel& channel,
                                             const std::string& tag,
                                             uint64_t seed,
                                             const std::string& strategy,
                                             const std::string& engine) {
  std::vector<std::string> transcript;
  uint64_t next_id = 0;
  const auto call =
      [&](JsonValue params, bool is_close) -> StatusOr<JsonValue> {
    const std::string id = tag + "-" + std::to_string(next_id++);
    params.Set("id", JsonValue::String(id));
    KBREPAIR_RETURN_IF_ERROR(channel.WriteLine(params.Dump()));
    KBREPAIR_ASSIGN_OR_RETURN(std::string line, channel.ReadLine());
    KBREPAIR_ASSIGN_OR_RETURN(JsonValue response, JsonValue::Parse(line));
    if (response.Get("id").AsString() != id) {
      return Status::Internal("response id mismatch on " + id);
    }
    if (is_close) {
      // Keep the envelope but only the deterministic part of the result.
      JsonValue stable = response;
      stable.Set("result",
                 JsonValue::String(CloseFingerprint(response.Get("result"))));
      line = stable.Dump();
    }
    transcript.push_back(std::move(line));
    if (!response.Get("ok").AsBool(false)) {
      return Status::Internal(
          "server error: " +
          response.Get("error").Get("message").AsString());
    }
    return response.Get("result");
  };

  KBREPAIR_ASSIGN_OR_RETURN(
      JsonValue created,
      call(SyntheticCreate(seed, 30, strategy, engine), false));
  const std::string session = created.Get("session").AsString();
  if (session.empty()) return Status::Internal("create returned no session");

  Rng rng(seed);
  for (size_t turns = 0;; ++turns) {
    if (turns > 1000) return Status::Internal("dialogue does not converge");
    JsonValue ask = JsonValue::Object();
    ask.Set("command", JsonValue::String("ask"));
    ask.Set("session", JsonValue::String(session));
    KBREPAIR_ASSIGN_OR_RETURN(JsonValue asked, call(std::move(ask), false));
    if (asked.Get("done").AsBool(false)) break;
    const int64_t num_fixes = asked.Get("question").Get("num_fixes").AsInt(0);
    if (num_fixes <= 0) return Status::Internal("question with no fixes");
    const int64_t choice = static_cast<int64_t>(
        rng.UniformIndex(static_cast<size_t>(num_fixes)));
    KBREPAIR_RETURN_IF_ERROR(
        call(AnswerCommand(session, choice).params, false).status());
  }

  JsonValue close = JsonValue::Object();
  close.Set("command", JsonValue::String("close"));
  close.Set("session", JsonValue::String(session));
  close.Set("include_facts", JsonValue::Bool(true));
  KBREPAIR_RETURN_IF_ERROR(call(std::move(close), true).status());
  return transcript;
}

struct Cell {
  std::string strategy;
  std::string engine;
};

std::vector<Cell> FullMatrix() {
  std::vector<Cell> cells;
  for (const char* strategy :
       {"random", "opti-join", "opti-prop", "opti-mcd", "opti-learn"}) {
    for (const char* engine : {"scratch", "incremental"}) {
      cells.push_back({strategy, engine});
    }
  }
  return cells;
}

std::string CellTag(size_t index) { return "c" + std::to_string(index); }

TEST(SocketTransportTest, DialoguesByteIdenticalToStdioAcrossMatrix) {
  const std::vector<Cell> cells = FullMatrix();
  const uint64_t seed = 20180326;

  // Reference: every cell over the stdio daemon, sequentially on its
  // single pipe pair.
  std::vector<std::vector<std::string>> stdio_transcripts;
  {
    DaemonProcess daemon;
    ASSERT_TRUE(daemon.Start({KBREPAIRD_PATH, "--workers", "2"},
                             DaemonProcess::Stdio::kPiped));
    {
      LineChannel channel(daemon.ReleasePipes());
      for (size_t i = 0; i < cells.size(); ++i) {
        SCOPED_TRACE(cells[i].strategy + "/" + cells[i].engine);
        StatusOr<std::vector<std::string>> transcript =
            DriveCell(channel, CellTag(i), seed + i,
                      cells[i].strategy, cells[i].engine);
        ASSERT_TRUE(transcript.ok()) << transcript.status();
        stdio_transcripts.push_back(std::move(transcript).value());
      }
    }  // closing the pipes is the daemon's EOF
    EXPECT_EQ(daemon.CloseAndWait(), 0);
  }

  // Candidate: the same cells over a sharded socket daemon, spread
  // round-robin across three concurrent connections. Sequential cell
  // execution keeps the front-end's session-id sequence identical to
  // the stdio run's, so even the create responses must match.
  char sock_tmpl[] = "/tmp/kbrepair_sock_test_XXXXXX";
  {
    const int fd = ::mkstemp(sock_tmpl);
    ASSERT_GE(fd, 0);
    ::close(fd);
  }
  const std::string sock_path = sock_tmpl;
  DaemonProcess daemon;
  ASSERT_TRUE(daemon.Start({KBREPAIRD_PATH, "--workers", "2", "--shards",
                            "2", "--listen-unix", sock_path},
                           DaemonProcess::Stdio::kDetached));
  const auto connect = [&] {
    return ConnectWithRetry([&] { return net::ConnectUnix(sock_path); },
                            &daemon);
  };
  std::vector<std::unique_ptr<LineChannel>> channels;
  for (int i = 0; i < 3; ++i) {
    StatusOr<int> fd = connect();
    ASSERT_TRUE(fd.ok()) << fd.status();
    channels.push_back(std::make_unique<LineChannel>(*fd, *fd));
  }
  for (size_t i = 0; i < cells.size(); ++i) {
    SCOPED_TRACE(cells[i].strategy + "/" + cells[i].engine + " over socket");
    StatusOr<std::vector<std::string>> transcript =
        DriveCell(*channels[i % channels.size()], CellTag(i),
                  seed + i, cells[i].strategy, cells[i].engine);
    ASSERT_TRUE(transcript.ok()) << transcript.status();
    EXPECT_EQ(*transcript, stdio_transcripts[i])
        << "socket transcript diverged from stdio";
  }

  // Rider: replay cell 0 with every request dribbled one byte at a
  // time. Reassembly must not change a single response byte. (A fresh
  // session id is expected — the daemon numbers it after the matrix —
  // so compare from the first ask onward and check lengths match.)
  {
    StatusOr<int> fd = connect();
    ASSERT_TRUE(fd.ok()) << fd.status();
    LineChannel dribble(*fd, *fd, /*write_chunk=*/1);
    StatusOr<std::vector<std::string>> transcript = DriveCell(
        dribble, CellTag(0), seed, cells[0].strategy,
        cells[0].engine);
    ASSERT_TRUE(transcript.ok()) << transcript.status();
    ASSERT_EQ(transcript->size(), stdio_transcripts[0].size());
    const std::string fresh_id =
        JsonValue::Parse(transcript->front())->Get("result")
            .Get("session").AsString();
    const std::string ref_id =
        JsonValue::Parse(stdio_transcripts[0].front())->Get("result")
            .Get("session").AsString();
    for (size_t i = 0; i < transcript->size(); ++i) {
      std::string got = (*transcript)[i];
      // Map the fresh session id back onto the reference's.
      for (size_t pos = 0; (pos = got.find(fresh_id, pos)) !=
                           std::string::npos;
           pos += ref_id.size()) {
        got.replace(pos, fresh_id.size(), ref_id);
      }
      EXPECT_EQ(got, stdio_transcripts[0][i]) << "line " << i;
    }
  }

  channels.clear();
  EXPECT_EQ(daemon.Terminate(), 0);
  ::unlink(sock_path.c_str());
}

TEST(SocketTransportTest, ConcurrentConnectionsGetDistinctSessions) {
  char sock_tmpl[] = "/tmp/kbrepair_sock_conc_XXXXXX";
  {
    const int fd = ::mkstemp(sock_tmpl);
    ASSERT_GE(fd, 0);
    ::close(fd);
  }
  const std::string sock_path = sock_tmpl;
  DaemonProcess daemon;
  ASSERT_TRUE(daemon.Start({KBREPAIRD_PATH, "--workers", "2", "--shards",
                            "4", "--listen-unix", sock_path},
                           DaemonProcess::Stdio::kDetached));

  constexpr size_t kThreads = 6;
  std::vector<std::thread> threads;
  std::mutex mu;
  std::set<std::string> ids;
  std::atomic<int> failures{0};
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // No exit check from these threads: Exited() reaps, and only
      // the main thread may do that.
      StatusOr<int> fd = ConnectWithRetry(
          [&] { return net::ConnectUnix(sock_path); }, /*daemon=*/nullptr);
      if (!fd.ok()) {
        ++failures;
        return;
      }
      LineChannel channel(*fd, *fd);
      JsonValue create = SyntheticCreate(500 + t);
      create.Set("id", JsonValue::String("t" + std::to_string(t)));
      if (!channel.WriteLine(create.Dump()).ok()) {
        ++failures;
        return;
      }
      StatusOr<std::string> line = channel.ReadLine();
      if (!line.ok()) {
        ++failures;
        return;
      }
      StatusOr<JsonValue> response = JsonValue::Parse(*line);
      const std::string session =
          response.ok()
              ? response->Get("result").Get("session").AsString()
              : "";
      if (session.empty()) {
        ++failures;
      } else {
        std::lock_guard<std::mutex> lock(mu);
        ids.insert(session);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(ids.size(), kThreads)
      << "concurrent creates collided on a session id";
  EXPECT_EQ(daemon.Terminate(), 0);
  ::unlink(sock_path.c_str());
}

#else
TEST(SocketTransportTest, RequiresDaemonBinary) {
  GTEST_SKIP() << "KBREPAIRD_PATH not defined";
}
#endif  // KBREPAIRD_PATH

}  // namespace
}  // namespace kbrepair
