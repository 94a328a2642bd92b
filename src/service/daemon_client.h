// Client-side support for driving a kbrepaird process from another
// process: launching it, connecting to its listeners, the pipelined
// JSON-lines connection, the HTTP request code for its observability
// endpoints, validators for what /metrics and the `trace` command
// return, the in-process oracle every service dialogue is compared
// against byte for byte, and the scripted random user that drives one.
//
// Linked by kbrepair-client, bench/load_gen, bench/chaos_soak and the
// service tests. The daemon itself does not link it.

#ifndef KBREPAIR_SERVICE_DAEMON_CLIENT_H_
#define KBREPAIR_SERVICE_DAEMON_CLIENT_H_

#include <sys/types.h>

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "util/json.h"
#include "util/rng.h"
#include "util/status.h"

namespace kbrepair {

// ------------------------------------------------------------------
// The daemon process.

// One forked and exec'd kbrepaird (or any program: args[0] is the
// binary path). Killed with SIGKILL and reaped on destruction if still
// running. Callers that write to a daemon that may die should ignore
// SIGPIPE so the loss surfaces as EPIPE instead of killing them.
class DaemonProcess {
 public:
  enum class Stdio {
    // stdin/stdout are pipes to this process: the stdio transport.
    kPiped,
    // stdin is /dev/null, stdout/stderr are inherited: socket-mode
    // daemons ignore stdin and stop on SIGTERM.
    kDetached,
  };

  DaemonProcess() = default;
  DaemonProcess(const DaemonProcess&) = delete;
  DaemonProcess& operator=(const DaemonProcess&) = delete;
  ~DaemonProcess();

  // Forks and execs args[0] with `args`. False if the pipes or the fork
  // failed; an exec failure shows up as exit code 127. The previous
  // process, if any, must have been reaped.
  bool Start(const std::vector<std::string>& args, Stdio stdio);

  // kPiped only: hands the pipe ends over to the caller (normally a
  // ServerConnection), which owns them from then on. Returns
  // {read end of the daemon's stdout, write end of its stdin}.
  std::pair<int, int> ReleasePipes();

  // Closes any pipe ends still held (EOF on stdin starts the daemon's
  // graceful shutdown) and waits. Returns the exit code, or -1 if the
  // process did not exit normally.
  int CloseAndWait();
  // SIGTERM, then CloseAndWait().
  int Terminate();
  // SIGKILL and reap: a crash with no drain and no flush.
  void Kill9();
  // True once the process is gone (reaping it without blocking) or was
  // never started.
  bool Exited();

 private:
  void ClosePipes();

  pid_t pid_ = -1;
  int exit_code_ = -1;
  int from_daemon_ = -1;
  int to_daemon_ = -1;
};

// First integer in a daemon-written port file, or 0 while the file is
// absent, empty, partial or out of the 1..65535 range.
int ReadPortFile(const std::string& path);

// A freshly spawned daemon needs a moment to bind its listener: calls
// `connect_once` every 10 ms, up to `attempts` times, and returns the
// first connected fd. Fails fast with Internal if `daemon` (may be
// null) exits first.
StatusOr<int> ConnectWithRetry(
    const std::function<StatusOr<int>()>& connect_once, DaemonProcess* daemon,
    int attempts = 1000);

// ------------------------------------------------------------------
// The JSON-lines connection.

// A pipelined connection to a kbrepaird: either the stdin/stdout pipes
// of a piped DaemonProcess or a connected socket (Unix-domain or TCP).
// Many threads issue Call()s concurrently; a reader thread demuxes the
// out-of-order responses by correlation id.
class ServerConnection {
 public:
  // Takes over the pipes of a started kPiped daemon.
  explicit ServerConnection(DaemonProcess& daemon);
  // Takes ownership of a connected stream socket.
  explicit ServerConnection(int socket_fd);
  ServerConnection(const ServerConnection&) = delete;
  ServerConnection& operator=(const ServerConnection&) = delete;
  ~ServerConnection() { Shutdown(); }

  // Sends `request` (stamping a fresh "id") and blocks for its response
  // envelope; returns its "result". Unavailable, DeadlineExceeded and
  // ResourceExhausted mean the server never executed the command, so
  // those are retried with the SAME correlation id under full-jitter
  // exponential backoff — sleep uniform in [0, base << attempt] rather
  // than the cap itself, so the many sessions that hit a momentarily
  // saturated daemon together do not come back as one synchronized
  // thundering herd; everything else is final. ResourceExhausted
  // (degraded disk, memory pressure) backs off 4x harder: the server is
  // waiting on resources, not a scheduling blip.
  StatusOr<JsonValue> Call(JsonValue request);

  // Reseeds the retry-backoff jitter so fault drills replay identical
  // sleep sequences. Call before issuing requests.
  void SeedBackoff(uint64_t seed);

  // Correlation ids written to the server but never answered — the
  // in-doubt commands after a crash or hangup.
  std::vector<std::string> UnansweredIds();

  bool closed();
  uint64_t retries() const { return retries_.load(std::memory_order_relaxed); }
  uint64_t garbled_lines() const {
    return garbled_.load(std::memory_order_relaxed);
  }

  // Announces end-of-requests and drains. Pipes: closes the server's
  // stdin (EOF triggers its graceful shutdown). Sockets: half-closes
  // with SHUT_WR — the daemon answers everything in flight and closes
  // its end. Either way the reader runs to EOF and the fds are closed.
  // Idempotent; the daemon process itself is the caller's to reap.
  void Shutdown();

 private:
  void StartReader(int read_fd, int write_fd);
  StatusOr<JsonValue> CallOnce(const std::string& id, const std::string& line);
  void ReaderLoop();
  void HandleLine(const std::string& line);

  bool socket_ = false;  // read_fd_ == write_fd_ == a connected socket
  int write_fd_ = -1;
  int read_fd_ = -1;
  std::mutex write_mu_;
  std::thread reader_;
  std::atomic<uint64_t> next_id_{1};
  std::atomic<uint64_t> garbled_{0};
  std::atomic<uint64_t> retries_{0};
  // Full-jitter draws for retry backoff. Seeded from entropy, not the
  // workload seed: jitter exists to decorrelate concurrent retriers,
  // and it never influences a repair outcome.
  std::mutex backoff_mu_;
  Rng backoff_rng_{std::random_device{}()};
  std::mutex mu_;
  std::condition_variable cv_;
  std::map<std::string, JsonValue> responses_;
  std::set<std::string> pending_;  // written, not yet answered
  bool closed_ = false;
};

// ------------------------------------------------------------------
// HTTP (the daemon's observability exporter).

struct HttpResponse {
  int status = 0;
  std::string head;  // status line and headers
  std::string body;
};

// Sends `raw` verbatim over a fresh TCP connection to host:port and
// reads to EOF (the exporter closes after each response). Unavailable
// when the connection fails or closes before an "HTTP/1.1 " status line
// and a head/body split arrive. HttpGet asks for "Connection: close".
StatusOr<HttpResponse> HttpExchange(const std::string& host, int port,
                                    const std::string& raw);
StatusOr<HttpResponse> HttpGet(const std::string& host, int port,
                               const std::string& path);

// ------------------------------------------------------------------
// Validators.

// Strict line-by-line Prometheus 0.0.4 text-format parse, as a strict
// scraper enforces it: a non-empty body ending in a newline, no blank
// lines, only "# HELP " / "# TYPE " comments, metric names matching
// [a-zA-Z_:][a-zA-Z0-9_:]*, balanced label braces, a fully consumed
// numeric value, no duplicate series. Fills `series` (full
// "name{labels}" key -> value) and returns "" or a description of the
// first offending line.
std::string ParseExposition(const std::string& body,
                            std::map<std::string, double>* series);

struct SpanInfo {
  uint64_t id = 0;
  uint64_t parent = 0;
  std::string name;
  std::string detail;
  int64_t start_us = 0;
  int64_t dur_us = 0;
};

// Validates a drained span array (the `trace` response's "spans", or
// the sink file's lines). Returns "" when the tree is sound, else the
// first failure; on success `spans_by_id` (may be null) receives the
// spans in id (creation) order. Checked:
//  * every span has an id, a name and non-negative parent/start/dur;
//  * ids are unique; a parent id is always smaller than its child's
//    (spans are numbered in creation order). A parent missing from the
//    drain is legal — it was still open when the buffer was drained;
//  * a child's [start, end] nests inside its parent's (1us truncation
//    slop);
//  * the request path is covered: scheduler (rpc.*), session handlers,
//    inquiry, chase, and — with `expect_wal` — the wal.append leaf;
//  * every session.ask / session.answer span carries "session=<id>
//    step=<k>" annotations and, per session, steps never go backwards
//    in creation order.
std::string ValidateSpanTree(const JsonValue& spans, bool expect_wal,
                             std::vector<SpanInfo>* spans_by_id = nullptr);

// ------------------------------------------------------------------
// The oracle.

// Replays the paper's inquiry in-process with the random user: the KB
// and options `create_params` describe, answered by Rng(seed) drawing
// UniformIndex(num_fixes) per question (the draw RandomUser makes and
// every scripted driver mirrors). Returns the repaired facts rendered
// as strings, in atom-id order — what `close` with include_facts
// returns for the same dialogue.
StatusOr<std::vector<std::string>> ReplayRandomDialogue(
    const JsonValue& create_params, uint64_t seed);

// Checks a `close` result (with include_facts) against the oracle: the
// session closed consistent and its "facts" equal
// ReplayRandomDialogue(create_params, seed) byte for byte. Internal
// names the first difference.
Status CheckAgainstOracle(const JsonValue& closed,
                          const JsonValue& create_params, uint64_t seed);

// Sends one request object and returns its "result": a
// ServerConnection::Call, or an in-process SessionManager::Execute.
using RequestFn = std::function<StatusOr<JsonValue>(JsonValue)>;

// The scripted random user through `call`: creates a session from
// `create_params`, answers every question with
// Rng(seed).UniformIndex(num_fixes), closes with include_facts and
// checks the close with CheckAgainstOracle(oracle_params, seed). The
// oracle params differ from the create params when the session forks a
// registered base. Returns the number of questions answered.
StatusOr<size_t> DriveRandomDialogue(const RequestFn& call,
                                     const JsonValue& create_params,
                                     const JsonValue& oracle_params,
                                     uint64_t seed);

}  // namespace kbrepair

#endif  // KBREPAIR_SERVICE_DAEMON_CLIENT_H_
