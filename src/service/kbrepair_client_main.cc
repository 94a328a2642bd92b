// kbrepair-client: scripted driver and correctness checker for
// `kbrepaird`.
//
// Runs N concurrent scripted repair sessions against the daemon over
// the JSON-lines protocol. Each driver thread answers every question
// with Rng(seed_i).UniformIndex(num_fixes) — the same draw RandomUser
// makes — so the whole dialogue is deterministic. After closing its
// session (include_facts) the driver replays the identical inquiry
// in-process with a fresh engine and the same seed and demands the
// repaired fact base match byte for byte: concurrency in the service
// must not change any repair.
//
// Transports (--transport):
//   stdio  spawn the daemon and speak over its stdin/stdout pipes
//          (the default; one connection by construction);
//   unix   spawn the daemon with --listen-unix on a temp socket and
//          fan the sessions over --connections socket connections;
//   tcp    same over a loopback TCP listener on an ephemeral port.
// With --connect TARGET the client skips the spawn and drives an
// already-running daemon (TARGET is a socket path or HOST:PORT); the
// spawn-only checks (exit code, metrics ledger balance) are skipped
// because the daemon's history is not ours.
//
// Exit 0 iff every session verified and — when we spawned the daemon —
// the final metrics are coherent (opened == completed == N, active ==
// 0, no errors).
//
// Usage:
//   kbrepair-client [--server PATH] [--sessions N] [--workers N]
//                   [--transport stdio|unix|tcp] [--connections N]
//                   [--connect TARGET] [--shards N]
//                   [--kb NAME] [--strategy NAME] [--seed S] [--quiet]

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <map>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "repair/inquiry.h"
#include "service/protocol.h"
#include "service/session.h"
#include "util/errno_text.h"
#include "util/json.h"
#include "util/net.h"
#include "util/rng.h"
#include "util/status.h"

namespace kbrepair {
namespace {

// ------------------------------------------------------------------
// A pipelined JSON-lines connection to a kbrepaird — either the
// stdin/stdout pipes of a process this connection spawned, or an
// adopted socket fd (Unix-domain or TCP) to a daemon owned elsewhere.
// Many threads issue Call()s concurrently; a reader thread demuxes the
// out-of-order responses by correlation id.
class ServerConnection {
 public:
  // argv must be null-terminated. Returns false if spawning failed.
  bool Spawn(const std::vector<std::string>& args) {
    int to_child[2];
    int from_child[2];
    if (pipe(to_child) != 0 || pipe(from_child) != 0) return false;
    pid_ = fork();
    if (pid_ < 0) return false;
    if (pid_ == 0) {
      dup2(to_child[0], STDIN_FILENO);
      dup2(from_child[1], STDOUT_FILENO);
      close(to_child[0]);
      close(to_child[1]);
      close(from_child[0]);
      close(from_child[1]);
      std::vector<char*> argv;
      argv.reserve(args.size() + 1);
      for (const std::string& arg : args) {
        argv.push_back(const_cast<char*>(arg.c_str()));
      }
      argv.push_back(nullptr);
      execv(argv[0], argv.data());
      std::cerr << "exec " << args[0] << " failed: " << ErrnoText(errno)
                << "\n";
      _exit(127);
    }
    close(to_child[0]);
    close(from_child[1]);
    write_fd_ = to_child[1];
    read_fd_ = from_child[0];
    reader_ = std::thread([this] { ReaderLoop(); });
    return true;
  }

  // Takes ownership of an already-connected stream socket. The daemon
  // process behind it (if we spawned one) is managed by the caller.
  void AdoptSocket(int fd) {
    socket_ = true;
    read_fd_ = fd;
    write_fd_ = fd;
    reader_ = std::thread([this] { ReaderLoop(); });
  }

  // Sends `request` (stamping a fresh "id") and blocks for its response
  // envelope. Unavailable, DeadlineExceeded and ResourceExhausted mean
  // the server never executed the command, so those are retried with
  // the SAME correlation id under full-jitter exponential backoff —
  // sleep uniform in [0, base << attempt] rather than the cap itself,
  // so the many sessions that hit a momentarily saturated daemon
  // together do not come back as one synchronized thundering herd;
  // everything else is final. ResourceExhausted (degraded disk, memory
  // pressure) backs off 4x harder: the server is waiting on resources,
  // not a scheduling blip.
  StatusOr<JsonValue> Call(JsonValue request) {
    const std::string id = "r-" + std::to_string(next_id_.fetch_add(1));
    request.Set("id", JsonValue::String(id));
    const std::string line = request.Dump() + "\n";
    constexpr int kMaxAttempts = 5;
    constexpr int64_t kBackoffBaseMs = 10;
    Status last = Status::Ok();
    for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
      if (attempt > 0) {
        retries_.fetch_add(1, std::memory_order_relaxed);
        int64_t cap_ms = kBackoffBaseMs << (attempt - 1);
        if (last.code() == StatusCode::kResourceExhausted) cap_ms *= 4;
        int64_t sleep_ms;
        {
          // Drawing under a lock is fine here: retries are rare and
          // already on a multi-millisecond path.
          std::lock_guard<std::mutex> lock(backoff_mu_);
          sleep_ms = backoff_rng_.UniformInt(0, cap_ms);
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
      }
      StatusOr<JsonValue> outcome = CallOnce(id, line);
      if (outcome.ok()) return outcome;
      last = outcome.status();
      if (last.code() != StatusCode::kUnavailable &&
          last.code() != StatusCode::kDeadlineExceeded &&
          last.code() != StatusCode::kResourceExhausted) {
        return last;
      }
      // A hung-up server will not come back (we spawned it): stop
      // burning backoff time and let the caller report the loss.
      if (closed()) break;
    }
    return last;
  }

  // Reseeds the retry-backoff jitter (--retry-seed / KBREPAIR_RETRY_SEED)
  // so fault drills replay identical sleep sequences. Call before
  // issuing requests.
  void SeedBackoff(uint64_t seed) {
    std::lock_guard<std::mutex> lock(backoff_mu_);
    backoff_rng_ = Rng(seed);
  }

  // Correlation ids written to the server but never answered — the
  // in-doubt commands after a crash or hangup.
  std::vector<std::string> UnansweredIds() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::vector<std::string>(pending_.begin(), pending_.end());
  }

  bool closed() {
    std::lock_guard<std::mutex> lock(mu_);
    return closed_;
  }

  uint64_t retries() const { return retries_.load(std::memory_order_relaxed); }

  // Announces end-of-requests and drains. Pipes: closes the server's
  // stdin (EOF triggers its graceful shutdown), reaps the child and
  // returns its exit code (or -1). Sockets: half-closes with SHUT_WR —
  // the daemon answers everything in flight, flushes, and closes its
  // end, which ends our reader; returns 0 (the daemon process outlives
  // its connections).
  int ShutdownAndWait() {
    if (socket_) {
      if (write_fd_ >= 0) ::shutdown(write_fd_, SHUT_WR);
      if (reader_.joinable()) reader_.join();
      if (write_fd_ >= 0) {
        close(write_fd_);
        write_fd_ = -1;
        read_fd_ = -1;
      }
      return 0;
    }
    if (write_fd_ >= 0) {
      close(write_fd_);
      write_fd_ = -1;
    }
    if (reader_.joinable()) reader_.join();
    if (read_fd_ >= 0) {
      close(read_fd_);
      read_fd_ = -1;
    }
    if (pid_ <= 0) return -1;
    int wstatus = 0;
    if (waitpid(pid_, &wstatus, 0) != pid_) return -1;
    pid_ = -1;
    return WIFEXITED(wstatus) ? WEXITSTATUS(wstatus) : -1;
  }

  size_t garbled_lines() const {
    return garbled_.load(std::memory_order_relaxed);
  }

 private:
  StatusOr<JsonValue> CallOnce(const std::string& id,
                               const std::string& line) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (closed_) {
        return Status::Unavailable("server connection is closed");
      }
      pending_.insert(id);
    }
    {
      std::lock_guard<std::mutex> lock(write_mu_);
      size_t off = 0;
      while (off < line.size()) {
        ssize_t n = write(write_fd_, line.data() + off, line.size() - off);
        if (n < 0 && errno == EINTR) continue;
        if (n <= 0) {
          const int err = errno;
          std::lock_guard<std::mutex> plock(mu_);
          pending_.erase(id);
          // With SIGPIPE ignored a dead reader surfaces here as EPIPE.
          return err == EPIPE
                     ? Status::Unavailable("server pipe closed (EPIPE)")
                     : Status::Internal("write to server failed: " +
                                        ErrnoText(err));
        }
        off += static_cast<size_t>(n);
      }
    }
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return responses_.count(id) != 0 || closed_; });
    auto it = responses_.find(id);
    if (it == responses_.end()) {
      // EOF with the request written: leave the id in pending_ so the
      // caller can report exactly which commands are in doubt.
      return Status::Unavailable("server closed before answering " + id);
    }
    pending_.erase(id);
    JsonValue response = std::move(it->second);
    responses_.erase(it);
    lock.unlock();
    if (!response.Get("ok").AsBool(false)) {
      const JsonValue& error = response.Get("error");
      const std::string code = error.Get("code").AsString();
      const std::string message = error.Get("message").AsString();
      if (code == "Unavailable") {
        return Status::Unavailable("server error: " + message);
      }
      if (code == "DeadlineExceeded") {
        return Status::DeadlineExceeded("server error: " + message);
      }
      if (code == "ResourceExhausted") {
        return Status::ResourceExhausted("server error: " + message);
      }
      return Status::Internal("server error [" + code + "] " + message);
    }
    return response.Get("result");  // copy; the envelope dies here
  }

  void ReaderLoop() {
    std::string buffer;
    char chunk[4096];
    for (;;) {
      const ssize_t n = read(read_fd_, chunk, sizeof chunk);
      if (n <= 0) break;
      buffer.append(chunk, static_cast<size_t>(n));
      size_t pos;
      while ((pos = buffer.find('\n')) != std::string::npos) {
        HandleLine(buffer.substr(0, pos));
        buffer.erase(0, pos + 1);
      }
    }
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
    cv_.notify_all();
  }

  void HandleLine(const std::string& line) {
    if (line.empty()) return;
    StatusOr<JsonValue> parsed = JsonValue::Parse(line);
    if (!parsed.ok() || !parsed->is_object() ||
        !parsed->Get("id").is_string()) {
      garbled_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    std::lock_guard<std::mutex> lock(mu_);
    responses_.emplace(parsed->Get("id").AsString(),
                       std::move(parsed).value());
    cv_.notify_all();
  }

  pid_t pid_ = -1;
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
// Minimal HTTP client for the daemon's observability endpoints: one
// fresh TCP connection per GET (the exporter closes after each
// response anyway).

struct HttpResponse {
  int status = 0;
  std::string body;
};

StatusOr<HttpResponse> HttpGet(const std::string& host, int port,
                               const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return Status::Unavailable("socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("bad scrape host '" + host + "'");
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
    ::close(fd);
    return Status::Unavailable("connect to " + host + ":" +
                               std::to_string(port) + " failed: " +
                               ErrnoText(errno));
  }
  const std::string request =
      "GET " + path + " HTTP/1.1\r\nHost: " + host + "\r\n"
      "Connection: close\r\n\r\n";
  size_t off = 0;
  while (off < request.size()) {
    const ssize_t n =
        ::send(fd, request.data() + off, request.size() - off, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      ::close(fd);
      return Status::Unavailable("write to exporter failed");
    }
    off += static_cast<size_t>(n);
  }
  std::string raw;
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    raw.append(chunk, static_cast<size_t>(n));
  }
  ::close(fd);
  const size_t head_end = raw.find("\r\n\r\n");
  if (raw.compare(0, 5, "HTTP/") != 0 || head_end == std::string::npos) {
    return Status::Internal("malformed HTTP response from exporter");
  }
  const size_t sp = raw.find(' ');
  HttpResponse response;
  response.status =
      static_cast<int>(std::strtol(raw.c_str() + sp + 1, nullptr, 10));
  response.body = raw.substr(head_end + 4);
  return response;
}

// Parses "[http://]HOST:PORT[/path]" (default path /statusz).
bool ParseScrapeUrl(std::string url, std::string* host, int* port,
                    std::string* path) {
  const std::string prefix = "http://";
  if (url.compare(0, prefix.size(), prefix) == 0) {
    url = url.substr(prefix.size());
  }
  const size_t slash = url.find('/');
  *path = slash == std::string::npos ? "/statusz" : url.substr(slash);
  const std::string host_port =
      slash == std::string::npos ? url : url.substr(0, slash);
  const size_t colon = host_port.rfind(':');
  if (colon == std::string::npos) return false;
  *host = host_port.substr(0, colon);
  if (host->empty()) *host = "127.0.0.1";
  *port = static_cast<int>(
      std::strtol(host_port.c_str() + colon + 1, nullptr, 10));
  return *port > 0;
}

// Two-space-indented JSON rendering (Dump() is single-line by design).
void PrettyPrint(const JsonValue& value, size_t depth, std::string* out) {
  const std::string pad(2 * depth, ' ');
  if (value.is_object()) {
    if (value.members().empty()) {
      *out += "{}";
      return;
    }
    *out += "{\n";
    bool first = true;
    for (const auto& [key, member] : value.members()) {
      if (!first) *out += ",\n";
      first = false;
      *out += pad + "  " + JsonValue::String(key).Dump() + ": ";
      PrettyPrint(member, depth + 1, out);
    }
    *out += "\n" + pad + "}";
    return;
  }
  if (value.is_array()) {
    if (value.size() == 0) {
      *out += "[]";
      return;
    }
    *out += "[\n";
    for (size_t i = 0; i < value.size(); ++i) {
      if (i > 0) *out += ",\n";
      *out += pad + "  ";
      PrettyPrint(value.at(i), depth + 1, out);
    }
    *out += "\n" + pad + "]";
    return;
  }
  *out += value.Dump();
}

// --scrape: fetch one endpoint and pretty-print it. JSON bodies
// (/statusz) are re-indented; everything else prints verbatim.
int ScrapeMain(const std::string& url) {
  std::string host, path;
  int port = 0;
  if (!ParseScrapeUrl(url, &host, &port, &path)) {
    std::cerr << "--scrape: cannot parse '" << url
              << "' (expected [http://]HOST:PORT[/path])\n";
    return 2;
  }
  StatusOr<HttpResponse> response = HttpGet(host, port, path);
  if (!response.ok()) {
    std::cerr << "--scrape: " << response.status() << "\n";
    return 1;
  }
  StatusOr<JsonValue> parsed = JsonValue::Parse(response->body);
  if (parsed.ok() && (parsed->is_object() || parsed->is_array())) {
    std::string pretty;
    PrettyPrint(*parsed, 0, &pretty);
    std::cout << pretty << "\n";
  } else {
    std::cout << response->body;
    if (!response->body.empty() && response->body.back() != '\n') {
      std::cout << "\n";
    }
  }
  return response->status == 200 ? 0 : 1;
}

// ------------------------------------------------------------------

struct ClientOptions {
  std::string server_path;
  size_t sessions = 8;
  size_t workers = 4;
  std::string kb = "synthetic";
  std::string strategy = "random";
  std::string engine = "scratch";
  // When non-empty: register one shared base KB under this name (built
  // from --kb/--seed) before driving, fork every session from it with
  // `create {"base": NAME}`, and after the drive check the base ledger
  // (list-bases + metrics) balances. The oracle replays against the
  // base KB params, so byte-identity still holds.
  std::string base;
  uint64_t seed = 20180326;  // EDBT'18
  bool quiet = false;
  // Protocol channel: "stdio" (spawned daemon's pipes), "unix"
  // (--listen-unix socket) or "tcp" (loopback listener).
  std::string transport = "stdio";
  // When non-empty: drive an already-running daemon at this target (a
  // socket path, or HOST:PORT / :PORT for TCP) instead of spawning one.
  std::string connect;
  // Socket transports only: number of connections the sessions are
  // spread over (round-robin). Stdio is one connection by construction.
  size_t connections = 1;
  // > 0: forward --shards to the spawned daemon.
  size_t shards = 0;
  // >= 0: start the daemon with --http-port N (0 = ephemeral) and after
  // the sessions finish validate all four observability endpoints,
  // cross-checking /metrics histogram counts against the JSON `metrics`
  // command.
  int http_port = -1;
  // When non-empty: start the daemon with --trace-dir, then after the
  // sessions finish issue the `trace` command, validate the span tree
  // and print an aggregated summary.
  std::string trace_dir;
  // Extra flags forwarded to the spawned daemon (repeatable
  // --server-arg), e.g. --wal-dir or --failpoints for fault drills.
  std::vector<std::string> server_args;
  // When set (--retry-seed / KBREPAIR_RETRY_SEED): seed the retry
  // backoff jitter deterministically, decorrelated per connection, so
  // chaos drills replay the same sleep schedule. Default: entropy.
  bool retry_seed_set = false;
  uint64_t retry_seed = 0;
};

JsonValue CreateParams(const ClientOptions& options, uint64_t seed_i) {
  JsonValue params = JsonValue::Object();
  if (options.base.empty()) {
    params.Set("kb", JsonValue::String(options.kb));
    params.Set("kb_seed", JsonValue::Number(static_cast<int64_t>(seed_i)));
  } else {
    params.Set("base", JsonValue::String(options.base));
  }
  params.Set("strategy", JsonValue::String(options.strategy));
  params.Set("engine", JsonValue::String(options.engine));
  params.Set("seed", JsonValue::Number(static_cast<int64_t>(seed_i)));
  return params;
}

// The KB the session actually repairs: its own (kb_seed = seed_i) in
// private mode, the one registered base (kb_seed = options.seed) when
// forking.
JsonValue OracleParams(const ClientOptions& options, uint64_t seed_i) {
  JsonValue params = JsonValue::Object();
  params.Set("kb", JsonValue::String(options.kb));
  params.Set("kb_seed",
             JsonValue::Number(static_cast<int64_t>(
                 options.base.empty() ? seed_i : options.seed)));
  params.Set("strategy", JsonValue::String(options.strategy));
  params.Set("engine", JsonValue::String(options.engine));
  params.Set("seed", JsonValue::Number(static_cast<int64_t>(seed_i)));
  return params;
}

// Replays the exact inquiry locally: same KB params, same options, same
// per-turn draw. Returns the repaired facts rendered as strings.
StatusOr<std::vector<std::string>> OracleFacts(const ClientOptions& options,
                                               uint64_t seed_i) {
  const JsonValue params = OracleParams(options, seed_i);
  std::string label;
  KBREPAIR_ASSIGN_OR_RETURN(KnowledgeBase kb,
                            BuildKbFromParams(params, &label));
  KBREPAIR_ASSIGN_OR_RETURN(InquiryOptions inquiry_options,
                            InquiryOptionsFromParams(params));
  InquiryEngine engine(&kb, inquiry_options);
  KBREPAIR_RETURN_IF_ERROR(engine.Begin());
  Rng rng(seed_i);
  for (;;) {
    KBREPAIR_ASSIGN_OR_RETURN(const Question* question,
                              engine.NextQuestion());
    if (question == nullptr) break;
    KBREPAIR_RETURN_IF_ERROR(
        engine.Answer(rng.UniformIndex(question->fixes.size())));
  }
  KBREPAIR_ASSIGN_OR_RETURN(InquiryResult result, engine.Finish());
  std::vector<std::string> facts;
  facts.reserve(result.facts.size());
  for (AtomId id = 0; id < result.facts.size(); ++id) {
    facts.push_back(result.facts.atom(id).ToString(kb.symbols()));
  }
  return facts;
}

// ------------------------------------------------------------------
// /metrics exposition validation for --http-port.

// Accepts the Prometheus text format line-by-line and returns the
// parsed series (full "name{labels}" -> value). Error string on the
// first malformed line.
std::string ParseExposition(const std::string& body,
                            std::map<std::string, double>* series) {
  size_t line_no = 0;
  size_t start = 0;
  while (start < body.size()) {
    ++line_no;
    size_t end = body.find('\n', start);
    if (end == std::string::npos) {
      return "line " + std::to_string(line_no) + ": missing trailing newline";
    }
    const std::string line = body.substr(start, end - start);
    start = end + 1;
    if (line.empty()) continue;
    if (line.compare(0, 7, "# HELP ") == 0 ||
        line.compare(0, 7, "# TYPE ") == 0) {
      continue;
    }
    if (line[0] == '#') {
      return "line " + std::to_string(line_no) + ": unknown comment form";
    }
    // NAME or NAME{labels}, one space, a floating-point value.
    const size_t space = line.rfind(' ');
    if (space == std::string::npos || space == 0) {
      return "line " + std::to_string(line_no) + ": no value: " + line;
    }
    const std::string key = line.substr(0, space);
    size_t name_end = key.find('{');
    if (name_end != std::string::npos && key.back() != '}') {
      return "line " + std::to_string(line_no) + ": unbalanced labels";
    }
    if (name_end == std::string::npos) name_end = key.size();
    for (size_t i = 0; i < name_end; ++i) {
      const char c = key[i];
      const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9' && i > 0) || c == '_' || c == ':';
      if (!ok) {
        return "line " + std::to_string(line_no) + ": bad metric name: " +
               key;
      }
    }
    errno = 0;
    char* parse_end = nullptr;
    const double value = std::strtod(line.c_str() + space + 1, &parse_end);
    if (parse_end == line.c_str() + space + 1 || *parse_end != '\0') {
      return "line " + std::to_string(line_no) + ": bad value: " + line;
    }
    if (series->count(key) != 0) {
      return "line " + std::to_string(line_no) + ": duplicate series " + key;
    }
    (*series)[key] = value;
  }
  return "";
}

// Fetches all four endpoints from a healthy daemon and cross-checks
// /metrics against the JSON `metrics` response. Returns "" or the
// first failure.
std::string CheckExporter(int port, const JsonValue& json_metrics,
                          bool quiet) {
  StatusOr<HttpResponse> health = HttpGet("127.0.0.1", port, "/healthz");
  if (!health.ok()) return "healthz: " + health.status().ToString();
  if (health->status != 200) {
    return "healthz: HTTP " + std::to_string(health->status);
  }
  StatusOr<HttpResponse> ready = HttpGet("127.0.0.1", port, "/readyz");
  if (!ready.ok()) return "readyz: " + ready.status().ToString();
  if (ready->status != 200) {
    return "readyz: HTTP " + std::to_string(ready->status) + " (" +
           ready->body + ")";
  }
  StatusOr<HttpResponse> statusz = HttpGet("127.0.0.1", port, "/statusz");
  if (!statusz.ok()) return "statusz: " + statusz.status().ToString();
  if (statusz->status != 200) {
    return "statusz: HTTP " + std::to_string(statusz->status);
  }
  StatusOr<JsonValue> status_json = JsonValue::Parse(statusz->body);
  if (!status_json.ok() || !status_json->is_object()) {
    return "statusz: body is not a JSON object";
  }
  if (status_json->Get("sessions_active").AsInt(-1) != 0) {
    return "statusz: sessions_active != 0 after all sessions closed";
  }
  StatusOr<HttpResponse> metrics = HttpGet("127.0.0.1", port, "/metrics");
  if (!metrics.ok()) return "metrics: " + metrics.status().ToString();
  if (metrics->status != 200) {
    return "metrics: HTTP " + std::to_string(metrics->status);
  }
  std::map<std::string, double> series;
  const std::string parse_error = ParseExposition(metrics->body, &series);
  if (!parse_error.empty()) return "metrics exposition: " + parse_error;

  // Histogram figures must match the JSON `metrics` command: both are
  // rendered from the same snapshot path, and the drivers are done, so
  // turn_delay can no longer move.
  const auto expect = [&](const std::string& name,
                          double want) -> std::string {
    auto it = series.find(name);
    if (it == series.end()) return name + " missing from /metrics";
    if (std::abs(it->second - want) > 1e-6 * (1.0 + std::abs(want))) {
      return name + " = " + std::to_string(it->second) +
             ", JSON metrics say " + std::to_string(want);
    }
    return "";
  };
  const JsonValue& turn_delay = json_metrics.Get("turn_delay");
  const double count = turn_delay.Get("count").AsDouble(-1);
  std::string problem =
      expect("kbrepair_turn_delay_seconds_count", count);
  if (problem.empty()) {
    // sum ≈ mean * count (the JSON reports mean_ms; both derive from
    // the same sum_micros counter).
    problem = expect("kbrepair_turn_delay_seconds_sum",
                     turn_delay.Get("mean_ms").AsDouble(0) * count / 1e3);
  }
  if (problem.empty()) {
    problem = expect(
        "kbrepair_questions_served_total",
        json_metrics.Get("traffic").Get("questions_served").AsDouble(-1));
  }
  if (!problem.empty()) return problem;
  if (!quiet) {
    std::cout << "exporter: " << series.size()
              << " series validated on port " << port << "\n";
  }
  return "";
}

// One scripted session over the wire. On success returns the number of
// questions answered; any mismatch or server error is a Status.
StatusOr<size_t> DriveSession(ServerConnection& server,
                              const ClientOptions& options, size_t index) {
  const uint64_t seed_i = options.seed + index;
  Rng rng(seed_i);

  JsonValue create = CreateParams(options, seed_i);
  create.Set("command", JsonValue::String("create"));
  KBREPAIR_ASSIGN_OR_RETURN(JsonValue created, server.Call(std::move(create)));
  const std::string session = created.Get("session").AsString();
  if (session.empty()) {
    return Status::Internal("create returned no session id");
  }

  size_t answered = 0;
  for (;;) {
    JsonValue ask = JsonValue::Object();
    ask.Set("command", JsonValue::String("ask"));
    ask.Set("session", JsonValue::String(session));
    KBREPAIR_ASSIGN_OR_RETURN(JsonValue asked, server.Call(std::move(ask)));
    if (asked.Get("done").AsBool(false)) break;
    const int64_t num_fixes =
        asked.Get("question").Get("num_fixes").AsInt(0);
    if (num_fixes <= 0) {
      return Status::Internal("question with no fixes on " + session);
    }
    JsonValue answer = JsonValue::Object();
    answer.Set("command", JsonValue::String("answer"));
    answer.Set("session", JsonValue::String(session));
    answer.Set("choice",
               JsonValue::Number(static_cast<int64_t>(
                   rng.UniformIndex(static_cast<size_t>(num_fixes)))));
    KBREPAIR_RETURN_IF_ERROR(server.Call(std::move(answer)).status());
    ++answered;
    if (answered > 100000) {
      return Status::Internal("session " + session + " does not converge");
    }
  }

  JsonValue close = JsonValue::Object();
  close.Set("command", JsonValue::String("close"));
  close.Set("session", JsonValue::String(session));
  close.Set("include_facts", JsonValue::Bool(true));
  KBREPAIR_ASSIGN_OR_RETURN(JsonValue closed, server.Call(std::move(close)));
  if (!closed.Get("consistent").AsBool(false)) {
    return Status::Internal("session " + session + " closed inconsistent");
  }

  // Byte-for-byte comparison against the single-threaded engine.
  KBREPAIR_ASSIGN_OR_RETURN(std::vector<std::string> oracle,
                            OracleFacts(options, seed_i));
  const JsonValue& facts = closed.Get("facts");
  if (!facts.is_array() || facts.size() != oracle.size()) {
    return Status::Internal(
        "session " + session + ": service repaired " +
        std::to_string(facts.size()) + " facts, oracle " +
        std::to_string(oracle.size()));
  }
  for (size_t i = 0; i < oracle.size(); ++i) {
    if (facts.at(i).AsString() != oracle[i]) {
      return Status::Internal("session " + session + ": fact " +
                              std::to_string(i) + " diverged: service '" +
                              facts.at(i).AsString() + "' vs oracle '" +
                              oracle[i] + "'");
    }
  }
  return answered;
}

// ------------------------------------------------------------------
// Span-tree validation and summary for --trace-dir.

struct SpanInfo {
  uint64_t id = 0;
  uint64_t parent = 0;
  std::string name;
  std::string detail;
  int64_t start_us = 0;
  int64_t dur_us = 0;
};

// Validates the `trace` response and prints an aggregated name-path
// tree. Returns a failure description, or "" when the tree is sound.
//
// Well-formedness checked:
//  * every span has an id, a name and non-negative times;
//  * ids are unique; a parent id is always smaller than its child's
//    (spans are numbered in creation order). A parent missing from the
//    drain is legal — it was still open when the buffer was drained;
//  * a child's [start, end] nests inside its parent's (1us truncation
//    slop);
//  * the expected request path is covered: scheduler (rpc.*), session
//    handlers, inquiry, chase, and — when a WAL is configured — the
//    wal.append leaf;
//  * every session.ask / session.answer span carries "session=<id>
//    step=<k>" annotations and, per session, steps never go backwards
//    in span creation order.
std::string CheckAndPrintTrace(const JsonValue& result, bool expect_wal,
                               bool quiet) {
  if (!result.Get("enabled").AsBool(false)) {
    return "trace: recorder disabled on the server";
  }
  const JsonValue& spans_json = result.Get("spans");
  if (!spans_json.is_array() || spans_json.size() == 0) {
    return "trace: no spans returned";
  }
  std::vector<SpanInfo> spans;
  spans.reserve(spans_json.size());
  std::map<uint64_t, size_t> by_id;
  for (size_t i = 0; i < spans_json.size(); ++i) {
    const JsonValue& json = spans_json.at(i);
    SpanInfo info;
    info.id = static_cast<uint64_t>(json.Get("id").AsInt(0));
    info.parent = static_cast<uint64_t>(json.Get("parent").AsInt(0));
    info.name = json.Get("name").AsString();
    info.detail = json.Get("detail").AsString();
    info.start_us = json.Get("start_us").AsInt(-1);
    info.dur_us = json.Get("dur_us").AsInt(-1);
    if (info.id == 0 || info.name.empty() || info.start_us < 0 ||
        info.dur_us < 0) {
      return "trace: malformed span at index " + std::to_string(i);
    }
    if (by_id.count(info.id) != 0) {
      return "trace: duplicate span id " + std::to_string(info.id);
    }
    by_id[info.id] = spans.size();
    spans.push_back(std::move(info));
  }
  for (const SpanInfo& span : spans) {
    if (span.parent == 0) continue;
    if (span.parent >= span.id) {
      return "trace: span " + std::to_string(span.id) +
             " has parent id >= its own";
    }
    auto it = by_id.find(span.parent);
    if (it == by_id.end()) continue;
    const SpanInfo& parent = spans[it->second];
    if (span.start_us < parent.start_us ||
        span.start_us + span.dur_us >
            parent.start_us + parent.dur_us + 1) {
      return "trace: span '" + span.name + "' not nested inside parent '" +
             parent.name + "'";
    }
  }

  // Aggregate count/total time per name path. Parents always have
  // smaller ids, so an id-ordered pass resolves each path in one step.
  std::vector<size_t> order(spans.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return spans[a].id < spans[b].id;
  });
  std::map<uint64_t, std::string> path_of;
  std::map<std::string, std::pair<size_t, int64_t>> by_path;
  std::set<std::string> names;
  for (const size_t index : order) {
    const SpanInfo& span = spans[index];
    auto parent_it = path_of.find(span.parent);
    const std::string path = parent_it != path_of.end()
                                 ? parent_it->second + "/" + span.name
                                 : span.name;
    path_of[span.id] = path;
    auto& agg = by_path[path];
    agg.first += 1;
    agg.second += span.dur_us;
    names.insert(span.name);
  }

  std::vector<std::string> required = {
      "rpc.create", "rpc.ask",           "rpc.answer",
      "rpc.close",  "session.ask",       "session.answer",
      "session.close", "inquiry.next_question"};
  if (expect_wal) required.push_back("wal.append");
  for (const std::string& name : required) {
    if (names.count(name) == 0) {
      return "trace: required span '" + name + "' missing";
    }
  }
  if (names.count("chase.saturate") == 0 &&
      names.count("chase.delta_saturate") == 0) {
    return "trace: no chase span (chase.saturate / chase.delta_saturate)";
  }

  // Session command spans carry "session=<id> step=<k>"; per session
  // the step is non-decreasing in creation (id) order — the id-sorted
  // pass above established that order. A step going backwards would
  // mean the daemon re-ran an earlier question.
  std::map<std::string, std::pair<int64_t, uint64_t>> last_step;
  for (const size_t index : order) {
    const SpanInfo& span = spans[index];
    if (span.name != "session.ask" && span.name != "session.answer") continue;
    std::string session;
    int64_t step = -1;
    std::istringstream detail(span.detail);
    std::string token;
    while (detail >> token) {
      if (token.rfind("session=", 0) == 0) session = token.substr(8);
      if (token.rfind("step=", 0) == 0) {
        step = std::atoll(token.c_str() + 5);
      }
    }
    if (session.empty() || step <= 0) {
      return "trace: span '" + span.name + "' (id " +
             std::to_string(span.id) + ") lacks session=/step= detail: '" +
             span.detail + "'";
    }
    const auto [it, inserted] =
        last_step.emplace(session, std::make_pair(step, span.id));
    if (!inserted) {
      if (step < it->second.first) {
        return "trace: session " + session + " step went backwards: span " +
               std::to_string(span.id) + " has step=" + std::to_string(step) +
               " after span " + std::to_string(it->second.second) +
               " reached step=" + std::to_string(it->second.first);
      }
      it->second = {step, span.id};
    }
  }

  if (!quiet) {
    std::cout << "trace: " << result.Get("total_spans").AsInt(0)
              << " spans, " << result.Get("dropped").AsInt(0) << " dropped";
    if (result.Get("file").is_string()) {
      std::cout << ", file " << result.Get("file").AsString();
    }
    std::cout << "\n";
    // Lexicographic order lists each parent path right before its
    // children, so indenting by depth renders the tree.
    for (const auto& [path, agg] : by_path) {
      const size_t depth =
          static_cast<size_t>(std::count(path.begin(), path.end(), '/'));
      const size_t leaf = path.rfind('/');
      std::string line(2 + 2 * depth, ' ');
      line += leaf == std::string::npos ? path : path.substr(leaf + 1);
      if (line.size() < 44) line.resize(44, ' ');
      std::cout << line << " x" << agg.first << "  "
                << static_cast<double>(agg.second) / 1e3 << " ms\n";
    }
  }
  return "";
}

// ------------------------------------------------------------------
// Socket-transport plumbing.

// Spawns kbrepaird detached from the protocol channel: stdin becomes
// /dev/null (the sockets carry the protocol; socket-mode kbrepaird
// ignores stdin and waits for SIGTERM), stdout/stderr stay inherited.
// Returns the child pid, or -1.
pid_t SpawnDetachedDaemon(const std::vector<std::string>& args) {
  const pid_t pid = fork();
  if (pid != 0) return pid;
  const int devnull = ::open("/dev/null", O_RDONLY);
  if (devnull >= 0) {
    dup2(devnull, STDIN_FILENO);
    close(devnull);
  }
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (const std::string& arg : args) {
    argv.push_back(const_cast<char*>(arg.c_str()));
  }
  argv.push_back(nullptr);
  execv(argv[0], argv.data());
  std::cerr << "exec " << args[0] << " failed: " << ErrnoText(errno)
            << "\n";
  _exit(127);
}

// A freshly spawned daemon needs a moment to bind its listener: retry
// `once` for up to ~10s, failing fast if the daemon dies first.
StatusOr<int> ConnectPatiently(const std::function<StatusOr<int>()>& once,
                               pid_t daemon_pid) {
  Status last = Status::Unavailable("connect never attempted");
  for (int i = 0; i < 1000; ++i) {
    StatusOr<int> fd = once();
    if (fd.ok()) return fd;
    last = fd.status();
    if (daemon_pid > 0) {
      int wstatus = 0;
      if (::waitpid(daemon_pid, &wstatus, WNOHANG) == daemon_pid) {
        return Status::Internal("daemon exited before accepting connections");
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return last;
}

// First integer in a daemon-written port file; 0 when absent/partial.
int ReadPortFile(const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return 0;
  int port = 0;
  if (std::fscanf(f, "%d", &port) != 1) port = 0;
  std::fclose(f);
  return port;
}

// "HOST:PORT", ":PORT" or bare "PORT" (host defaults to loopback).
bool ParseTcpTarget(const std::string& target, std::string* host,
                    int* port) {
  const size_t colon = target.rfind(':');
  const std::string port_text =
      colon == std::string::npos ? target : target.substr(colon + 1);
  *host = (colon == std::string::npos || colon == 0)
              ? "127.0.0.1"
              : target.substr(0, colon);
  char* end = nullptr;
  const long value = std::strtol(port_text.c_str(), &end, 10);
  if (end == port_text.c_str() || *end != '\0') return false;
  *port = static_cast<int>(value);
  return *port > 0 && *port < 65536;
}

// mkstemp-backed unique /tmp name (the file itself is a placeholder;
// both the Unix listener and the port-file writer replace it).
std::string MakeTempPath(const char* pattern) {
  std::string path = pattern;
  const int fd = ::mkstemp(path.data());
  if (fd < 0) return "";
  ::close(fd);
  return path;
}

int Usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " [--server PATH] [--server-arg ARG]... [--sessions N]"
               " [--workers N] [--kb NAME] [--strategy NAME] [--engine NAME]"
               " [--base NAME] [--seed S]"
               " [--trace-dir DIR] [--http-port N]"
               " [--transport stdio|unix|tcp] [--connections N]"
               " [--connect TARGET] [--shards N] [--retry-seed S] [--quiet]\n"
               "       "
            << argv0
            << " --scrape [http://]HOST:PORT[/path]   fetch one"
               " observability endpoint (default path /statusz)\n";
  return 2;
}

std::string DefaultServerPath(const char* argv0) {
  const std::string self = argv0;
  const size_t slash = self.rfind('/');
  if (slash == std::string::npos) return "./kbrepaird";
  return self.substr(0, slash + 1) + "kbrepaird";
}

int Main(int argc, char** argv) {
  ClientOptions options;
  options.server_path = DefaultServerPath(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next_value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--server" && (v = next_value())) {
      options.server_path = v;
    } else if (arg == "--server-arg" && (v = next_value())) {
      options.server_args.push_back(v);
    } else if (arg == "--sessions" && (v = next_value())) {
      options.sessions = static_cast<size_t>(std::strtoull(v, nullptr, 10));
    } else if (arg == "--workers" && (v = next_value())) {
      options.workers = static_cast<size_t>(std::strtoull(v, nullptr, 10));
    } else if (arg == "--kb" && (v = next_value())) {
      options.kb = v;
    } else if (arg == "--strategy" && (v = next_value())) {
      options.strategy = v;
    } else if (arg == "--engine" && (v = next_value())) {
      options.engine = v;
    } else if (arg == "--base" && (v = next_value())) {
      options.base = v;
    } else if (arg == "--seed" && (v = next_value())) {
      options.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--trace-dir" && (v = next_value())) {
      options.trace_dir = v;
    } else if (arg == "--http-port" && (v = next_value())) {
      options.http_port = static_cast<int>(std::strtol(v, nullptr, 10));
    } else if (arg == "--transport" && (v = next_value())) {
      options.transport = v;
    } else if (arg == "--connect" && (v = next_value())) {
      options.connect = v;
    } else if (arg == "--connections" && (v = next_value())) {
      options.connections =
          static_cast<size_t>(std::strtoull(v, nullptr, 10));
    } else if (arg == "--shards" && (v = next_value())) {
      options.shards = static_cast<size_t>(std::strtoull(v, nullptr, 10));
    } else if (arg == "--retry-seed" && (v = next_value())) {
      options.retry_seed = std::strtoull(v, nullptr, 10);
      options.retry_seed_set = true;
    } else if (arg == "--scrape" && (v = next_value())) {
      return ScrapeMain(v);
    } else if (arg == "--quiet") {
      options.quiet = true;
    } else if (arg == "--help" || arg == "-h") {
      Usage(argv[0]);
      return 0;
    } else {
      std::cerr << "unknown or incomplete flag '" << arg << "'\n";
      return Usage(argv[0]);
    }
  }
  if (options.sessions == 0) options.sessions = 1;
  if (options.connections == 0) options.connections = 1;
  const bool external = !options.connect.empty();
  if (external && options.transport == "stdio") {
    // Infer the transport from the target: a path is a Unix socket,
    // anything with a port is TCP.
    options.transport =
        options.connect.find('/') != std::string::npos ? "unix" : "tcp";
  }
  if (options.transport != "stdio" && options.transport != "unix" &&
      options.transport != "tcp") {
    std::cerr << "--transport must be stdio, unix or tcp\n";
    return Usage(argv[0]);
  }
  if (options.transport == "stdio" && options.connections != 1) {
    std::cerr << "--connections requires a socket transport"
                 " (stdio is a single pipe pair)\n";
    return Usage(argv[0]);
  }
  if (external && (options.http_port >= 0 || !options.trace_dir.empty())) {
    std::cerr << "--connect drives an existing daemon; --http-port and"
                 " --trace-dir configure a spawned one\n";
    return Usage(argv[0]);
  }

  // A daemon that dies mid-stream must become a reported failure, not a
  // SIGPIPE-killed client.
  ::signal(SIGPIPE, SIG_IGN);

  std::vector<std::string> server_argv = {
      options.server_path, "--workers", std::to_string(options.workers)};
  if (options.shards > 0) {
    server_argv.push_back("--shards");
    server_argv.push_back(std::to_string(options.shards));
  }
  if (!options.trace_dir.empty()) {
    server_argv.push_back("--trace-dir");
    server_argv.push_back(options.trace_dir);
  }
  // With --http-port the daemon writes its bound port to a temp file
  // (stdout is the protocol channel) for us to read after the drive.
  std::string port_file;
  if (options.http_port >= 0) {
    port_file = MakeTempPath("/tmp/kbrepair-http-port-XXXXXX");
    if (port_file.empty()) {
      std::cerr << "cannot create HTTP port file\n";
      return 1;
    }
    server_argv.push_back("--http-port");
    server_argv.push_back(std::to_string(options.http_port));
    server_argv.push_back("--http-port-file");
    server_argv.push_back(port_file);
  }
  server_argv.insert(server_argv.end(), options.server_args.begin(),
                     options.server_args.end());

  // Establish the protocol channel(s). Stdio spawns the daemon on a
  // pipe pair; the socket transports either spawn it with a listener
  // (owning the process) or connect to --connect.
  std::vector<std::unique_ptr<ServerConnection>> conns;
  pid_t daemon_pid = -1;        // socket-transport spawn only
  std::string unix_sock_path;   // unlinked by the daemon on shutdown
  std::string listen_port_file;
  if (options.transport == "stdio") {
    auto conn = std::make_unique<ServerConnection>();
    if (!conn->Spawn(server_argv)) {
      std::cerr << "failed to spawn " << options.server_path << "\n";
      return 1;
    }
    conns.push_back(std::move(conn));
  } else {
    std::string tcp_host = "127.0.0.1";
    int tcp_port = 0;
    if (external) {
      if (options.transport == "unix") {
        unix_sock_path = options.connect;
      } else if (!ParseTcpTarget(options.connect, &tcp_host, &tcp_port)) {
        std::cerr << "--connect: cannot parse TCP target '"
                  << options.connect << "'\n";
        return 1;
      }
    } else {
      if (options.transport == "unix") {
        unix_sock_path = MakeTempPath("/tmp/kbrepair-sock-XXXXXX");
        if (unix_sock_path.empty()) {
          std::cerr << "cannot create Unix socket path\n";
          return 1;
        }
        server_argv.push_back("--listen-unix");
        server_argv.push_back(unix_sock_path);
      } else {
        listen_port_file = MakeTempPath("/tmp/kbrepair-listen-port-XXXXXX");
        if (listen_port_file.empty()) {
          std::cerr << "cannot create listener port file\n";
          return 1;
        }
        server_argv.push_back("--listen-tcp");
        server_argv.push_back("0");
        server_argv.push_back("--listen-tcp-port-file");
        server_argv.push_back(listen_port_file);
      }
      daemon_pid = SpawnDetachedDaemon(server_argv);
      if (daemon_pid < 0) {
        std::cerr << "failed to spawn " << options.server_path << "\n";
        return 1;
      }
    }
    for (size_t i = 0; i < options.connections; ++i) {
      StatusOr<int> fd = ConnectPatiently(
          [&]() -> StatusOr<int> {
            if (options.transport == "unix") {
              return net::ConnectUnix(unix_sock_path);
            }
            if (tcp_port == 0) {
              // The spawned daemon publishes its ephemeral port
              // atomically; an absent/partial file reads as 0.
              const int published = ReadPortFile(listen_port_file);
              if (published <= 0) {
                return Status::Unavailable("listener port not published yet");
              }
              tcp_port = published;
            }
            return net::ConnectTcp(tcp_host, tcp_port);
          },
          daemon_pid);
      if (!fd.ok()) {
        std::cerr << "cannot connect to the daemon: "
                  << fd.status().ToString() << "\n";
        if (daemon_pid > 0) ::kill(daemon_pid, SIGKILL);
        return 1;
      }
      auto conn = std::make_unique<ServerConnection>();
      conn->AdoptSocket(*fd);
      conns.push_back(std::move(conn));
    }
    if (!listen_port_file.empty()) ::unlink(listen_port_file.c_str());
  }
  if (!options.retry_seed_set) {
    if (const char* env = std::getenv("KBREPAIR_RETRY_SEED")) {
      options.retry_seed = std::strtoull(env, nullptr, 10);
      options.retry_seed_set = true;
    }
  }
  if (options.retry_seed_set) {
    // Decorrelate per connection so parallel links do not jitter in
    // lockstep, while each still replays deterministically.
    for (size_t i = 0; i < conns.size(); ++i) {
      conns[i]->SeedBackoff(options.retry_seed + i);
    }
  }
  ServerConnection& server = *conns.front();

  std::mutex report_mu;
  std::vector<std::string> failures;
  std::atomic<size_t> total_questions{0};

  // Shared-base mode: register the one base every session forks from.
  // A registration failure makes driving pointless, so skip straight to
  // teardown and report it.
  bool drive = true;
  if (!options.base.empty()) {
    JsonValue reg = JsonValue::Object();
    reg.Set("command", JsonValue::String("register-base"));
    reg.Set("name", JsonValue::String(options.base));
    reg.Set("kb", JsonValue::String(options.kb));
    reg.Set("kb_seed", JsonValue::Number(static_cast<int64_t>(options.seed)));
    StatusOr<JsonValue> registered = server.Call(std::move(reg));
    if (!registered.ok()) {
      failures.push_back("register-base: " + registered.status().ToString());
      drive = false;
    } else if (!options.quiet) {
      std::cout << "base '" << options.base << "' registered: "
                << registered->Dump() << "\n";
    }
  }

  std::vector<std::thread> drivers;
  drivers.reserve(drive ? options.sessions : 0);
  for (size_t i = 0; drive && i < options.sessions; ++i) {
    drivers.emplace_back([&, i] {
      // Sessions round-robin over the open connections; the protocol
      // pipelines, so many sessions per connection is the normal case.
      StatusOr<size_t> outcome =
          DriveSession(*conns[i % conns.size()], options, i);
      if (outcome.ok()) {
        total_questions.fetch_add(*outcome, std::memory_order_relaxed);
      } else {
        std::lock_guard<std::mutex> lock(report_mu);
        failures.push_back("session " + std::to_string(i) + ": " +
                           outcome.status().ToString());
      }
    });
  }
  for (std::thread& driver : drivers) driver.join();

  // The lifecycle ledger must balance: every session opened was closed.
  // Only meaningful for a daemon we spawned — an external one carries
  // whatever history it carries.
  JsonValue metrics_request = JsonValue::Object();
  metrics_request.Set("command", JsonValue::String("metrics"));
  StatusOr<JsonValue> metrics = server.Call(std::move(metrics_request));
  if (!metrics.ok()) {
    failures.push_back("metrics: " + metrics.status().ToString());
  } else {
    if (!external) {
      const JsonValue& sessions = metrics->Get("sessions");
      const int64_t opened = sessions.Get("opened").AsInt(-1);
      const int64_t completed = sessions.Get("completed").AsInt(-1);
      const int64_t active = sessions.Get("active").AsInt(-1);
      const int64_t expected = static_cast<int64_t>(options.sessions);
      if (opened != expected || completed != expected || active != 0) {
        failures.push_back(
            "metrics imbalance: opened=" + std::to_string(opened) +
            " completed=" + std::to_string(completed) +
            " active=" + std::to_string(active) + " expected " +
            std::to_string(expected) + "/" + std::to_string(expected) +
            "/0");
      }
    }
    if (!external && !options.base.empty() && drive) {
      // The base ledger must balance too: one base registered, one fork
      // per session. (Gauges live on one shard, so the sharded
      // aggregate sums correctly.)
      const JsonValue& bases = metrics->Get("bases");
      const int64_t registered = bases.Get("registered").AsInt(-1);
      const int64_t forks = bases.Get("forks").AsInt(-1);
      if (registered != 1 ||
          forks != static_cast<int64_t>(options.sessions)) {
        failures.push_back(
            "base metrics imbalance: registered=" +
            std::to_string(registered) + " forks=" + std::to_string(forks) +
            " expected 1/" + std::to_string(options.sessions));
      }
    }
    if (!options.quiet) {
      std::cout << "metrics: " << metrics->Dump() << "\n";
    }
  }

  if (!options.base.empty() && drive) {
    // list-bases over the wire: the base must still be live (it outlives
    // its sessions) with every handle released after the closes.
    JsonValue list = JsonValue::Object();
    list.Set("command", JsonValue::String("list-bases"));
    StatusOr<JsonValue> listed = server.Call(std::move(list));
    if (!listed.ok()) {
      failures.push_back("list-bases: " + listed.status().ToString());
    } else {
      const JsonValue& entries = listed->Get("bases");
      bool found = false;
      for (size_t i = 0; i < entries.size(); ++i) {
        const JsonValue& entry = entries.at(i);
        if (entry.Get("name").AsString() != options.base) continue;
        found = true;
        const int64_t refcount = entry.Get("refcount").AsInt(-1);
        const int64_t forks = entry.Get("forks").AsInt(-1);
        if (refcount != 0 || forks != static_cast<int64_t>(options.sessions)) {
          failures.push_back(
              "list-bases: refcount=" + std::to_string(refcount) +
              " forks=" + std::to_string(forks) + ", expected 0/" +
              std::to_string(options.sessions));
        }
      }
      if (!found) {
        failures.push_back("list-bases: base '" + options.base +
                           "' missing after drive");
      }
    }
  }

  if (options.http_port >= 0) {
    // The port file was written before the daemon started serving
    // requests, so after a full drive it must be present and complete.
    const int bound_port = ReadPortFile(port_file);
    if (bound_port <= 0) {
      failures.push_back("exporter: no bound port in " + port_file);
    } else if (!metrics.ok()) {
      failures.push_back("exporter: skipped (metrics command failed)");
    } else {
      const std::string problem =
          CheckExporter(bound_port, *metrics, options.quiet);
      if (!problem.empty()) failures.push_back("exporter: " + problem);
    }
    ::unlink(port_file.c_str());
  }

  if (!options.trace_dir.empty()) {
    const bool expect_wal =
        std::find(options.server_args.begin(), options.server_args.end(),
                  "--wal-dir") != options.server_args.end() ||
        std::find(options.server_args.begin(), options.server_args.end(),
                  "--recover-dir") != options.server_args.end();
    JsonValue trace_request = JsonValue::Object();
    trace_request.Set("command", JsonValue::String("trace"));
    StatusOr<JsonValue> traced = server.Call(std::move(trace_request));
    if (!traced.ok()) {
      failures.push_back("trace: " + traced.status().ToString());
    } else {
      const std::string problem =
          CheckAndPrintTrace(*traced, expect_wal, options.quiet);
      if (!problem.empty()) failures.push_back(problem);
    }
  }

  // Tear the connections down (pipes: EOF-triggered daemon shutdown;
  // sockets: SHUT_WR half-close and drain), then reap a socket-mode
  // daemon with SIGTERM — its graceful path must exit 0.
  int server_exit = 0;
  for (const auto& conn : conns) {
    const int rc = conn->ShutdownAndWait();
    if (options.transport == "stdio") server_exit = rc;
  }
  if (daemon_pid > 0) {
    ::kill(daemon_pid, SIGTERM);
    int wstatus = 0;
    server_exit =
        (::waitpid(daemon_pid, &wstatus, 0) == daemon_pid &&
         WIFEXITED(wstatus))
            ? WEXITSTATUS(wstatus)
            : -1;
  }
  if (!external && server_exit != 0) {
    failures.push_back("server exited with code " +
                       std::to_string(server_exit));
  }
  uint64_t garbled = 0;
  uint64_t retries = 0;
  std::vector<std::string> unanswered;
  for (const auto& conn : conns) {
    garbled += conn->garbled_lines();
    retries += conn->retries();
    for (std::string& id : conn->UnansweredIds()) {
      unanswered.push_back(std::move(id));
    }
  }
  if (garbled != 0) {
    failures.push_back(std::to_string(garbled) + " garbled response lines");
  }
  if (!unanswered.empty()) {
    std::string joined;
    for (const std::string& id : unanswered) {
      if (!joined.empty()) joined += ", ";
      joined += id;
    }
    failures.push_back("server hung up with " +
                       std::to_string(unanswered.size()) +
                       " unanswered command(s): " + joined);
  }
  if (!options.quiet && retries != 0) {
    std::cout << "retried " << retries
              << " command(s) after retryable errors\n";
  }

  if (!failures.empty()) {
    for (const std::string& failure : failures) {
      std::cerr << "FAIL: " << failure << "\n";
    }
    return 1;
  }
  std::cout << "OK: " << options.sessions << " sessions, "
            << total_questions.load() << " questions, repairs byte-identical"
            << " to the single-threaded engine\n";
  return 0;
}

}  // namespace
}  // namespace kbrepair

int main(int argc, char** argv) { return kbrepair::Main(argc, argv); }
