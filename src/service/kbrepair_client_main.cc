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

#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "repair/inquiry.h"
#include "service/daemon_client.h"
#include "util/json.h"
#include "util/net.h"
#include "util/status.h"

namespace kbrepair {
namespace {

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
  std::string strategy = StrategyName(Strategy::kRandom);
  std::string engine = ConflictEngineName(ConflictEngineKind::kScratch);
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

// One scripted session over the wire, checked byte for byte against
// the single-threaded engine. Returns the number of questions answered.
StatusOr<size_t> DriveSession(ServerConnection& server,
                              const ClientOptions& options, size_t index) {
  const uint64_t seed_i = options.seed + index;
  JsonValue create = CreateParams(options, seed_i);
  create.Set("command", JsonValue::String("create"));
  return DriveRandomDialogue(
      [&](JsonValue request) { return server.Call(std::move(request)); },
      create, OracleParams(options, seed_i), seed_i);
}

// ------------------------------------------------------------------
// Span-tree summary for --trace-dir.

// Validates the `trace` response with ValidateSpanTree and prints an
// aggregated name-path tree. Returns a failure description, or "" when
// the tree is sound.
std::string CheckAndPrintTrace(const JsonValue& result, bool expect_wal,
                               bool quiet) {
  if (!result.Get("enabled").AsBool(false)) {
    return "trace: recorder disabled on the server";
  }
  std::vector<SpanInfo> spans;
  const std::string problem =
      ValidateSpanTree(result.Get("spans"), expect_wal, &spans);
  if (!problem.empty() || quiet) return problem;

  // Aggregate count/total time per name path. Parents always have
  // smaller ids, so the id-ordered pass resolves each path in one step.
  std::map<uint64_t, std::string> path_of;
  std::map<std::string, std::pair<size_t, int64_t>> by_path;
  for (const SpanInfo& span : spans) {
    auto parent_it = path_of.find(span.parent);
    const std::string path = parent_it != path_of.end()
                                 ? parent_it->second + "/" + span.name
                                 : span.name;
    path_of[span.id] = path;
    auto& agg = by_path[path];
    agg.first += 1;
    agg.second += span.dur_us;
  }

  std::cout << "trace: " << result.Get("total_spans").AsInt(0) << " spans, "
            << result.Get("dropped").AsInt(0) << " dropped";
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
  return "";
}

// ------------------------------------------------------------------
// Socket-transport plumbing.

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
  DaemonProcess daemon;  // never started with --connect
  std::vector<std::unique_ptr<ServerConnection>> conns;
  std::string unix_sock_path;   // unlinked by the daemon on shutdown
  std::string listen_port_file;
  if (options.transport == "stdio") {
    if (!daemon.Start(server_argv, DaemonProcess::Stdio::kPiped)) {
      std::cerr << "failed to spawn " << options.server_path << "\n";
      return 1;
    }
    conns.push_back(std::make_unique<ServerConnection>(daemon));
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
      if (!daemon.Start(server_argv, DaemonProcess::Stdio::kDetached)) {
        std::cerr << "failed to spawn " << options.server_path << "\n";
        return 1;
      }
    }
    for (size_t i = 0; i < options.connections; ++i) {
      StatusOr<int> fd = ConnectWithRetry(
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
          external ? nullptr : &daemon);
      if (!fd.ok()) {
        std::cerr << "cannot connect to the daemon: "
                  << fd.status().ToString() << "\n";
        daemon.Kill9();
        return 1;
      }
      conns.push_back(std::make_unique<ServerConnection>(*fd));
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
  for (const auto& conn : conns) conn->Shutdown();
  const int server_exit = options.transport == "stdio" ? daemon.CloseAndWait()
                                                       : daemon.Terminate();
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
