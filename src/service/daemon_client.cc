#include "service/daemon_client.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <sstream>

#include "repair/inquiry.h"
#include "service/net/framer.h"
#include "service/session.h"
#include "util/errno_text.h"
#include "util/net.h"

namespace kbrepair {

// ------------------------------------------------------------------
// DaemonProcess

DaemonProcess::~DaemonProcess() { Kill9(); }

bool DaemonProcess::Start(const std::vector<std::string>& args, Stdio stdio) {
  int to_child[2] = {-1, -1};
  int from_child[2] = {-1, -1};
  // CLOEXEC keeps these ends out of every other child this process
  // spawns (a second daemon holding the first's stdin would block its
  // EOF shutdown); dup2 clears the flag on the child's 0 and 1.
  if (stdio == Stdio::kPiped &&
      (::pipe2(to_child, O_CLOEXEC) != 0 ||
       ::pipe2(from_child, O_CLOEXEC) != 0)) {
    for (const int fd : {to_child[0], to_child[1]}) {
      if (fd >= 0) ::close(fd);
    }
    return false;
  }
  const pid_t pid = ::fork();
  if (pid == 0) {
    if (stdio == Stdio::kPiped) {
      ::dup2(to_child[0], STDIN_FILENO);
      ::dup2(from_child[1], STDOUT_FILENO);
    } else {
      const int devnull = ::open("/dev/null", O_RDONLY);
      if (devnull >= 0) {
        ::dup2(devnull, STDIN_FILENO);
        ::close(devnull);
      }
    }
    std::vector<char*> argv;
    argv.reserve(args.size() + 1);
    for (const std::string& arg : args) {
      argv.push_back(const_cast<char*>(arg.c_str()));
    }
    argv.push_back(nullptr);
    ::execv(argv[0], argv.data());
    std::cerr << "exec " << args[0] << " failed: " << ErrnoText(errno)
              << "\n";
    ::_exit(127);
  }
  if (stdio == Stdio::kPiped) {
    ::close(to_child[0]);
    ::close(from_child[1]);
    if (pid < 0) {
      ::close(to_child[1]);
      ::close(from_child[0]);
      return false;
    }
    to_daemon_ = to_child[1];
    from_daemon_ = from_child[0];
  }
  if (pid < 0) return false;
  pid_ = pid;
  exit_code_ = -1;
  return true;
}

std::pair<int, int> DaemonProcess::ReleasePipes() {
  const std::pair<int, int> pipes = {from_daemon_, to_daemon_};
  from_daemon_ = to_daemon_ = -1;
  return pipes;
}

void DaemonProcess::ClosePipes() {
  for (int* fd : {&to_daemon_, &from_daemon_}) {
    if (*fd >= 0) ::close(*fd);
    *fd = -1;
  }
}

int DaemonProcess::CloseAndWait() {
  ClosePipes();
  if (pid_ > 0) {
    int wstatus = 0;
    pid_t reaped;
    do {
      reaped = ::waitpid(pid_, &wstatus, 0);
    } while (reaped < 0 && errno == EINTR);
    exit_code_ =
        reaped == pid_ && WIFEXITED(wstatus) ? WEXITSTATUS(wstatus) : -1;
    pid_ = -1;
  }
  return exit_code_;
}

int DaemonProcess::Terminate() {
  if (pid_ > 0) ::kill(pid_, SIGTERM);
  return CloseAndWait();
}

void DaemonProcess::Kill9() {
  if (pid_ > 0) ::kill(pid_, SIGKILL);
  CloseAndWait();
}

bool DaemonProcess::Exited() {
  if (pid_ <= 0) return true;
  int wstatus = 0;
  if (::waitpid(pid_, &wstatus, WNOHANG) != pid_) return false;
  exit_code_ = WIFEXITED(wstatus) ? WEXITSTATUS(wstatus) : -1;
  pid_ = -1;
  return true;
}

int ReadPortFile(const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return 0;
  int port = 0;
  if (std::fscanf(f, "%d", &port) != 1) port = 0;
  std::fclose(f);
  return port > 0 && port < 65536 ? port : 0;
}

StatusOr<int> ConnectWithRetry(
    const std::function<StatusOr<int>()>& connect_once, DaemonProcess* daemon,
    int attempts) {
  Status last = Status::Unavailable("connect never attempted");
  for (int i = 0; i < attempts; ++i) {
    StatusOr<int> fd = connect_once();
    if (fd.ok()) return fd;
    last = fd.status();
    if (daemon != nullptr && daemon->Exited()) {
      return Status::Internal("daemon exited before accepting connections");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return last;
}

// ------------------------------------------------------------------
// ServerConnection

ServerConnection::ServerConnection(DaemonProcess& daemon) {
  const auto [read_fd, write_fd] = daemon.ReleasePipes();
  StartReader(read_fd, write_fd);
}

ServerConnection::ServerConnection(int socket_fd) {
  socket_ = true;
  StartReader(socket_fd, socket_fd);
}

void ServerConnection::StartReader(int read_fd, int write_fd) {
  read_fd_ = read_fd;
  write_fd_ = write_fd;
  reader_ = std::thread([this] { ReaderLoop(); });
}

StatusOr<JsonValue> ServerConnection::Call(JsonValue request) {
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
    // A hung-up server will not come back: stop burning backoff time
    // and let the caller report the loss.
    if (closed()) break;
  }
  return last;
}

void ServerConnection::SeedBackoff(uint64_t seed) {
  std::lock_guard<std::mutex> lock(backoff_mu_);
  backoff_rng_ = Rng(seed);
}

std::vector<std::string> ServerConnection::UnansweredIds() {
  std::lock_guard<std::mutex> lock(mu_);
  return std::vector<std::string>(pending_.begin(), pending_.end());
}

bool ServerConnection::closed() {
  std::lock_guard<std::mutex> lock(mu_);
  return closed_;
}

void ServerConnection::Shutdown() {
  if (write_fd_ >= 0) {
    if (socket_) {
      ::shutdown(write_fd_, SHUT_WR);
    } else {
      ::close(write_fd_);
    }
    write_fd_ = -1;
  }
  if (reader_.joinable()) reader_.join();
  if (read_fd_ >= 0) {
    ::close(read_fd_);
    read_fd_ = -1;
  }
}

StatusOr<JsonValue> ServerConnection::CallOnce(const std::string& id,
                                               const std::string& line) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_) return Status::Unavailable("server connection is closed");
    pending_.insert(id);
  }
  {
    std::lock_guard<std::mutex> lock(write_mu_);
    size_t off = 0;
    while (off < line.size()) {
      const ssize_t n =
          socket_ ? ::send(write_fd_, line.data() + off, line.size() - off,
                           MSG_NOSIGNAL)
                  : ::write(write_fd_, line.data() + off, line.size() - off);
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

void ServerConnection::ReaderLoop() {
  // The daemon is trusted, so lines are unbounded: a `trace` response
  // or a close with include_facts can be large.
  net::LineFramer framer(std::numeric_limits<size_t>::max());
  std::vector<std::string> lines;
  char chunk[1 << 16];
  for (;;) {
    const ssize_t n = ::read(read_fd_, chunk, sizeof chunk);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    lines.clear();
    framer.Feed(chunk, static_cast<size_t>(n), &lines);
    for (const std::string& line : lines) HandleLine(line);
  }
  std::lock_guard<std::mutex> lock(mu_);
  closed_ = true;
  cv_.notify_all();
}

void ServerConnection::HandleLine(const std::string& line) {
  StatusOr<JsonValue> parsed = JsonValue::Parse(line);
  if (!parsed.ok() || !parsed->is_object() ||
      !parsed->Get("id").is_string()) {
    garbled_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  responses_.emplace(parsed->Get("id").AsString(), std::move(parsed).value());
  cv_.notify_all();
}

// ------------------------------------------------------------------
// HTTP

StatusOr<HttpResponse> HttpExchange(const std::string& host, int port,
                                    const std::string& raw) {
  KBREPAIR_ASSIGN_OR_RETURN(const int fd, net::ConnectTcp(host, port));
  // A send error is not final: the exporter may answer (413) and close
  // before reading the whole request, so read whatever it sent.
  for (size_t off = 0; off < raw.size();) {
    const ssize_t n =
        ::send(fd, raw.data() + off, raw.size() - off, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    off += static_cast<size_t>(n);
  }
  std::string wire;
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    wire.append(chunk, static_cast<size_t>(n));
  }
  ::close(fd);
  const size_t split = wire.find("\r\n\r\n");
  HttpResponse response;
  if (wire.compare(0, 9, "HTTP/1.1 ") == 0 && split != std::string::npos) {
    response.status = std::atoi(wire.c_str() + 9);
  }
  if (response.status <= 0) {
    return Status::Unavailable("no complete HTTP response from " + host + ":" +
                               std::to_string(port));
  }
  response.head = wire.substr(0, split);
  response.body = wire.substr(split + 4);
  return response;
}

StatusOr<HttpResponse> HttpGet(const std::string& host, int port,
                               const std::string& path) {
  return HttpExchange(host, port,
                      "GET " + path + " HTTP/1.1\r\nHost: " + host +
                          "\r\nConnection: close\r\n\r\n");
}

// ------------------------------------------------------------------
// Validators

namespace {

bool ValidMetricName(const std::string& name) {
  if (name.empty()) return false;
  for (size_t i = 0; i < name.size(); ++i) {
    const char c = name[i];
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9' && i > 0) || c == '_' || c == ':';
    if (!ok) return false;
  }
  return true;
}

}  // namespace

std::string ParseExposition(const std::string& body,
                            std::map<std::string, double>* series) {
  if (body.empty()) return "empty exposition";
  size_t line_no = 0;
  for (size_t start = 0; start < body.size();) {
    const std::string where = "line " + std::to_string(++line_no) + ": ";
    const size_t end = body.find('\n', start);
    if (end == std::string::npos) return where + "missing trailing newline";
    const std::string line = body.substr(start, end - start);
    start = end + 1;
    if (line.empty()) return where + "blank line";
    if (line[0] == '#') {
      if (line.compare(0, 7, "# HELP ") == 0 ||
          line.compare(0, 7, "# TYPE ") == 0) {
        continue;
      }
      return where + "unknown comment form: " + line;
    }
    // NAME or NAME{labels}, one space, a floating-point value.
    const size_t space = line.rfind(' ');
    if (space == std::string::npos || space == 0) {
      return where + "no value: " + line;
    }
    const std::string key = line.substr(0, space);
    const size_t brace = key.find('{');
    if (brace != std::string::npos && key.back() != '}') {
      return where + "unbalanced labels: " + line;
    }
    if (!ValidMetricName(key.substr(0, brace))) {
      return where + "bad metric name: " + line;
    }
    const char* value = line.c_str() + space + 1;
    char* value_end = nullptr;
    const double parsed = std::strtod(value, &value_end);
    if (value_end == value || *value_end != '\0') {
      return where + "bad value: " + line;
    }
    if (!series->emplace(key, parsed).second) {
      return where + "duplicate series: " + key;
    }
  }
  return "";
}

std::string ValidateSpanTree(const JsonValue& spans_json, bool expect_wal,
                             std::vector<SpanInfo>* spans_by_id) {
  if (!spans_json.is_array() || spans_json.size() == 0) {
    return "trace: no spans returned";
  }
  std::vector<SpanInfo> spans;
  spans.reserve(spans_json.size());
  for (size_t i = 0; i < spans_json.size(); ++i) {
    const JsonValue& json = spans_json.at(i);
    const int64_t id = json.Get("id").AsInt(0);
    const int64_t parent = json.Get("parent").AsInt(-1);
    SpanInfo info;
    info.name = json.Get("name").AsString();
    info.detail = json.Get("detail").AsString();
    info.start_us = json.Get("start_us").AsInt(-1);
    info.dur_us = json.Get("dur_us").AsInt(-1);
    if (id <= 0 || parent < 0 || info.name.empty() || info.start_us < 0 ||
        info.dur_us < 0) {
      return "trace: malformed span at index " + std::to_string(i);
    }
    info.id = static_cast<uint64_t>(id);
    info.parent = static_cast<uint64_t>(parent);
    if (info.parent >= info.id) {
      return "trace: span " + std::to_string(info.id) +
             " has parent id >= its own";
    }
    spans.push_back(std::move(info));
  }
  std::sort(spans.begin(), spans.end(),
            [](const SpanInfo& a, const SpanInfo& b) { return a.id < b.id; });
  const auto find = [&](uint64_t id) -> const SpanInfo* {
    auto it = std::lower_bound(
        spans.begin(), spans.end(), id,
        [](const SpanInfo& span, uint64_t key) { return span.id < key; });
    return it != spans.end() && it->id == id ? &*it : nullptr;
  };
  std::set<std::string> names;
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanInfo& span = spans[i];
    if (i > 0 && spans[i - 1].id == span.id) {
      return "trace: duplicate span id " + std::to_string(span.id);
    }
    names.insert(span.name);
    const SpanInfo* parent = span.parent == 0 ? nullptr : find(span.parent);
    if (parent != nullptr &&
        (span.start_us < parent->start_us ||
         span.start_us + span.dur_us >
             parent->start_us + parent->dur_us + 1)) {
      return "trace: span '" + span.name + "' not nested inside parent '" +
             parent->name + "'";
    }
  }

  std::vector<std::string> required = {
      "rpc.create",    "rpc.ask",     "rpc.answer",
      "rpc.close",     "session.ask", "session.answer",
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
  // the step is non-decreasing in creation (id) order. A step going
  // backwards would mean the daemon re-ran an earlier question.
  std::map<std::string, std::pair<int64_t, uint64_t>> last_step;
  for (const SpanInfo& span : spans) {
    if (span.name != "session.ask" && span.name != "session.answer") continue;
    std::string session;
    int64_t step = -1;
    std::istringstream detail(span.detail);
    std::string token;
    while (detail >> token) {
      if (token.rfind("session=", 0) == 0) session = token.substr(8);
      if (token.rfind("step=", 0) == 0) step = std::atoll(token.c_str() + 5);
    }
    if (session.empty() || step <= 0) {
      return "trace: span '" + span.name + "' (id " + std::to_string(span.id) +
             ") lacks session=/step= detail: '" + span.detail + "'";
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
  if (spans_by_id != nullptr) *spans_by_id = std::move(spans);
  return "";
}

// ------------------------------------------------------------------
// The oracle

StatusOr<std::vector<std::string>> ReplayRandomDialogue(
    const JsonValue& create_params, uint64_t seed) {
  std::string label;
  KBREPAIR_ASSIGN_OR_RETURN(KnowledgeBase kb,
                            BuildKbFromParams(create_params, &label));
  KBREPAIR_ASSIGN_OR_RETURN(InquiryOptions options,
                            InquiryOptionsFromParams(create_params));
  InquiryEngine engine(&kb, options);
  KBREPAIR_RETURN_IF_ERROR(engine.Begin());
  Rng rng(seed);
  for (;;) {
    KBREPAIR_ASSIGN_OR_RETURN(const Question* question, engine.NextQuestion());
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

Status CheckAgainstOracle(const JsonValue& closed,
                          const JsonValue& create_params, uint64_t seed) {
  if (!closed.Get("consistent").AsBool(false)) {
    return Status::Internal("closed inconsistent");
  }
  KBREPAIR_ASSIGN_OR_RETURN(std::vector<std::string> oracle,
                            ReplayRandomDialogue(create_params, seed));
  const JsonValue& facts = closed.Get("facts");
  if (!facts.is_array() || facts.size() != oracle.size()) {
    return Status::Internal("service repaired " +
                            std::to_string(facts.size()) + " facts, oracle " +
                            std::to_string(oracle.size()));
  }
  for (size_t i = 0; i < oracle.size(); ++i) {
    if (facts.at(i).AsString() != oracle[i]) {
      return Status::Internal("fact " + std::to_string(i) +
                              " diverged: service '" + facts.at(i).AsString() +
                              "' vs oracle '" + oracle[i] + "'");
    }
  }
  return Status::Ok();
}

StatusOr<size_t> DriveRandomDialogue(const RequestFn& call,
                                     const JsonValue& create_params,
                                     const JsonValue& oracle_params,
                                     uint64_t seed) {
  KBREPAIR_ASSIGN_OR_RETURN(JsonValue created, call(create_params));
  const std::string session = created.Get("session").AsString();
  if (session.empty()) return Status::Internal("create returned no session");
  const auto command = [&](const char* name) {
    JsonValue params = JsonValue::Object();
    params.Set("command", JsonValue::String(name));
    params.Set("session", JsonValue::String(session));
    return params;
  };
  Rng rng(seed);
  size_t answered = 0;
  for (;;) {
    KBREPAIR_ASSIGN_OR_RETURN(JsonValue asked, call(command("ask")));
    if (asked.Get("done").AsBool(false)) break;
    const int64_t num_fixes = asked.Get("question").Get("num_fixes").AsInt(0);
    if (num_fixes <= 0) {
      return Status::Internal("question with no fixes on " + session);
    }
    JsonValue answer = command("answer");
    answer.Set("choice",
               JsonValue::Number(static_cast<int64_t>(
                   rng.UniformIndex(static_cast<size_t>(num_fixes)))));
    KBREPAIR_RETURN_IF_ERROR(call(std::move(answer)).status());
    if (++answered > 100000) {
      return Status::Internal("session " + session + " does not converge");
    }
  }
  JsonValue close = command("close");
  close.Set("include_facts", JsonValue::Bool(true));
  KBREPAIR_ASSIGN_OR_RETURN(JsonValue closed, call(std::move(close)));
  const Status verdict = CheckAgainstOracle(closed, oracle_params, seed);
  if (!verdict.ok()) {
    return Status::Internal("session " + session + ": " + verdict.message());
  }
  return answered;
}

}  // namespace kbrepair
