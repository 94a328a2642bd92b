// The service-mixed workload: kbrepaird over a Unix socket.
//
// Set-up spawns `kbrepaird --shards 2 --workers 1 --wal-dir DIR` (WAL
// fsync'd per answer, the daemon's own policy) and registers one shared
// base of about 600 atoms from DLGP text; setup_s is the median over
// several such start-and-register cycles.
//
// Sessions then arrive open-loop: a seeded Poisson schedule at a fixed
// rate. 80% fork the shared base (`create` with "base"), 20% create a
// private ~120-atom KB from DLGP text. Each session asks, answers with a
// seeded uniform choice after a seeded exponential think time, and
// closes once its base is consistent; each close of the nominal phase
// returns the repair, which is parsed back and re-checked. One client process drives them
// with at most two threads, each owning one connection and half the
// sessions in a poll loop. Every request is timed from the moment it was
// due, not from when it was sent, so a stalled generator or daemon
// charges the wait to the requests behind it; how late the generator
// sent is reported separately.
//
// After the nominal-rate phase the untraced run checks and stops that
// daemon, then probes the SLO ladder against a fresh one: the highest
// offered rate at which the turn p99 stays within 50 ms and the
// open-session backlog does not grow. The traced run instead
// repeats the nominal phase against a second daemon started with
// --trace-dir, drains its spans with the `trace` command, and joins them
// to the client's round trips on their session=/step= annotations.

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <queue>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "gen/synthetic.h"
#include "parser/dlgp_parser.h"
#include "repair/consistency.h"
#include "report.h"
#include "service/net/framer.h"
#include "service/protocol.h"
#include "slo.h"
#include "spans.h"
#include "stats.h"
#include "util/json.h"
#include "util/net.h"
#include "util/rng.h"

namespace kbbench {
namespace {

using kbrepair::JsonValue;
using kbrepair::Status;
using kbrepair::StatusOr;

// The workload, frozen.
constexpr double kNominalRate = 15.0;      // sessions per second
constexpr double kForkShare = 0.8;
constexpr double kThinkMeanMs = 50.0;
constexpr size_t kPrivateKbs = 8;
constexpr int kSetupCycles = 3;
constexpr int kMaxAttempts = 6;            // first send + 5 retries
constexpr double kTurnP99LimitMs = 50.0;
constexpr double kLadderLo = 8.0;          // sessions per second
constexpr double kLadderHi = 1000.0;
constexpr size_t kLadderTurns = 1500;      // target turns per ladder probe
constexpr double kLadderBudgetS = 40.0;    // no probe starts after this
constexpr size_t kRecordedLines = 4000;    // lines re-timed for the protocol layer

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double NsToMs(int64_t ns) { return static_cast<double>(ns) / 1e6; }

// ------------------------------------------------------------------
// Inputs, all drawn from the workload seed.

kbrepair::SyntheticKbOptions BaseKbOptions(uint64_t seed, size_t facts) {
  kbrepair::SyntheticKbOptions gen;
  gen.seed = seed;
  gen.num_facts = facts;
  // Binary CDDs, one ground variant per cluster atom and no TGDs: the
  // conflicts are then disjoint and their number is fixed by the size, so
  // one seed's base takes as many questions as another's. Engine work per
  // turn stays small; the deep chase is deep-chase-incremental's.
  gen.inconsistency_ratio = 0.05;
  gen.num_cdds = 20;
  gen.cdd_min_atoms = 2;
  gen.cdd_max_atoms = 2;
  gen.min_multiplicity = 1;
  gen.max_multiplicity = 1;
  gen.min_arity = 2;
  gen.max_arity = 4;
  return gen;
}

struct KbText {
  std::string dlgp;   // facts and rules
  std::string rules;  // rules only, to re-check a returned repair
};

StatusOr<KbText> MakeKbText(uint64_t seed, size_t facts) {
  KBREPAIR_ASSIGN_OR_RETURN(kbrepair::SyntheticKb generated,
                            kbrepair::GenerateSyntheticKb(
                                BaseKbOptions(seed, facts)));
  KbText text;
  text.dlgp = kbrepair::PrintDlgp(generated.kb);
  generated.kb.facts() = kbrepair::FactBase();
  text.rules = kbrepair::PrintDlgp(generated.kb);
  return text;
}

struct Inputs {
  KbText base;
  std::vector<KbText> privates;
};

struct SessionPlan {
  int64_t arrival_ns = 0;  // offset from the phase start
  bool fork = true;
  size_t private_kb = 0;
  uint64_t engine_seed = 0;
  uint64_t user_seed = 0;
};

// Poisson arrivals at `rate` over `window_s`.
std::vector<SessionPlan> Schedule(uint64_t seed, double rate, double window_s) {
  kbrepair::Rng rng(seed);
  std::vector<SessionPlan> plans;
  double t = 0.0;
  while (true) {
    t += -std::log(1.0 - rng.UniformDouble()) / rate;
    if (t >= window_s) break;
    SessionPlan plan;
    plan.arrival_ns = static_cast<int64_t>(t * 1e9);
    plan.fork = rng.Bernoulli(kForkShare);
    plan.private_kb = rng.UniformIndex(kPrivateKbs);
    plan.engine_seed = rng.UniformIndex(1000000) + 1;
    plan.user_seed = rng.NextSeed();
    plans.push_back(plan);
  }
  return plans;
}

// ------------------------------------------------------------------
// Daemon process.

class Daemon {
 public:
  ~Daemon() { Stop(); }

  Status Start(const std::string& binary, const std::string& dir,
               bool traced) {
    ::mkdir(dir.c_str(), 0755);
    socket_path_ = dir + "/d.sock";
    trace_dir_ = dir + "/trace";
    const std::string wal_dir = dir + "/wal";
    ::mkdir(wal_dir.c_str(), 0755);
    std::vector<std::string> args = {binary,       "--listen-unix",
                                     socket_path_, "--shards",
                                     "2",          "--workers",
                                     "1",          "--wal-dir",
                                     wal_dir,      "--log-level",
                                     "warn",       "--log-file",
                                     dir + "/daemon.log"};
    if (traced) {
      ::mkdir(trace_dir_.c_str(), 0755);
      args.push_back("--trace-dir");
      args.push_back(trace_dir_);
    }
    pid_ = ::fork();
    if (pid_ < 0) return Status::Internal("fork failed");
    if (pid_ == 0) {
      const int devnull = ::open("/dev/null", O_RDWR);
      if (devnull >= 0) {
        ::dup2(devnull, STDIN_FILENO);
        ::dup2(devnull, STDOUT_FILENO);
        ::close(devnull);
      }
      std::vector<char*> argv;
      for (std::string& arg : args) argv.push_back(arg.data());
      argv.push_back(nullptr);
      ::execv(argv[0], argv.data());
      _exit(127);
    }
    return Status::Ok();
  }

  // Connects, retrying while the daemon binds its socket.
  StatusOr<int> Connect() const {
    for (int i = 0; i < 1000; ++i) {
      StatusOr<int> fd = kbrepair::net::ConnectUnix(socket_path_);
      if (fd.ok()) return fd;
      int wstatus = 0;
      if (::waitpid(pid_, &wstatus, WNOHANG) == pid_) {
        return Status::Internal("kbrepaird exited at start-up");
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return Status::Unavailable("kbrepaird never accepted a connection");
  }

  // SIGTERM, then wait; SIGKILL after 10 s. True on a clean exit.
  bool Stop() {
    if (pid_ <= 0) return true;
    ::kill(pid_, SIGTERM);
    int wstatus = 0;
    bool exited = false;
    for (int i = 0; i < 1000 && !exited; ++i) {
      exited = ::waitpid(pid_, &wstatus, WNOHANG) == pid_;
      if (!exited) std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    if (!exited) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &wstatus, 0);
    }
    pid_ = -1;
    return exited && WIFEXITED(wstatus) && WEXITSTATUS(wstatus) == 0;
  }

  int pid() const { return pid_; }
  const std::string& trace_dir() const { return trace_dir_; }

 private:
  pid_t pid_ = -1;
  std::string socket_path_;
  std::string trace_dir_;
};

// A blocking connection for set-up and ledger commands.
class Control {
 public:
  explicit Control(int fd) : fd_(fd) {}
  ~Control() { ::close(fd_); }

  StatusOr<JsonValue> Call(JsonValue request) {
    request.Set("id", JsonValue::String("ctl-" + std::to_string(next_++)));
    const std::string line = request.Dump() + "\n";
    for (size_t off = 0; off < line.size();) {
      const ssize_t n = ::write(fd_, line.data() + off, line.size() - off);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return Status::Unavailable("control write failed");
      off += static_cast<size_t>(n);
    }
    std::vector<std::string> lines;
    char chunk[1 << 16];
    while (lines.empty()) {
      const ssize_t n = ::read(fd_, chunk, sizeof chunk);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return Status::Unavailable("control connection closed");
      if (!framer_.Feed(chunk, static_cast<size_t>(n), &lines)) {
        return Status::Internal("oversized control response");
      }
    }
    KBREPAIR_ASSIGN_OR_RETURN(JsonValue response, JsonValue::Parse(lines[0]));
    if (!response.Get("ok").AsBool()) {
      return Status::Internal("control " + request.Get("command").AsString() +
                              " failed: " + lines[0]);
    }
    return response.Get("result");
  }

 private:
  int fd_;
  uint64_t next_ = 1;
  kbrepair::net::LineFramer framer_{size_t{1} << 26};
};

// ------------------------------------------------------------------
// One open-loop phase.

struct PhaseOptions {
  double window_s = 0.0;  // sessions arrive over [0, window_s)
  // The backlog is sampled over two equal spans of [ramp_s, window_s):
  // after the sessions that arrived first have had time to finish.
  double ramp_s = 0.0;
  bool record = false;         // keep turns and lines for the traced report
  bool check_repairs = false;  // ask every close for its repair
  double drain_limit_s = 60.0;  // after the window, for the last sessions
};

struct TurnRecord {
  std::string session;
  bool answer = false;
  int step = 0;
  double rtt_sent_ms = 0.0;  // response time minus send time
};

struct PhaseResult {
  Samples turn_ms;  // ask and answer round trips, from due time
  Samples ask_ms;
  Samples answer_ms;
  Samples delay_ms;  // first ask, then each answer + following ask
  Samples first_question_ms;
  Samples late_ms;
  Samples fork_create_ms;
  Samples private_create_ms;
  Samples questions;  // per closed session
  Samples lifetime_ms;  // scheduled arrival to close
  size_t planned = 0;
  size_t closed = 0;
  size_t retries = 0;
  size_t rejected = 0;
  size_t attempted = 0;
  size_t failed = 0;
  std::vector<std::string> failures;
  double backlog_mid = 0.0;
  double backlog_end = 0.0;
  size_t peak_open = 0;
  std::vector<TurnRecord> turns;
  // Per plan index: a digest of every question text and choice.
  std::vector<uint64_t> dialogue_digest;
  // Request lines and response results, re-timed for the protocol layer.
  std::vector<std::pair<std::string, JsonValue>> lines;
  // Repairs returned by `close` with include_facts: (plan index, facts).
  std::vector<std::pair<size_t, JsonValue>> repairs;

  void Merge(PhaseResult&& other) {
    for (auto [mine, theirs] :
         {std::pair{&turn_ms, &other.turn_ms}, {&ask_ms, &other.ask_ms},
          {&answer_ms, &other.answer_ms}, {&delay_ms, &other.delay_ms},
          {&first_question_ms, &other.first_question_ms},
          {&late_ms, &other.late_ms}, {&fork_create_ms, &other.fork_create_ms},
          {&private_create_ms, &other.private_create_ms},
          {&questions, &other.questions},
          {&lifetime_ms, &other.lifetime_ms}}) {
      mine->Append(*theirs);
    }
    closed += other.closed;
    retries += other.retries;
    rejected += other.rejected;
    attempted += other.attempted;
    failed += other.failed;
    for (std::string& why : other.failures) failures.push_back(std::move(why));
    backlog_mid += other.backlog_mid;
    backlog_end += other.backlog_end;
    peak_open += other.peak_open;
    for (TurnRecord& turn : other.turns) turns.push_back(std::move(turn));
    for (size_t i = 0; i < other.dialogue_digest.size(); ++i) {
      dialogue_digest[i] ^= other.dialogue_digest[i];
    }
    for (auto& line : other.lines) lines.push_back(std::move(line));
    for (auto& repair : other.repairs) repairs.push_back(std::move(repair));
  }
};

uint64_t Fnv(uint64_t h, const std::string& text) {
  for (const unsigned char c : text) h = (h ^ c) * 1099511628211ULL;
  return h;
}

// One client thread: the sessions of `plans` whose index is congruent
// to `lane` modulo `lanes`, over one connection, in a poll loop.
class Lane {
 public:
  Lane(int fd, size_t lane, size_t lanes, const std::vector<SessionPlan>& plans,
       const Inputs& inputs, int64_t start_ns, const PhaseOptions& options)
      : fd_(fd),
        lane_(lane),
        plans_(plans),
        inputs_(inputs),
        start_ns_(start_ns),
        window_ns_(static_cast<int64_t>(options.window_s * 1e9)),
        ramp_ns_(static_cast<int64_t>(options.ramp_s * 1e9)),
        record_(options.record),
        check_repairs_(options.check_repairs) {
    result_.planned = plans.size();
    result_.dialogue_digest.assign(plans.size(), 0);
    for (size_t i = lane; i < plans.size(); i += lanes) {
      sessions_.emplace(i, SessionState(plans[i].user_seed));
      Push(start_ns + plans[i].arrival_ns, i, Action::kCreate);
      ++remaining_;
    }
  }

  void Run(int64_t deadline_ns) {
    kbrepair::net::LineFramer framer(size_t{1} << 26);
    std::vector<std::string> lines;
    char chunk[1 << 16];
    int64_t next_sample_ns = start_ns_;
    size_t samples[2] = {0, 0};
    double sums[2] = {0.0, 0.0};
    while (remaining_ > 0) {
      int64_t now = NowNs();
      if (now > deadline_ns) {
        Fail(std::to_string(remaining_) + " sessions unfinished at deadline");
        result_.failed += remaining_;
        return;
      }
      while (!events_.empty() && events_.top().due_ns <= now) {
        const Event event = events_.top();
        events_.pop();
        if (!Send(event, now)) return;
      }
      // Backlog samples over the two halves of [ramp, window).
      const int64_t offset = now - start_ns_;
      if (now >= next_sample_ns && offset >= ramp_ns_ && offset < window_ns_) {
        const int span = offset < (ramp_ns_ + window_ns_) / 2 ? 0 : 1;
        sums[span] += static_cast<double>(open_);
        samples[span] += 1;
        next_sample_ns = now + 10'000'000;
      }
      int64_t wait_ns = 50'000'000;
      if (!events_.empty()) {
        wait_ns = std::min(wait_ns, events_.top().due_ns - NowNs());
      }
      if (now < start_ns_ + window_ns_) {
        wait_ns = std::min(wait_ns, next_sample_ns - NowNs());
      }
      wait_ns = std::max<int64_t>(wait_ns, 0);
      pollfd pfd{fd_, POLLIN, 0};
      const timespec timeout{static_cast<time_t>(wait_ns / 1'000'000'000),
                             static_cast<long>(wait_ns % 1'000'000'000)};
      const int ready = ::ppoll(&pfd, 1, &timeout, nullptr);
      if (ready <= 0) continue;
      const ssize_t n = ::read(fd_, chunk, sizeof chunk);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) {
        Fail("daemon closed the connection");
        result_.failed += remaining_;
        return;
      }
      lines.clear();
      if (!framer.Feed(chunk, static_cast<size_t>(n), &lines)) {
        Fail("oversized response line");
        return;
      }
      const int64_t received = NowNs();
      for (const std::string& line : lines) {
        if (!Receive(line, received)) return;
      }
    }
    for (int span = 0; span < 2; ++span) {
      const double mean = samples[span] == 0
                              ? 0.0
                              : sums[span] / static_cast<double>(samples[span]);
      (span == 0 ? result_.backlog_mid : result_.backlog_end) = mean;
    }
  }

  PhaseResult&& result() { return std::move(result_); }

 private:
  enum class Action { kCreate, kAsk, kAnswer, kClose, kResend };

  struct SessionState {
    explicit SessionState(uint64_t seed) : rng(seed) {}
    kbrepair::Rng rng;
    std::string id;
    int answered = 0;
    int choice = 0;
    bool asked = false;
    double answer_ms = -1.0;  // last answer round trip, awaiting its ask
  };

  struct Event {
    int64_t due_ns;
    uint64_t seq;
    size_t plan;
    Action action;
    std::string resend_id;
    bool operator>(const Event& other) const {
      return due_ns != other.due_ns ? due_ns > other.due_ns : seq > other.seq;
    }
  };

  struct InFlight {
    size_t plan = 0;
    Action action = Action::kCreate;
    std::string line;
    int64_t due_ns = 0;   // when the request was first due
    int64_t sent_ns = 0;  // last send
    int attempts = 0;
    int step = 0;
  };

  void Push(int64_t due_ns, size_t plan, Action action,
            std::string resend_id = "") {
    events_.push(Event{due_ns, next_seq_++, plan, action, std::move(resend_id)});
  }

  void Fail(const std::string& why) {
    if (result_.failures.size() < 8) result_.failures.push_back(why);
  }

  JsonValue CreateRequest(const SessionPlan& plan) const {
    JsonValue request = JsonValue::Object();
    request.Set("command", JsonValue::String("create"));
    if (plan.fork) {
      request.Set("base", JsonValue::String("bench"));
    } else {
      request.Set("kb_dlgp",
                  JsonValue::String(inputs_.privates[plan.private_kb].dlgp));
    }
    request.Set("strategy", JsonValue::String("opti-mcd"));
    request.Set("engine", JsonValue::String("incremental"));
    request.Set("seed",
                JsonValue::Number(static_cast<uint64_t>(plan.engine_seed)));
    return request;
  }

  bool Send(const Event& event, int64_t now) {
    std::string id = event.resend_id;
    InFlight* entry = nullptr;
    if (event.action == Action::kResend) {
      entry = &in_flight_[id];
    } else {
      SessionState& session = sessions_.at(event.plan);
      JsonValue request = JsonValue::Object();
      if (event.action == Action::kCreate) {
        request = CreateRequest(plans_[event.plan]);
        ++open_;
        result_.peak_open = std::max(result_.peak_open, open_);
      } else {
        request.Set("command",
                    JsonValue::String(event.action == Action::kAsk ? "ask"
                                      : event.action == Action::kAnswer
                                          ? "answer"
                                          : "close"));
        request.Set("session", JsonValue::String(session.id));
        if (event.action == Action::kAnswer) {
          request.Set("choice", JsonValue::Number(
                                    static_cast<int64_t>(session.choice)));
        }
        if (event.action == Action::kClose && check_repairs_) {
          request.Set("include_facts", JsonValue::Bool(true));
        }
      }
      id = "l" + std::to_string(lane_) + "-" + std::to_string(next_id_++);
      request.Set("id", JsonValue::String(id));
      entry = &in_flight_[id];
      entry->plan = event.plan;
      entry->action = event.action;
      entry->line = request.Dump() + "\n";
      entry->due_ns = event.due_ns;
      entry->step = session.answered + 1;
    }
    entry->attempts += 1;
    entry->sent_ns = now;
    if (entry->attempts == 1) {
      result_.late_ms.Add(NsToMs(now - entry->due_ns));
      result_.attempted += 1;
    }
    const std::string& line = entry->line;
    for (size_t off = 0; off < line.size();) {
      const ssize_t n = ::write(fd_, line.data() + off, line.size() - off);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) {
        Fail("write to daemon failed");
        result_.failed += remaining_;
        return false;
      }
      off += static_cast<size_t>(n);
    }
    return true;
  }

  bool Receive(const std::string& line, int64_t now) {
    StatusOr<JsonValue> response = JsonValue::Parse(line);
    if (!response.ok()) {
      Fail("garbled response line");
      return false;
    }
    const std::string id = response->Get("id").AsString();
    const auto it = in_flight_.find(id);
    if (it == in_flight_.end()) {
      Fail("response for unknown id " + id);
      return false;
    }
    InFlight entry = it->second;
    const size_t plan = entry.plan;
    SessionState& session = sessions_.at(plan);
    if (!response->Get("ok").AsBool()) {
      const std::string code = response->Get("error").Get("code").AsString();
      const bool retryable = code == "Unavailable" ||
                             code == "ResourceExhausted" ||
                             code == "DeadlineExceeded";
      if (retryable && entry.attempts < kMaxAttempts) {
        ++result_.retries;
        const int64_t backoff_ns = int64_t{2'000'000} << entry.attempts;
        Push(now + backoff_ns, plan, Action::kResend, id);
        return true;
      }
      ++result_.rejected;
      ++result_.failed;
      Fail("request refused [" + code + "]: " +
           response->Get("error").Get("message").AsString());
      in_flight_.erase(it);
      // The session cannot continue; it is not closed and counts as
      // unfinished.
      --remaining_;
      return true;
    }
    in_flight_.erase(it);
    const JsonValue& result = response->Get("result");
    const double rtt_ms = NsToMs(now - entry.due_ns);
    if (record_ && result_.lines.size() < kRecordedLines &&
        (entry.action == Action::kAsk || entry.action == Action::kAnswer)) {
      result_.lines.emplace_back(entry.line.substr(0, entry.line.size() - 1),
                                 result);
    }
    switch (entry.action) {
      case Action::kCreate: {
        session.id = result.Get("session").AsString();
        (plans_[plan].fork ? result_.fork_create_ms
                           : result_.private_create_ms)
            .Add(rtt_ms);
        Push(now, plan, Action::kAsk);
        break;
      }
      case Action::kAsk: {
        RecordTurn(session, entry, false, rtt_ms, now);
        if (!session.asked) {
          session.asked = true;
          result_.first_question_ms.Add(
              NsToMs(now - start_ns_ - plans_[plan].arrival_ns));
        }
        if (result.Get("done").AsBool()) {
          result_.questions.Add(result.Get("questions").AsDouble());
          Push(now, plan, Action::kClose);
          break;
        }
        result_.delay_ms.Add(rtt_ms +
                             std::max(session.answer_ms, 0.0));
        session.answer_ms = -1.0;
        const JsonValue& question = result.Get("question");
        const int64_t fixes = question.Get("num_fixes").AsInt();
        if (fixes <= 0) {
          Fail("question without fixes");
          ++result_.failed;
          --remaining_;
          break;
        }
        session.choice = static_cast<int>(
            session.rng.UniformIndex(static_cast<size_t>(fixes)));
        result_.dialogue_digest[plan] =
            Fnv(Fnv(result_.dialogue_digest[plan] ^ 14695981039346656037ULL,
                    question.Dump()),
                std::to_string(session.choice));
        const double think_ms =
            -kThinkMeanMs * std::log(1.0 - session.rng.UniformDouble());
        Push(now + static_cast<int64_t>(think_ms * 1e6), plan,
             Action::kAnswer);
        break;
      }
      case Action::kAnswer: {
        RecordTurn(session, entry, true, rtt_ms, now);
        session.answer_ms = rtt_ms;
        session.answered += 1;
        Push(now, plan, Action::kAsk);
        break;
      }
      case Action::kClose: {
        if (!result.Get("consistent").AsBool()) {
          Fail("session " + session.id + " closed inconsistent");
          ++result_.failed;
        }
        if (result.Has("facts")) result_.repairs.emplace_back(plan, result.Get("facts"));
        result_.lifetime_ms.Add(NsToMs(now - start_ns_ - plans_[plan].arrival_ns));
        ++result_.closed;
        --open_;
        --remaining_;
        break;
      }
      case Action::kResend:
        break;
    }
    return true;
  }

  void RecordTurn(const SessionState& session, const InFlight& entry,
                  bool answer, double rtt_ms, int64_t now) {
    result_.turn_ms.Add(rtt_ms);
    (answer ? result_.answer_ms : result_.ask_ms).Add(rtt_ms);
    if (record_) {
      result_.turns.push_back(TurnRecord{session.id, answer, entry.step,
                                         NsToMs(now - entry.sent_ns)});
    }
  }

  int fd_;
  size_t lane_;
  const std::vector<SessionPlan>& plans_;
  const Inputs& inputs_;
  int64_t start_ns_;
  int64_t window_ns_;
  int64_t ramp_ns_;
  bool record_;
  bool check_repairs_;
  std::map<size_t, SessionState> sessions_;
  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> events_;
  std::unordered_map<std::string, InFlight> in_flight_;
  uint64_t next_seq_ = 0;
  uint64_t next_id_ = 1;
  size_t remaining_ = 0;
  size_t open_ = 0;
  PhaseResult result_;
};

size_t Lanes() {
  const long cpus = ::sysconf(_SC_NPROCESSORS_ONLN);
  return cpus >= 2 ? 2 : 1;
}

// Runs `plans` against the daemon; every session runs to its close.
PhaseResult RunPhase(const Daemon& daemon, const std::vector<SessionPlan>& plans,
                     const Inputs& inputs, const PhaseOptions& options) {
  PhaseResult merged;
  merged.planned = plans.size();
  merged.dialogue_digest.assign(plans.size(), 0);
  const size_t lanes = Lanes();
  std::vector<int> fds;
  for (size_t i = 0; i < lanes; ++i) {
    StatusOr<int> fd = daemon.Connect();
    if (!fd.ok()) {
      merged.failures.push_back(fd.status().ToString());
      merged.failed += plans.size();
      for (int open : fds) ::close(open);
      return merged;
    }
    fds.push_back(*fd);
  }
  const int64_t start_ns = NowNs() + 5'000'000;
  const int64_t deadline_ns =
      start_ns +
      static_cast<int64_t>((options.window_s + options.drain_limit_s) * 1e9);
  std::vector<std::unique_ptr<Lane>> lane_objects;
  for (size_t i = 0; i < lanes; ++i) {
    lane_objects.push_back(std::make_unique<Lane>(
        fds[i], i, lanes, plans, inputs, start_ns, options));
  }
  std::vector<std::thread> threads;
  for (size_t i = 1; i < lanes; ++i) {
    threads.emplace_back([&, i] { lane_objects[i]->Run(deadline_ns); });
  }
  lane_objects[0]->Run(deadline_ns);
  for (std::thread& thread : threads) thread.join();
  for (auto& lane : lane_objects) merged.Merge(lane->result());
  for (int fd : fds) ::close(fd);
  return merged;
}

// ------------------------------------------------------------------
// The run.

class ServiceRun {
 public:
  ServiceRun(const RunOptions& options, RunOutcome* outcome)
      : options_(options), outcome_(outcome) {}

  void Run() {
    ::mkdir(options_.work_dir.c_str(), 0755);
    run_dir_ = options_.work_dir + "/service-" + std::to_string(::getpid());
    ::mkdir(run_dir_.c_str(), 0755);
    if (!MakeInputs()) return;

    // Set-up, several times: daemon start to register-base done.
    Samples setup_s;
    std::unique_ptr<Daemon> daemon;
    for (int cycle = 0; cycle < kSetupCycles; ++cycle) {
      daemon = std::make_unique<Daemon>();
      const std::string dir = run_dir_ + "/setup-" + std::to_string(cycle);
      const int64_t start = NowNs();
      if (!StartAndRegister(daemon.get(), dir, false)) return;
      setup_s.Add(NsToMs(NowNs() - start) / 1000.0);
      if (cycle + 1 < kSetupCycles && !StopClean(daemon.get())) return;
    }

    const double window_s = options_.trace ? options_.seconds / 2
                                           : options_.seconds;
    const std::vector<SessionPlan> plans =
        Schedule(MixSeed(options_.seed, 7), kNominalRate, window_s);
    PhaseOptions phase;
    phase.window_s = window_s;
    phase.ramp_s = 0.4 * window_s;
    phase.record = options_.trace;
    phase.check_repairs = true;
    PhaseResult nominal = RunPhase(*daemon, plans, inputs_, phase);
    Absorb(nominal, "nominal");
    CheckRepairs(nominal, plans);

    if (!options_.trace) {
      // Before the ladder, whose peak concurrency depends on the rates
      // it happens to probe.
      const double peak_rss_mb = PeakRssMb(daemon->pid());
      CheckLedger(daemon.get());
      if (!StopClean(daemon.get())) return;
      RunLadder(nominal);
      ReportEndToEnd(nominal, setup_s, peak_rss_mb);
      return;
    }

    // Traced: the same schedule against a daemon recording spans.
    CheckLedger(daemon.get());
    if (!StopClean(daemon.get())) return;
    Daemon traced;
    if (!StartAndRegister(&traced, run_dir_ + "/traced", true)) return;
    const double traced_setup_rss_kb = RssKb(traced.pid());
    phase.record = true;
    PhaseResult traced_phase = RunPhase(traced, plans, inputs_, phase);
    Absorb(traced_phase, "traced");
    CheckRepairs(traced_phase, plans);
    if (traced_phase.dialogue_digest != nominal.dialogue_digest) {
      Fail("traced dialogues differ from the untraced ones");
    }
    ReportPerLayer(&traced, nominal, traced_phase, traced_setup_rss_kb);
    CheckLedger(&traced);
    StopClean(&traced);
  }

 private:
  void Fail(const std::string& why) {
    outcome_->CountFailure();
    outcome_->Fail(why);
  }

  bool MakeInputs() {
    StatusOr<KbText> base = MakeKbText(MixSeed(options_.seed, 1), 600);
    if (!base.ok()) {
      Fail("generate the shared base: " + base.status().ToString());
      return false;
    }
    inputs_.base = std::move(*base);
    Samples parse_ms;
    for (int rep = 0; rep < 5; ++rep) {
      const int64_t start = NowNs();
      const bool parsed = kbrepair::ParseDlgp(inputs_.base.dlgp).ok();
      parse_ms.Add(NsToMs(NowNs() - start));
      if (!parsed) {
        Fail("the shared base does not parse");
        return false;
      }
    }
    parse_base_ms_ = parse_ms.Quantile(0.5);
    for (size_t i = 0; i < kPrivateKbs; ++i) {
      StatusOr<KbText> kb = MakeKbText(MixSeed(options_.seed, 100 + i), 120);
      if (!kb.ok()) {
        Fail("generate a private KB: " + kb.status().ToString());
        return false;
      }
      inputs_.privates.push_back(std::move(*kb));
    }
    return true;
  }

  bool StartAndRegister(Daemon* daemon, const std::string& dir, bool traced) {
    outcome_->CountAttempt();
    Status started = daemon->Start(KBREPAIRD_PATH, dir, traced);
    StatusOr<int> fd = started.ok() ? daemon->Connect() : started;
    if (!fd.ok()) {
      Fail("start kbrepaird: " + fd.status().ToString());
      return false;
    }
    Control control(*fd);
    JsonValue request = JsonValue::Object();
    request.Set("command", JsonValue::String("register-base"));
    request.Set("name", JsonValue::String("bench"));
    request.Set("kb_dlgp", JsonValue::String(inputs_.base.dlgp));
    StatusOr<JsonValue> registered = control.Call(std::move(request));
    if (!registered.ok()) {
      Fail(registered.status().ToString());
      return false;
    }
    return true;
  }

  bool StopClean(Daemon* daemon) {
    if (!daemon->Stop()) {
      Fail("kbrepaird did not shut down cleanly");
      return false;
    }
    return true;
  }

  void Absorb(const PhaseResult& phase, const std::string& label) {
    outcome_->CountAttempt(phase.attempted);
    outcome_->CountFailure(phase.failed);
    for (const std::string& why : phase.failures) {
      outcome_->Fail(label + ": " + why);
    }
    if (phase.closed != phase.planned && phase.failures.empty()) {
      outcome_->Fail(label + ": " + std::to_string(phase.planned - phase.closed) +
                     " sessions never closed");
    }
  }

  // Re-checks the sampled repairs returned by `close`: parsed back with
  // the session's rules, each must pass IsConsistentOpt.
  void CheckRepairs(const PhaseResult& phase,
                    const std::vector<SessionPlan>& plans) {
    for (const auto& [plan, facts] : phase.repairs) {
      std::string text;
      for (size_t i = 0; i < facts.size(); ++i) {
        text += facts.at(i).AsString() + ".\n";
      }
      const std::string& rules =
          plans[plan].fork ? inputs_.base.rules
                           : inputs_.privates[plans[plan].private_kb].rules;
      outcome_->CountAttempt();
      StatusOr<kbrepair::KnowledgeBase> kb = kbrepair::ParseDlgp(rules + text);
      if (!kb.ok()) {
        Fail("parse a returned repair: " + kb.status().ToString());
        continue;
      }
      kbrepair::ConsistencyChecker checker(&kb->symbols(), &kb->tgds(),
                                           &kb->cdds());
      const StatusOr<bool> consistent = checker.IsConsistentOpt(kb->facts());
      if (!consistent.ok() || !*consistent) {
        Fail("a returned repair is not consistent");
      }
    }
  }

  // Probes the ladder with fresh schedules; each probe's sessions all
  // close before the next one starts. A probe's backlog is sampled after
  // one nominal session lifetime, once the open-session count could have
  // levelled off, over enough arrivals for kLadderTurns turns. The ladder
  // drives a daemon of its own past its capacity on purpose: a refused
  // request or a session left open fails the rung, not the run, and its
  // operations stay out of the run's attempted/failed counts. Rungs the
  // time budget leaves unprobed count as failing, so the reported rate is
  // then a lower bound ("cut": true).
  void RunLadder(const PhaseResult& nominal) {
    Daemon daemon;
    if (!StartAndRegister(&daemon, run_dir_ + "/ladder", false)) return;
    const double turns_per_session =
        nominal.questions.empty() ? 20.0 : 2.0 * nominal.questions.Mean() + 1.0;
    const double ramp_s = nominal.lifetime_ms.empty()
                              ? 1.0
                              : nominal.lifetime_ms.Mean() / 1000.0;
    const std::vector<double> rungs =
        GeometricLadder(kLadderLo, kLadderHi, kMaxRungRatio);
    uint64_t probe_index = 0;
    size_t attempted = 0;
    size_t refused = 0;
    std::vector<bool> skipped;
    const int64_t start_ns = NowNs();
    const LadderOutcome ladder = SearchLadder(
        rungs, kTurnP99LimitMs, [&](double rate) {
          RungResult rung;
          rung.rate = rate;
          skipped.push_back(NsToMs(NowNs() - start_ns) > kLadderBudgetS * 1e3);
          if (skipped.back()) return rung;
          PhaseOptions probe;
          probe.ramp_s = ramp_s;
          probe.window_s =
              ramp_s + std::max(1.5, static_cast<double>(kLadderTurns) /
                                         (rate * turns_per_session));
          probe.drain_limit_s = 10.0;
          const std::vector<SessionPlan> plans = Schedule(
              MixSeed(options_.seed, 1000 + probe_index++), rate,
              probe.window_s);
          PhaseResult phase = RunPhase(daemon, plans, inputs_, probe);
          attempted += phase.attempted;
          refused += phase.rejected + phase.failed;
          rung.turn_p99_ms = phase.turn_ms.TailQuantile(0.99);
          rung.refused = phase.rejected + phase.failed;
          rung.backlog_mid = phase.backlog_mid;
          rung.backlog_end = phase.backlog_end;
          return rung;
        });
    daemon.Stop();
    JsonValue probes = JsonValue::Array();
    for (size_t i = 0; i < ladder.probes.size(); ++i) {
      const RungResult& rung = ladder.probes[i];
      JsonValue probe = JsonValue::Object();
      probe.Set("rate", JsonValue::Number(rung.rate));
      probe.Set("skipped", JsonValue::Bool(skipped[i]));
      probe.Set("turn_p99_ms", rung.turn_p99_ms
                                   ? JsonValue::Number(*rung.turn_p99_ms)
                                   : JsonValue::Null());
      probe.Set("backlog_mid", JsonValue::Number(rung.backlog_mid));
      probe.Set("backlog_end", JsonValue::Number(rung.backlog_end));
      probe.Set("refused", JsonValue::Number(static_cast<uint64_t>(rung.refused)));
      probe.Set("meets_slo", JsonValue::Bool(MeetsSlo(rung, kTurnP99LimitMs)));
      probes.Append(std::move(probe));
    }
    JsonValue slo = JsonValue::Object();
    slo.Set("slo_sessions_per_s",
            JsonValue::Number(ladder.best ? rungs[*ladder.best] : 0.0));
    slo.Set("turn_p99_limit_ms", JsonValue::Number(kTurnP99LimitMs));
    slo.Set("cut", JsonValue::Bool(std::find(skipped.begin(), skipped.end(),
                                             true) != skipped.end()));
    slo.Set("attempted", JsonValue::Number(static_cast<uint64_t>(attempted)));
    slo.Set("refused", JsonValue::Number(static_cast<uint64_t>(refused)));
    slo.Set("probes", std::move(probes));
    outcome_->detail().Set("slo_ladder", std::move(slo));
  }

  void CheckLedger(Daemon* daemon) {
    StatusOr<int> fd = daemon->Connect();
    if (!fd.ok()) {
      Fail("ledger: " + fd.status().ToString());
      return;
    }
    Control control(*fd);
    JsonValue request = JsonValue::Object();
    request.Set("command", JsonValue::String("metrics"));
    StatusOr<JsonValue> metrics = control.Call(request);
    request.Set("command", JsonValue::String("list-bases"));
    StatusOr<JsonValue> bases = control.Call(request);
    if (!metrics.ok() || !bases.ok()) {
      Fail("ledger: metrics or list-bases failed");
      return;
    }
    const JsonValue& sessions = metrics->Get("sessions");
    const int64_t opened = sessions.Get("opened").AsInt(-1);
    const int64_t completed = sessions.Get("completed").AsInt(-2);
    const int64_t active = sessions.Get("active").AsInt(-1);
    const int64_t fallbacks =
        metrics->Get("durability").Get("engine_fallbacks").AsInt(-1);
    int64_t refcount = 0;
    const JsonValue& list = bases->Get("bases");
    for (size_t i = 0; i < list.size(); ++i) {
      refcount += list.at(i).Get("refcount").AsInt();
    }
    if (opened != completed || active != 0 || fallbacks != 0 ||
        refcount != 0) {
      Fail("ledger does not balance: opened=" + std::to_string(opened) +
           " completed=" + std::to_string(completed) +
           " active=" + std::to_string(active) +
           " fallbacks=" + std::to_string(fallbacks) +
           " base refcount=" + std::to_string(refcount));
    }
    last_metrics_ = std::move(*metrics);
  }

  static double MedianOf(const Samples& samples) {
    return samples.empty() ? 0.0 : samples.Quantile(0.5);
  }

  void ReportEndToEnd(const PhaseResult& phase, const Samples& setup_s,
                      double peak_rss_mb) {
    RunOutcome& out = *outcome_;
    out.Set("setup_s", setup_s.Quantile(0.5), setup_s.count());
    out.Set("question_delay_p50_ms", MedianOf(phase.delay_ms),
            phase.delay_ms.count());
    out.SetP99("question_delay_p99_ms", phase.delay_ms);
    out.Set("questions_per_s",
            1000.0 * static_cast<double>(phase.delay_ms.count()) /
                phase.turn_ms.Sum(),
            phase.delay_ms.count());
    out.Set("questions_per_dialogue", phase.questions.Mean(),
            phase.questions.count());
    out.Set("turn_p50_ms", MedianOf(phase.turn_ms), phase.turn_ms.count());
    out.SetP99("turn_p99_ms", phase.turn_ms);
    out.Set("first_question_p50_ms", MedianOf(phase.first_question_ms),
            phase.first_question_ms.count());
    out.Set("peak_rss_mb", peak_rss_mb, 1);
    out.detail().Set("tails", TailDetail({{"delay", &phase.delay_ms},
                                          {"turn", &phase.turn_ms},
                                          {"ask", &phase.ask_ms},
                                          {"answer", &phase.answer_ms},
                                          {"first_question",
                                           &phase.first_question_ms},
                                          {"loadgen_late", &phase.late_ms}}));
    JsonValue extra = JsonValue::Object();
    extra.Set("sessions", JsonValue::Number(static_cast<uint64_t>(phase.closed)));
    extra.Set("nominal_rate", JsonValue::Number(kNominalRate));
    extra.Set("retries", JsonValue::Number(static_cast<uint64_t>(phase.retries)));
    out.detail().Set("service", std::move(extra));
  }

  // Per-layer numbers from the traced daemon's spans, joined to the
  // client's round trips.
  void ReportPerLayer(Daemon* daemon, const PhaseResult& plain,
                      const PhaseResult& traced, double setup_rss_kb) {
    RunOutcome& out = *outcome_;
    std::vector<Span> spans;
    uint64_t dropped = 0;
    {
      StatusOr<int> fd = daemon->Connect();
      if (!fd.ok()) {
        Fail("trace drain: " + fd.status().ToString());
        return;
      }
      Control control(*fd);
      JsonValue request = JsonValue::Object();
      request.Set("command", JsonValue::String("trace"));
      request.Set("limit", JsonValue::Number(int64_t{0}));
      StatusOr<JsonValue> drained = control.Call(request);
      if (!drained.ok()) {
        Fail("trace drain: " + drained.status().ToString());
        return;
      }
      dropped = static_cast<uint64_t>(drained->Get("dropped").AsInt());
      std::ifstream file(drained->Get("file").AsString());
      std::string line;
      while (std::getline(file, line)) {
        StatusOr<JsonValue> span = JsonValue::Parse(line);
        if (!span.ok()) continue;
        spans.push_back({static_cast<uint64_t>(span->Get("id").AsInt()),
                         static_cast<uint64_t>(span->Get("parent").AsInt()),
                         span->Get("name").AsString(),
                         span->Get("start_us").AsInt(),
                         span->Get("dur_us").AsInt(),
                         span->Get("detail").AsString()});
      }
    }
    if (spans.empty()) Fail("the traced daemon recorded no spans");

    // Keep the trees rooted at rpc.ask / rpc.answer: the turn path.
    std::unordered_map<uint64_t, size_t> by_id;
    for (size_t i = 0; i < spans.size(); ++i) by_id.emplace(spans[i].id, i);
    auto root_of = [&](size_t i) {
      while (spans[i].parent != 0 && by_id.count(spans[i].parent) != 0) {
        i = by_id.at(spans[i].parent);
      }
      return i;
    };
    std::vector<Span> turn_spans;
    std::map<std::string, int64_t> rpc_us;  // "session|ask|step" -> rpc dur
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& root = spans[root_of(i)];
      if (root.name != "rpc.ask" && root.name != "rpc.answer") continue;
      turn_spans.push_back(spans[i]);
      if (spans[i].name == "session.ask" || spans[i].name == "session.answer") {
        const std::string key = DetailValue(spans[i].detail, "session") + "|" +
                                (spans[i].name == "session.answer" ? "a" : "q") +
                                "|" + DetailValue(spans[i].detail, "step");
        rpc_us[key] = root.dur_us;
      }
    }
    SelfTotals self;
    self.Add(turn_spans);

    Samples transport_ms;
    for (const TurnRecord& turn : traced.turns) {
      const auto it = rpc_us.find(turn.session + "|" + (turn.answer ? "a" : "q") +
                                  "|" + std::to_string(turn.step));
      if (it != rpc_us.end()) {
        transport_ms.Add(turn.rtt_sent_ms - static_cast<double>(it->second) / 1000.0);
      }
    }
    const size_t turns = traced.turn_ms.count();
    if (transport_ms.count() < turns * 9 / 10) {
      Fail("joined only " + std::to_string(transport_ms.count()) + " of " +
           std::to_string(turns) + " turns to their rpc spans");
    }
    const double per_turn = 1.0 / static_cast<double>(std::max<size_t>(turns, 1));
    auto self_ms = [&](std::initializer_list<const char*> names) {
      int64_t us = 0;
      for (const char* name : names) us += self.SelfUs(name);
      return static_cast<double>(us) / 1000.0 * per_turn;
    };

    // Engine layers, per turn, from the daemon's spans.
    const std::map<std::string, std::vector<const char*>> layers = {
        {"chase.saturate_self_ms", {"chase.saturate"}},
        {"chase.delta_saturate_self_ms", {"chase.delta_saturate"}},
        {"repair.question_gen_self_ms", {"inquiry.select_question"}},
        {"repair.next_question_self_ms", {"inquiry.next_question"}},
        {"repair.repairability_self_ms", {"repair.repairability"}},
        {"repair.conflict_scan_self_ms", {"conflicts.enumerate", "conflicts.naive"}},
        {"repair.delta_enumerate_self_ms", {"conflicts.delta_enumerate"}},
        {"repair.apply_answer_self_ms", {"inquiry.apply_answer"}},
        {"service.rpc_self_ms", {"rpc.ask", "rpc.answer"}},
        {"service.session_ask_self_ms", {"session.ask"}},
        {"service.session_answer_self_ms", {"session.answer"}},
        {"service.wal_append_self_ms", {"wal.append"}},
    };
    double named_ms = 0.0;
    std::string dominant;
    double dominant_ms = -1.0;
    for (const auto& [metric, names] : layers) {
      double ms = 0.0;
      for (const char* name : names) ms += self_ms({name});
      out.Set(metric, ms, turns);
      named_ms += ms;
      if (ms > dominant_ms) {
        dominant_ms = ms;
        dominant = metric;
      }
    }
    const double transport = transport_ms.Mean();
    out.Set("service.transport_ms", transport, transport_ms.count());
    if (transport > dominant_ms) dominant = "service.transport_ms";
    const double timed_ms = traced.turn_ms.Sum() * per_turn;
    out.Set("repair.timed_call_ms", timed_ms, turns);
    // Round trip from due time minus transport and the named layers:
    // generator lateness plus self time of spans no layer claims.
    out.Set("repair.unattributed_ms", timed_ms - transport - named_ms, turns);
    out.detail().Set("dominant_layer", JsonValue::String(dominant));

    out.Set("service.rtt_ask_p50_ms", MedianOf(traced.ask_ms), traced.ask_ms.count());
    out.Set("service.rtt_ask_p99_ms",
            traced.ask_ms.TailQuantile(0.99).value_or(0.0), traced.ask_ms.count());
    out.Set("service.rtt_answer_p50_ms", MedianOf(traced.answer_ms),
            traced.answer_ms.count());
    out.Set("service.rtt_answer_p99_ms",
            traced.answer_ms.TailQuantile(0.99).value_or(0.0),
            traced.answer_ms.count());

    // The protocol layer, re-timed on this run's recorded lines.
    Samples parse_us;
    Samples serialize_us;
    for (const auto& [request_line, result] : traced.lines) {
      const int64_t t0 = NowNs();
      StatusOr<kbrepair::ServiceRequest> request =
          kbrepair::ParseRequestLine(request_line);
      const int64_t t1 = NowNs();
      if (!request.ok()) {
        Fail("a recorded request line does not parse");
        continue;
      }
      const std::string response = kbrepair::OkResponseLine(*request, result);
      const int64_t t2 = NowNs();
      parse_us.Add(static_cast<double>(t1 - t0) / 1000.0);
      serialize_us.Add(static_cast<double>(t2 - t1) / 1000.0);
      if (response.empty()) Fail("empty response line");
    }
    out.Set("service.protocol_parse_us", MedianOf(parse_us), parse_us.count());
    out.Set("service.protocol_serialize_us", MedianOf(serialize_us),
            serialize_us.count());

    // Daemon counters of the traced phase.
    CheckLedger(daemon);
    const JsonValue& metrics = last_metrics_;
    out.Set("service.wal_appends",
            metrics.Get("durability").Get("wal_appends").AsDouble(), 1);
    out.Set("service.queue_wait_mean_ms",
            metrics.Get("queue_wait").Get("mean_ms").AsDouble(),
            static_cast<size_t>(metrics.Get("queue_wait").Get("count").AsInt()));
    out.Set("repair.engine_fallbacks",
            metrics.Get("durability").Get("engine_fallbacks").AsDouble(), 1);
    out.Set("service.fork_create_ms", MedianOf(traced.fork_create_ms),
            traced.fork_create_ms.count());
    out.Set("service.private_create_ms", MedianOf(traced.private_create_ms),
            traced.private_create_ms.count());
    out.Set("service.rss_per_session_kb",
            (PeakRssMb(daemon->pid()) * 1024.0 - setup_rss_kb) /
                static_cast<double>(std::max<size_t>(traced.peak_open, 1)),
            traced.peak_open);
    out.Set("service.retries", static_cast<double>(traced.retries), 1);
    out.Set("service.rejected", static_cast<double>(traced.rejected), 1);
    out.Set("loadgen.late_p99_ms",
            traced.late_ms.TailQuantile(0.99).value_or(0.0),
            traced.late_ms.count());
    const double plain_p50 = MedianOf(plain.turn_ms);
    out.Set("trace.overhead_pct",
            100.0 * (MedianOf(traced.turn_ms) - plain_p50) / plain_p50, turns);
    out.Set("trace.dropped_spans", static_cast<double>(dropped), 1);
    out.Set("parser.parse_ms", parse_base_ms_, 1);

    // In-process side calls do not exist on the service path.
    for (const char* name :
         {"kb.copy_ms", "kb.working_atoms", "chase.run_ms", "chase.derived_atoms",
          "repair.repairability_calls", "repair.repopt_fast_path_ratio",
          "repair.candidate_keep_ratio", "repair.all_conflicts_ms",
          "repair.is_pi_repairable_ms", "repair.begin_ms"}) {
      out.Set(name, 0.0, 0);
    }
  }

  const RunOptions& options_;
  RunOutcome* outcome_;
  std::string run_dir_;
  Inputs inputs_;
  double parse_base_ms_ = 0.0;
  JsonValue last_metrics_;
};

}  // namespace

void RunServiceMixed(const RunOptions& options, RunOutcome* outcome) {
  ServiceRun(options, outcome).Run();
}

}  // namespace kbbench
