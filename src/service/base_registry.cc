#include "service/base_registry.h"

#include <fcntl.h>
#include <stdio.h>
#include <unistd.h>

#include <fstream>
#include <utility>
#include <vector>

#include "service/session.h"
#include "util/fs.h"
#include "util/log.h"
#include "util/logging.h"

namespace kbrepair {

namespace {

constexpr char kComponent[] = "base_registry";

std::string HashHex(uint64_t hash) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%016llx",
                static_cast<unsigned long long>(hash));
  return buffer;
}

JsonValue RegisterRecord(const std::string& name, uint64_t hash,
                         const JsonValue& params) {
  JsonValue record = JsonValue::Object();
  record.Set("op", JsonValue::String("register"));
  record.Set("name", JsonValue::String(name));
  record.Set("hash", JsonValue::String(HashHex(hash)));
  record.Set("params", params);
  return record;
}

JsonValue EvictRecord(const std::string& name) {
  JsonValue record = JsonValue::Object();
  record.Set("op", JsonValue::String("evict"));
  record.Set("name", JsonValue::String(name));
  return record;
}

// Builds the frozen snapshot a register record describes. Deterministic
// in `params`, so a re-register (or a log replay) of the same params
// reproduces the same content hash.
StatusOr<std::shared_ptr<const SharedKbSnapshot>> BuildSnapshot(
    const JsonValue& params) {
  std::string label;
  KBREPAIR_ASSIGN_OR_RETURN(KnowledgeBase kb,
                            BuildKbFromParams(params, &label));
  // Snapshots are built with plain chase options: per-session deadlines
  // come from each session's own cancel token, never baked into the
  // shared prototypes.
  return BuildSharedKbSnapshot(std::move(kb), std::move(label),
                               ChaseOptions{});
}

JsonValue BaseInfoJson(const std::string& name, const SharedKbSnapshot& snap,
                       uint64_t refcount, uint64_t forks) {
  JsonValue out = JsonValue::Object();
  out.Set("name", JsonValue::String(name));
  out.Set("kb", JsonValue::String(snap.label));
  out.Set("hash", JsonValue::String(HashHex(snap.content_hash)));
  out.Set("facts",
          JsonValue::Number(static_cast<int64_t>(snap.kb.facts().size())));
  out.Set("bytes", JsonValue::Number(static_cast<int64_t>(snap.approx_bytes)));
  out.Set("repairable", JsonValue::Bool(snap.census.repairable));
  out.Set("initial_conflicts",
          JsonValue::Number(static_cast<int64_t>(snap.census.conflicts)));
  // Whether forks adopt the saturated engine prototypes or cold-start
  // their engines (the snapshot's mint guard fired).
  out.Set("engine_protos", JsonValue::Bool(snap.delta_proto != nullptr));
  out.Set("refcount", JsonValue::Number(refcount));
  out.Set("forks", JsonValue::Number(forks));
  return out;
}

}  // namespace

BaseRegistry::Handle::Handle(Handle&& other) noexcept
    : registry_(std::move(other.registry_)),
      name_(std::move(other.name_)),
      snapshot_(std::move(other.snapshot_)) {
  other.registry_.reset();
  other.snapshot_.reset();
}

BaseRegistry::Handle& BaseRegistry::Handle::operator=(
    Handle&& other) noexcept {
  if (this != &other) {
    Release();
    registry_ = std::move(other.registry_);
    name_ = std::move(other.name_);
    snapshot_ = std::move(other.snapshot_);
    other.registry_.reset();
    other.snapshot_.reset();
  }
  return *this;
}

BaseRegistry::Handle::~Handle() { Release(); }

void BaseRegistry::Handle::Release() {
  if (registry_ != nullptr && snapshot_ != nullptr) {
    registry_->Release(name_);
  }
  registry_.reset();
  snapshot_.reset();
}

BaseRegistry::BaseRegistry(std::string log_dir)
    : log_dir_(std::move(log_dir)) {}

std::string BaseRegistry::LogPath() const {
  return log_dir_ + "/bases.jsonl";
}

Status BaseRegistry::AppendLogRecord(const JsonValue& record) {
  if (log_dir_.empty()) return Status::Ok();
  const std::string path = LogPath();
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd < 0) {
    return Status::Unavailable("could not open " + path);
  }
  const std::string line = record.Dump() + "\n";
  Status status = Status::Ok();
  if (::write(fd, line.data(), line.size()) !=
      static_cast<ssize_t>(line.size())) {
    status = Status::Unavailable("short write to " + path);
  } else if (::fsync(fd) != 0) {
    status = Status::Unavailable("fsync failed for " + path);
  }
  ::close(fd);
  return status;
}

Status BaseRegistry::CompactLogLocked() {
  if (log_dir_.empty()) return Status::Ok();
  std::string contents;
  for (const auto& [name, entry] : bases_) {
    contents += RegisterRecord(name, entry.snapshot->content_hash,
                               entry.params)
                    .Dump() +
                "\n";
  }
  return AtomicWriteFile(LogPath(), contents);
}

StatusOr<JsonValue> BaseRegistry::Register(const JsonValue& params) {
  const std::string name = params.Get("name").AsString();
  if (name.empty()) {
    return Status::InvalidArgument(
        "register-base needs a non-empty 'name'");
  }
  // The snapshot build (chase + census) runs outside the lock; a
  // concurrent register of the same name is resolved by hash below.
  KBREPAIR_ASSIGN_OR_RETURN(std::shared_ptr<const SharedKbSnapshot> snapshot,
                            BuildSnapshot(params));
  std::lock_guard<std::mutex> lock(mu_);
  auto it = bases_.find(name);
  if (it != bases_.end()) {
    if (it->second.snapshot->content_hash == snapshot->content_hash) {
      // Same KB under the same name: idempotent re-register.
      JsonValue info = BaseInfoJson(name, *it->second.snapshot,
                                    it->second.refcount, it->second.forks);
      info.Set("already_registered", JsonValue::Bool(true));
      return info;
    }
    return Status::FailedPrecondition(
        "base '" + name + "' is already registered with a different KB "
        "(hash " + HashHex(it->second.snapshot->content_hash) + " vs " +
        HashHex(snapshot->content_hash) + ")");
  }
  // Log-before-register, like the session WAL: if the record cannot be
  // made durable the registration is rejected and nothing changes.
  KBREPAIR_RETURN_IF_ERROR(
      AppendLogRecord(RegisterRecord(name, snapshot->content_hash, params)));
  Entry entry;
  entry.snapshot = snapshot;
  entry.params = params;
  entry.last_release = std::chrono::steady_clock::now();
  bases_.emplace(name, std::move(entry));
  UpdateGaugesLocked();
  logging::Info(kComponent, "registered base")
      .With("base", name)
      .With("hash", HashHex(snapshot->content_hash))
      .With("facts", static_cast<int64_t>(snapshot->kb.facts().size()));
  return BaseInfoJson(name, *snapshot, 0, 0);
}

StatusOr<BaseRegistry::Handle> BaseRegistry::Acquire(
    const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = bases_.find(name);
  if (it == bases_.end()) {
    return Status::NotFound("unknown base '" + name + "'");
  }
  ++it->second.refcount;
  ++it->second.forks;
  return Handle(shared_from_this(), name, it->second.snapshot);
}

void BaseRegistry::Release(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  ReleaseLocked(name);
}

void BaseRegistry::ReleaseLocked(const std::string& name) {
  auto it = bases_.find(name);
  if (it == bases_.end()) return;  // defensive: evictions skip refs > 0
  KBREPAIR_DCHECK(it->second.refcount > 0);
  if (it->second.refcount > 0) --it->second.refcount;
  if (it->second.refcount == 0) {
    it->second.last_release = std::chrono::steady_clock::now();
  }
}

JsonValue BaseRegistry::ListJson() {
  std::lock_guard<std::mutex> lock(mu_);
  JsonValue list = JsonValue::Array();
  for (const auto& [name, entry] : bases_) {
    list.Append(
        BaseInfoJson(name, *entry.snapshot, entry.refcount, entry.forks));
  }
  JsonValue out = JsonValue::Object();
  out.Set("bases", std::move(list));
  return out;
}

size_t BaseRegistry::SweepExpired(double ttl_seconds) {
  if (ttl_seconds <= 0) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  const auto now = std::chrono::steady_clock::now();
  size_t evicted = 0;
  for (auto it = bases_.begin(); it != bases_.end();) {
    const Entry& entry = it->second;
    const double idle =
        std::chrono::duration<double>(now - entry.last_release).count();
    if (entry.refcount == 0 && idle > ttl_seconds) {
      // Best-effort durability: a lost evict record only means the base
      // is rebuilt on the next recovery, which is safe.
      const Status logged = AppendLogRecord(EvictRecord(it->first));
      if (!logged.ok()) {
        logging::Warn(kComponent, "evict record append failed")
            .With("base", it->first)
            .With("error", logged.message());
      }
      logging::Info(kComponent, "evicted orphaned base")
          .With("base", it->first)
          .With("idle_s", idle);
      it = bases_.erase(it);
      ++evicted;
    } else {
      ++it;
    }
  }
  if (evicted != 0) UpdateGaugesLocked();
  return evicted;
}

Status BaseRegistry::RecoverFromLog() {
  if (log_dir_.empty()) return Status::Ok();
  const std::string path = LogPath();
  std::ifstream in(path);
  if (!in.is_open()) return Status::Ok();  // no log: nothing registered

  // Replay to the final live set first (registers shadowed by a later
  // evict are never rebuilt), then build snapshots for the survivors.
  std::map<std::string, std::pair<std::string, JsonValue>> live;  // hash hex
  std::string line;
  size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    StatusOr<JsonValue> parsed = JsonValue::Parse(line);
    if (!parsed.ok()) {
      // A torn final line (crash mid-append) is expected; anything
      // earlier is corruption worth surfacing but not dying over.
      logging::Warn(kComponent, "skipping unparsable bases.jsonl line")
          .With("line", static_cast<int64_t>(line_no))
          .With("error", parsed.status().message());
      continue;
    }
    const std::string op = parsed->Get("op").AsString();
    const std::string name = parsed->Get("name").AsString();
    if (name.empty()) continue;
    if (op == "register") {
      live[name] = {parsed->Get("hash").AsString(), parsed->Get("params")};
    } else if (op == "evict") {
      live.erase(name);
    }
  }
  in.close();

  size_t recovered = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [name, record] : live) {
      const auto& [recorded_hash, params] = record;
      StatusOr<std::shared_ptr<const SharedKbSnapshot>> rebuilt =
          BuildSnapshot(params);
      if (!rebuilt.ok()) {
        logging::Error(kComponent, "could not rebuild base; dropping it")
            .With("base", name)
            .With("error", rebuilt.status().message());
        continue;
      }
      if (HashHex((*rebuilt)->content_hash) != recorded_hash) {
        logging::Error(kComponent,
                       "rebuilt base hash mismatches the log; dropping it")
            .With("base", name)
            .With("recorded", recorded_hash)
            .With("rebuilt", HashHex((*rebuilt)->content_hash));
        continue;
      }
      Entry entry;
      entry.snapshot = std::move(rebuilt).value();
      entry.params = params;
      entry.last_release = std::chrono::steady_clock::now();
      bases_.emplace(name, std::move(entry));
      ++recovered;
    }
    UpdateGaugesLocked();
    const Status compacted = CompactLogLocked();
    if (!compacted.ok()) {
      logging::Warn(kComponent, "bases.jsonl compaction failed")
          .With("error", compacted.message());
    }
  }
  if (recovered != 0) {
    logging::Info(kComponent, "recovered bases from log")
        .With("bases", static_cast<int64_t>(recovered));
  }
  return Status::Ok();
}

void BaseRegistry::AttachMetrics(ServiceMetrics* metrics) {
  std::lock_guard<std::mutex> lock(mu_);
  metrics_ = metrics;
  UpdateGaugesLocked();
}

void BaseRegistry::AttachGovernor(std::shared_ptr<ResourceGovernor> governor) {
  std::lock_guard<std::mutex> lock(mu_);
  governor_ = std::move(governor);
  UpdateGaugesLocked();
}

void BaseRegistry::UpdateGaugesLocked() {
  if (metrics_ == nullptr && governor_ == nullptr) return;
  int64_t bytes = 0;
  for (const auto& [name, entry] : bases_) {
    bytes += static_cast<int64_t>(entry.snapshot->approx_bytes);
  }
  if (metrics_ != nullptr) {
    metrics_->bases_registered.store(static_cast<int64_t>(bases_.size()),
                                     std::memory_order_relaxed);
    metrics_->base_rss_bytes.store(bytes, std::memory_order_relaxed);
  }
  if (governor_ != nullptr) governor_->SetBaseBytes(bytes);
}

size_t BaseRegistry::NumBases() {
  std::lock_guard<std::mutex> lock(mu_);
  return bases_.size();
}

uint64_t BaseRegistry::RefCount(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = bases_.find(name);
  return it == bases_.end() ? 0 : it->second.refcount;
}

bool BaseRegistry::Has(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  return bases_.find(name) != bases_.end();
}

StatusOr<uint64_t> BaseRegistry::ContentHash(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = bases_.find(name);
  if (it == bases_.end()) {
    return Status::NotFound("unknown base '" + name + "'");
  }
  return it->second.snapshot->content_hash;
}

}  // namespace kbrepair
