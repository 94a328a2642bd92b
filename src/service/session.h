// One managed repair session: a knowledge base plus a suspended inquiry
// dialogue, driven one protocol command at a time.
//
// A RepairSession owns its KnowledgeBase (and thus its symbol table), so
// sessions share no mutable state and can run on different workers
// concurrently. Within one session, the SessionManager serializes
// command execution — handlers here assume single-threaded access.

#ifndef KBREPAIR_SERVICE_SESSION_H_
#define KBREPAIR_SERVICE_SESSION_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "repair/inquiry.h"
#include "repair/session_log.h"
#include "rules/knowledge_base.h"
#include "service/base_registry.h"
#include "service/metrics.h"
#include "service/protocol.h"
#include "service/wal.h"
#include "util/cancel.h"
#include "util/json.h"
#include "util/status.h"

namespace kbrepair {

// Parses a `create` request's KB source:
//   "kb": "durum_wheat_v1" | "durum_wheat_v2" | "synthetic"
//         (synthetic honours kb_seed, num_facts, num_cdds,
//          inconsistency_ratio, and the full generator surface:
//          num_tgds, conflict_depth, routed_violation_share,
//          cdd_min_atoms, cdd_max_atoms, min_arity, max_arity,
//          min_multiplicity, max_multiplicity — so a WAL create record
//          alone reconstructs any harness KB bit-for-bit), or
//   "kb_dlgp": inline DLGP text.
// The KB is validated (weak acyclicity etc.) before use. `label` gets a
// short description for status/metrics output.
StatusOr<KnowledgeBase> BuildKbFromParams(const JsonValue& params,
                                          std::string* label);

// Parses strategy/seed/two_phase/max_questions/engine/
// record_convergence ("off" | "total" | "discovered") from `create`
// params. record_convergence is dialogue-relevant for scratch two-phase
// non-mcd runs, so WALs that should replay across engines record it.
// Unknown params are ignored, so WALs written by older daemons (e.g.
// with the removed "chase_threads") still recover.
StatusOr<InquiryOptions> InquiryOptionsFromParams(const JsonValue& params);

// Matches a WAL-recorded fix (wire JSON: atom/arg numbers plus
// kind/value strings) against the fixes of a regenerated question,
// returning the offered index or nullopt. Comparison stays at the
// string level and never mutates the symbol table — interning the
// recorded terms would advance the fresh-null counter and break
// byte-identical replay. A recorded fresh null matches an offered fresh
// null of the same position even when their minted names differ.
// Shared by WAL recovery and the kbrepair-debug timeline.
std::optional<size_t> MatchRecordedFixJson(const JsonValue& recorded,
                                           const Question& question,
                                           const InquiryView& view,
                                           const SymbolTable& symbols);

class RepairSession {
 public:
  // Builds the KB, starts the dialogue (Π-repairability check + initial
  // conflict census). Fails without registering anything on bad params
  // or an unrepairable KB. A positive `deadline_ms` bounds the initial
  // census (DeadlineExceeded past it).
  static StatusOr<std::unique_ptr<RepairSession>> Create(
      std::string id, const JsonValue& params, int64_t deadline_ms = 0);

  // `create` with params["base"]: forks the KB from the registered
  // snapshot in O(delta) — shared symbol/fact segments, adopted
  // repairability verdict and conflict censuses — instead of building
  // and re-chasing a private copy. The handle's refcount keeps the base
  // alive for the session's lifetime. Fails without side effects when
  // the snapshot is not Π-repairable.
  static StatusOr<std::unique_ptr<RepairSession>> CreateFromBase(
      std::string id, const JsonValue& params, BaseRegistry::Handle base,
      int64_t deadline_ms = 0);

  // Crash recovery: rebuilds a session from its WAL — the recorded
  // create params plus the answer history as transcript-entry records —
  // by replaying every answer through the restarted engine via
  // ReplayUser. The engine is deterministic given (params, answers), so
  // the recovered session is byte-identical to the lost one; divergence
  // (entries the fresh engine does not offer) returns Internal and the
  // WAL is left for inspection. Recovery runs without a per-command
  // deadline: it is N commands' worth of work by construction.
  static StatusOr<std::unique_ptr<RepairSession>> Recover(
      std::string id, const JsonValue& create_params,
      const std::vector<JsonValue>& entries);

  // Recovery of a base-forked session: the WAL's create record carries
  // "base":<name>, so instead of rebuilding a private KB the session is
  // re-forked from the (already recovered) registry snapshot and the
  // answer history is replayed on top — same replay contract as
  // Recover().
  static StatusOr<std::unique_ptr<RepairSession>> RecoverFromBase(
      std::string id, const JsonValue& create_params,
      BaseRegistry::Handle base, const std::vector<JsonValue>& entries);

  // Hands the session its WAL. From now on every accepted answer/close
  // is appended (and fsync'd) before execution, and the log is compacted
  // to a snapshot record every `compact_every` appends.
  void AttachWal(std::unique_ptr<SessionWal> wal, size_t compact_every);

  // Per-command deadline plumbing (manager-driven). Arming with a
  // non-positive budget is a no-op.
  void ArmDeadline(int64_t budget_ms);
  void DisarmDeadline();

  const std::string& id() const { return id_; }
  const std::string& kb_label() const { return kb_label_; }
  // Name of the shared base this session was forked from ("" for a
  // private-KB session).
  const std::string& base_name() const { return base_.name(); }

  // `ask`: the pending question (generating it if necessary), or
  // {"done":true} once consistent. Idempotent between answers.
  StatusOr<JsonValue> Ask(ServiceMetrics* metrics);

  // `answer`: applies params["choice"], records the transcript entry.
  StatusOr<JsonValue> Answer(const JsonValue& params,
                             ServiceMetrics* metrics);

  // `status`: cheap introspection; never advances the dialogue.
  JsonValue StatusInfo() const;

  // `snapshot`: transcript JSON + current working facts.
  StatusOr<JsonValue> Snapshot() const;

  // `close`: finalizes the inquiry and reports totals; with
  // params["include_facts"] the repaired fact base rides along. With
  // `wal_degraded` (the owning shard is in disk-degraded mode) the
  // close record is not appended — unlink still works on a full disk,
  // so closing is how clients free space. A crash between execute and
  // Remove() can then resurrect a session whose close was never acked;
  // the retry contract covers that (the client re-issues the close).
  StatusOr<JsonValue> Close(const JsonValue& params, ServiceMetrics* metrics,
                            bool wal_degraded = false);

  // Transcript + identity, written to disk by the manager on close or
  // shutdown (when a transcript directory is configured).
  JsonValue TranscriptJson() const;

  // Indices into the metrics label axes (StrategyLabelName /
  // EngineLabelName) for this session's strategy and *active* conflict
  // engine — after a demotion the attribution follows the engine
  // actually doing the work.
  size_t strategy_label() const;
  size_t engine_label() const;

  // Bumps the labeled session counter; the manager calls this once when
  // the session is registered (create or recovery).
  void RecordOpened(ServiceMetrics* metrics) const;

  // Folds a per-command phase-time delta (see trace::ThreadPhaseTotals)
  // into this session's labeled phase histograms. Zero phases are
  // skipped so untouched histograms stay empty.
  void ObservePhases(ServiceMetrics* metrics,
                     const trace::PhaseTotals& delta) const;

  bool closed() const { return closed_; }

  // Rough resident-byte estimate for the memory governor: working
  // overlay atoms + provenance, transcript entries, and un-compacted
  // WAL backlog, plus a fixed per-session overhead. Deliberately cheap
  // (a few size() reads) — it runs after every session command.
  int64_t EstimateMemoryBytes() const;

 private:
  RepairSession(std::string id, std::string kb_label, KnowledgeBase kb,
                InquiryOptions options, JsonValue create_params);

  // Folds any new engine demotions into the metrics (idempotent).
  void ReportEngineFallbacks(size_t total_fallbacks, ServiceMetrics* metrics);

  // Shared WAL-replay loop behind Recover()/RecoverFromBase().
  static Status ReplayWalEntries(RepairSession* session,
                                 const std::vector<JsonValue>& entries);

  std::string id_;
  std::string kb_label_;
  // Refcount on the shared base this session forked from (empty for
  // private-KB sessions). Declared before kb_ so it outlives the fork —
  // kb_ shares segments the snapshot owns.
  BaseRegistry::Handle base_;
  KnowledgeBase kb_;
  InquiryOptions options_;
  // The create request params, kept verbatim for WAL records (recovery
  // rebuilds the KB and options from them).
  JsonValue create_params_;
  // Shared with options_.chase_options so every chase the engine runs
  // honours the armed deadline.
  std::shared_ptr<CancelToken> cancel_;
  // Constructed after kb_ reaches its final address (the engine keeps a
  // KnowledgeBase*).
  std::unique_ptr<InquiryEngine> engine_;
  SessionTranscript transcript_;
  std::unique_ptr<SessionWal> wal_;
  size_t wal_compact_every_ = 64;
  size_t reported_fallbacks_ = 0;
  bool question_outstanding_ = false;  // served but not yet answered
  bool closed_ = false;
};

}  // namespace kbrepair

#endif  // KBREPAIR_SERVICE_SESSION_H_
