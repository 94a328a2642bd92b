#include "service/session.h"

#include "util/log.h"
#include <utility>

#include "gen/durum_wheat.h"
#include "gen/synthetic.h"
#include "parser/dlgp_parser.h"

namespace kbrepair {

namespace {

JsonValue FactsToJson(const FactBase& facts, const SymbolTable& symbols) {
  JsonValue out = JsonValue::Array();
  for (AtomId id = 0; id < facts.size(); ++id) {
    out.Append(JsonValue::String(facts.atom(id).ToString(symbols)));
  }
  return out;
}

const char* TermKindTag(TermKind kind) {
  switch (kind) {
    case TermKind::kConstant:
      return "constant";
    case TermKind::kVariable:
      return "variable";
    case TermKind::kNull:
      return "null";
  }
  return "?";
}

}  // namespace

// Comparison stays at the string level: interning the recorded terms
// into the live symbol table would advance its fresh-null counter, so
// the replayed dialogue would mint differently named nulls and
// recovery would no longer be byte-identical with the original run.
std::optional<size_t> MatchRecordedFixJson(const JsonValue& recorded,
                                           const Question& question,
                                           const InquiryView& view,
                                           const SymbolTable& symbols) {
  const AtomId atom = static_cast<AtomId>(recorded.Get("atom").AsInt(-1));
  const int arg = static_cast<int>(recorded.Get("arg").AsInt(-1));
  const std::string kind = recorded.Get("kind").AsString();
  const std::string value = recorded.Get("value").AsString();
  for (size_t i = 0; i < question.fixes.size(); ++i) {
    const Fix& offered = question.fixes[i];
    if (offered.atom != atom || offered.arg != arg) continue;
    const TermKind offered_kind = symbols.term_kind(offered.value);
    const bool exact = kind == TermKindTag(offered_kind) &&
                       value == symbols.term_name(offered.value);
    // A re-run mints a different fresh null for the same position; both
    // denote "unknown unique to the position".
    const bool both_fresh_nulls =
        kind == "null" && offered_kind == TermKind::kNull &&
        view.facts != nullptr && view.facts->TermUseCount(offered.value) == 0;
    if (exact || both_fresh_nulls) return i;
  }
  return std::nullopt;
}

namespace {

// Attributes the phase time a command spends to the session's
// (strategy, engine) metrics slot when it leaves scope. The manager
// serializes a session's commands on one worker thread, so the
// thread-local accumulator delta is exactly this command's work.
class ScopedPhaseAttribution {
 public:
  ScopedPhaseAttribution(const RepairSession& session, ServiceMetrics* metrics)
      : session_(session),
        metrics_(metrics),
        before_(trace::ThreadPhaseTotals()) {}
  ~ScopedPhaseAttribution() {
    session_.ObservePhases(metrics_, trace::ThreadPhaseTotals().Since(before_));
  }

  ScopedPhaseAttribution(const ScopedPhaseAttribution&) = delete;
  ScopedPhaseAttribution& operator=(const ScopedPhaseAttribution&) = delete;

 private:
  const RepairSession& session_;
  ServiceMetrics* metrics_;
  trace::PhaseTotals before_;
};

}  // namespace

StatusOr<KnowledgeBase> BuildKbFromParams(const JsonValue& params,
                                          std::string* label) {
  if (params.Get("kb_dlgp").is_string()) {
    KBREPAIR_ASSIGN_OR_RETURN(
        KnowledgeBase kb, ParseDlgp(params.Get("kb_dlgp").AsString()));
    KBREPAIR_RETURN_IF_ERROR(kb.Validate());
    *label = "dlgp";
    return kb;
  }
  const std::string name = params.Get("kb").AsString();
  if (name == "durum_wheat_v1" || name == "durum_wheat_v2") {
    DurumWheatOptions options;
    options.version = name == "durum_wheat_v1" ? DurumWheatVersion::kV1
                                               : DurumWheatVersion::kV2;
    if (params.Get("kb_seed").is_number()) {
      options.seed = static_cast<uint64_t>(params.Get("kb_seed").AsInt());
    }
    KBREPAIR_ASSIGN_OR_RETURN(DurumWheatKb durum,
                              GenerateDurumWheatKb(options));
    *label = name;
    return std::move(durum.kb);
  }
  if (name == "synthetic") {
    SyntheticKbOptions options;
    // Service defaults favour fast interactive sessions; callers scale
    // up explicitly.
    options.num_facts = 60;
    options.num_cdds = 6;
    options.inconsistency_ratio = 0.3;
    if (params.Get("kb_seed").is_number()) {
      options.seed = static_cast<uint64_t>(params.Get("kb_seed").AsInt());
    }
    if (params.Get("num_facts").is_number()) {
      options.num_facts =
          static_cast<size_t>(params.Get("num_facts").AsInt());
    }
    if (params.Get("num_cdds").is_number()) {
      options.num_cdds = static_cast<size_t>(params.Get("num_cdds").AsInt());
    }
    if (params.Get("inconsistency_ratio").is_number()) {
      options.inconsistency_ratio =
          params.Get("inconsistency_ratio").AsDouble();
    }
    // The full generator surface, so a WAL create record reconstructs
    // any harness KB bit-for-bit (the differential matrix uses TGD
    // chains and tight arity/multiplicity ranges the defaults lack).
    if (params.Get("num_tgds").is_number()) {
      options.num_tgds = static_cast<size_t>(params.Get("num_tgds").AsInt());
    }
    if (params.Get("conflict_depth").is_number()) {
      options.conflict_depth =
          static_cast<int>(params.Get("conflict_depth").AsInt());
    }
    if (params.Get("routed_violation_share").is_number()) {
      options.routed_violation_share =
          params.Get("routed_violation_share").AsDouble();
    }
    if (params.Get("cdd_min_atoms").is_number()) {
      options.cdd_min_atoms =
          static_cast<int>(params.Get("cdd_min_atoms").AsInt());
    }
    if (params.Get("cdd_max_atoms").is_number()) {
      options.cdd_max_atoms =
          static_cast<int>(params.Get("cdd_max_atoms").AsInt());
    }
    if (params.Get("min_arity").is_number()) {
      options.min_arity = static_cast<int>(params.Get("min_arity").AsInt());
    }
    if (params.Get("max_arity").is_number()) {
      options.max_arity = static_cast<int>(params.Get("max_arity").AsInt());
    }
    if (params.Get("min_multiplicity").is_number()) {
      options.min_multiplicity =
          static_cast<int>(params.Get("min_multiplicity").AsInt());
    }
    if (params.Get("max_multiplicity").is_number()) {
      options.max_multiplicity =
          static_cast<int>(params.Get("max_multiplicity").AsInt());
    }
    KBREPAIR_ASSIGN_OR_RETURN(SyntheticKb synthetic,
                              GenerateSyntheticKb(options));
    *label = "synthetic";
    return std::move(synthetic.kb);
  }
  if (name.empty()) {
    return Status::InvalidArgument(
        "create needs a 'kb' name or inline 'kb_dlgp' text");
  }
  return Status::InvalidArgument("unknown kb '" + name + "'");
}

StatusOr<InquiryOptions> InquiryOptionsFromParams(const JsonValue& params) {
  InquiryOptions options;
  if (params.Get("strategy").is_string()) {
    KBREPAIR_ASSIGN_OR_RETURN(
        options.strategy, ParseStrategy(params.Get("strategy").AsString()));
  }
  if (params.Get("seed").is_number()) {
    options.seed = static_cast<uint64_t>(params.Get("seed").AsInt());
  }
  if (params.Get("two_phase").is_bool()) {
    options.two_phase = params.Get("two_phase").AsBool();
  }
  if (params.Get("max_questions").is_number()) {
    options.max_questions =
        static_cast<size_t>(params.Get("max_questions").AsInt());
  }
  if (params.Get("engine").is_string()) {
    KBREPAIR_ASSIGN_OR_RETURN(
        options.conflict_engine,
        ParseConflictEngine(params.Get("engine").AsString()));
  }
  if (params.Get("record_convergence").is_string()) {
    const std::string mode = params.Get("record_convergence").AsString();
    if (mode == "off") {
      options.record_convergence = ConvergenceRecording::kOff;
    } else if (mode == "total") {
      options.record_convergence = ConvergenceRecording::kTotalConflicts;
    } else if (mode == "discovered") {
      options.record_convergence = ConvergenceRecording::kDiscoveredConflicts;
    } else {
      return Status::InvalidArgument(
          "unknown record_convergence '" + mode +
          "' (expected 'off', 'total', or 'discovered')");
    }
  }
  return options;
}

RepairSession::RepairSession(std::string id, std::string kb_label,
                             KnowledgeBase kb, InquiryOptions options,
                             JsonValue create_params)
    : id_(std::move(id)),
      kb_label_(std::move(kb_label)),
      kb_(std::move(kb)),
      options_(options),
      create_params_(std::move(create_params)),
      cancel_(std::make_shared<CancelToken>()) {
  // Every chase-running component the engine builds shares this token,
  // so arming it bounds a whole command.
  options_.chase_options.cancel = cancel_;
  engine_ = std::make_unique<InquiryEngine>(&kb_, options_);
}

StatusOr<std::unique_ptr<RepairSession>> RepairSession::Create(
    std::string id, const JsonValue& params, int64_t deadline_ms) {
  std::string label;
  KBREPAIR_ASSIGN_OR_RETURN(KnowledgeBase kb,
                            BuildKbFromParams(params, &label));
  KBREPAIR_ASSIGN_OR_RETURN(InquiryOptions options,
                            InquiryOptionsFromParams(params));
  std::unique_ptr<RepairSession> session(new RepairSession(
      std::move(id), std::move(label), std::move(kb), options, params));
  session->ArmDeadline(deadline_ms);
  const Status begun = session->engine_->Begin();
  session->DisarmDeadline();
  KBREPAIR_RETURN_IF_ERROR(begun);
  return session;
}

StatusOr<std::unique_ptr<RepairSession>> RepairSession::CreateFromBase(
    std::string id, const JsonValue& params, BaseRegistry::Handle base,
    int64_t deadline_ms) {
  KBREPAIR_CHECK(static_cast<bool>(base));
  KBREPAIR_ASSIGN_OR_RETURN(InquiryOptions options,
                            InquiryOptionsFromParams(params));
  const std::shared_ptr<const SharedKbSnapshot>& snapshot = base.snapshot();
  std::unique_ptr<RepairSession> session(
      new RepairSession(std::move(id), snapshot->label, snapshot->Fork(),
                        options, params));
  session->base_ = std::move(base);
  session->ArmDeadline(deadline_ms);
  // Adopts the snapshot's precomputed verdict/censuses and arms the
  // frozen engine prototypes; the seed stays valid because base_ pins
  // the snapshot for the session's lifetime.
  const Status begun =
      session->engine_->BeginShared(session->base_.snapshot()->Seed());
  session->DisarmDeadline();
  KBREPAIR_RETURN_IF_ERROR(begun);
  return session;
}

StatusOr<std::unique_ptr<RepairSession>> RepairSession::Recover(
    std::string id, const JsonValue& create_params,
    const std::vector<JsonValue>& entries) {
  std::string label;
  KBREPAIR_ASSIGN_OR_RETURN(KnowledgeBase kb,
                            BuildKbFromParams(create_params, &label));
  KBREPAIR_ASSIGN_OR_RETURN(InquiryOptions options,
                            InquiryOptionsFromParams(create_params));
  std::unique_ptr<RepairSession> session(new RepairSession(
      std::move(id), std::move(label), std::move(kb), options, create_params));
  KBREPAIR_RETURN_IF_ERROR(session->engine_->Begin());
  KBREPAIR_RETURN_IF_ERROR(ReplayWalEntries(session.get(), entries));
  return session;
}

StatusOr<std::unique_ptr<RepairSession>> RepairSession::RecoverFromBase(
    std::string id, const JsonValue& create_params,
    BaseRegistry::Handle base, const std::vector<JsonValue>& entries) {
  KBREPAIR_CHECK(static_cast<bool>(base));
  KBREPAIR_ASSIGN_OR_RETURN(InquiryOptions options,
                            InquiryOptionsFromParams(create_params));
  const std::shared_ptr<const SharedKbSnapshot>& snapshot = base.snapshot();
  std::unique_ptr<RepairSession> session(
      new RepairSession(std::move(id), snapshot->label, snapshot->Fork(),
                        options, create_params));
  session->base_ = std::move(base);
  KBREPAIR_RETURN_IF_ERROR(
      session->engine_->BeginShared(session->base_.snapshot()->Seed()));
  KBREPAIR_RETURN_IF_ERROR(ReplayWalEntries(session.get(), entries));
  return session;
}

Status RepairSession::ReplayWalEntries(RepairSession* session,
                                       const std::vector<JsonValue>& entries) {
  // Replay the WAL's answer records through the restarted engine,
  // validating each recorded fix against the question the engine
  // regenerates. The match is done on the wire JSON directly (see
  // MatchRecordedFixJson) so replay never mutates the symbol table.
  for (size_t n = 0; n < entries.size(); ++n) {
    const JsonValue& record = entries[n];
    const JsonValue& fixes_json = record.Get("question").Get("fixes");
    if (!record.Get("chosen").is_number() || !fixes_json.is_array()) {
      return Status::InvalidArgument(
          "WAL answer record " + std::to_string(n) +
          " needs 'chosen' and 'question.fixes'");
    }
    const size_t chosen = static_cast<size_t>(record.Get("chosen").AsInt(0));
    if (chosen >= fixes_json.size()) {
      return Status::InvalidArgument(
          "WAL answer record " + std::to_string(n) +
          " chose a fix index out of range");
    }
    // An append whose write landed but whose fsync failed leaves a
    // *ghost* record: the command was rejected (never executed), the
    // client retried it verbatim, and the retry appended the identical
    // line again. A ghost is therefore an exact duplicate of its
    // predecessor that the regenerated dialogue has no question for —
    // skip it. A legitimately repeated identical answer still matches
    // the next regenerated question and replays normally.
    const bool duplicate_of_previous =
        n > 0 && record.Dump() == entries[n - 1].Dump();
    KBREPAIR_ASSIGN_OR_RETURN(const Question* question,
                              session->engine_->NextQuestion());
    if (question == nullptr) {
      if (duplicate_of_previous) continue;
      return Status::Internal(
          "WAL replay diverged: dialogue reached consistency with " +
          std::to_string(entries.size() - n) + " recorded answer(s) left");
    }
    const std::optional<size_t> choice =
        MatchRecordedFixJson(fixes_json.at(chosen), *question,
                             session->engine_->View(), session->kb_.symbols());
    if (!choice.has_value()) {
      if (duplicate_of_previous) continue;
      return Status::Internal(
          "WAL replay diverged at answer " + std::to_string(n) +
          ": recorded fix not offered by the regenerated question");
    }
    const Question regenerated = *question;
    KBREPAIR_RETURN_IF_ERROR(session->engine_->Answer(*choice));
    session->transcript_.Record(regenerated, *choice);
  }
  return Status::Ok();
}

void RepairSession::AttachWal(std::unique_ptr<SessionWal> wal,
                              size_t compact_every) {
  wal_ = std::move(wal);
  if (compact_every > 0) wal_compact_every_ = compact_every;
}

void RepairSession::ArmDeadline(int64_t budget_ms) {
  if (budget_ms > 0) cancel_->ArmDeadline(budget_ms);
}

void RepairSession::DisarmDeadline() { cancel_->Disarm(); }

void RepairSession::ReportEngineFallbacks(size_t total_fallbacks,
                                          ServiceMetrics* metrics) {
  if (total_fallbacks <= reported_fallbacks_) return;
  if (metrics != nullptr) {
    metrics->engine_fallbacks.fetch_add(total_fallbacks - reported_fallbacks_,
                                        std::memory_order_relaxed);
    // Readiness signal: a demotion means the incremental latency bound
    // regressed to the scratch engine's; /readyz degrades for the
    // hold-down window.
    metrics->last_engine_demotion_ns.store(MonotonicNowNs(),
                                           std::memory_order_relaxed);
  }
  logging::Warn("session", "incremental engine demoted to scratch")
      .With("session", id_)
      .With("fallbacks", total_fallbacks - reported_fallbacks_);
  reported_fallbacks_ = total_fallbacks;
}

size_t RepairSession::strategy_label() const {
  return static_cast<size_t>(options_.strategy);
}

size_t RepairSession::engine_label() const {
  return engine_->active_engine() == ConflictEngineKind::kIncremental ? 1 : 0;
}

void RepairSession::RecordOpened(ServiceMetrics* metrics) const {
  if (metrics == nullptr) return;
  metrics->ForLabels(strategy_label(), engine_label())
      .sessions.fetch_add(1, std::memory_order_relaxed);
}

void RepairSession::ObservePhases(ServiceMetrics* metrics,
                                  const trace::PhaseTotals& delta) const {
  if (metrics == nullptr) return;
  LabeledMetrics& labeled =
      metrics->ForLabels(strategy_label(), engine_label());
  for (size_t p = 0; p < trace::kNumPhases; ++p) {
    if (delta.seconds[p] > 0.0) labeled.phases[p].Observe(delta.seconds[p]);
  }
}

StatusOr<JsonValue> RepairSession::Ask(ServiceMetrics* metrics) {
  trace::ScopedSpan span("session.ask");
  // `step` is the 1-based question index the command works on; per
  // session it is non-decreasing, which kbrepair-client --trace-dir
  // validation checks.
  if (span.recording()) {
    span.Annotate("session=" + id_ + " step=" +
                  std::to_string(engine_->progress().records.size() + 1));
  }
  ScopedPhaseAttribution attribution(*this, metrics);
  KBREPAIR_ASSIGN_OR_RETURN(const Question* question,
                            engine_->NextQuestion());
  ReportEngineFallbacks(engine_->progress().engine_fallbacks, metrics);
  JsonValue out = JsonValue::Object();
  out.Set("session", JsonValue::String(id_));
  const size_t answered = engine_->progress().records.size();
  if (question == nullptr) {
    out.Set("done", JsonValue::Bool(true));
    out.Set("questions", JsonValue::Number(static_cast<int64_t>(answered)));
    return out;
  }
  if (!question_outstanding_) {
    question_outstanding_ = true;
    if (metrics != nullptr) {
      metrics->questions_served.fetch_add(1, std::memory_order_relaxed);
      metrics->ForLabels(strategy_label(), engine_label())
          .questions.fetch_add(1, std::memory_order_relaxed);
    }
  }
  out.Set("done", JsonValue::Bool(false));
  out.Set("turn", JsonValue::Number(static_cast<int64_t>(answered + 1)));
  out.Set("question", QuestionToWireJson(*question, engine_->View()));
  return out;
}

StatusOr<JsonValue> RepairSession::Answer(const JsonValue& params,
                                          ServiceMetrics* metrics) {
  trace::ScopedSpan span("session.answer");
  if (span.recording()) {
    span.Annotate("session=" + id_ + " step=" +
                  std::to_string(engine_->progress().records.size() + 1));
  }
  ScopedPhaseAttribution attribution(*this, metrics);
  if (!params.Get("choice").is_number() ||
      params.Get("choice").AsInt() < 0) {
    return Status::InvalidArgument(
        "answer needs a non-negative numeric 'choice'");
  }
  const size_t choice = static_cast<size_t>(params.Get("choice").AsInt());
  KBREPAIR_ASSIGN_OR_RETURN(const Question* question,
                            engine_->NextQuestion());
  if (question == nullptr) {
    return Status::FailedPrecondition("session is already consistent");
  }
  if (choice >= question->fixes.size()) {
    return Status::InvalidArgument(
        "choice " + std::to_string(choice) + " out of range (question has " +
        std::to_string(question->fixes.size()) + " fixes)");
  }
  // Copy before Answer() invalidates the pending question.
  const Question recorded = *question;

  // WAL-before-execute: the accepted answer is durable before it takes
  // effect. On append failure the command is *rejected* — the engine was
  // not touched, so the client can safely retry.
  if (wal_ != nullptr) {
    const JsonValue record = SessionWal::AnswerRecord(
        SessionTranscript::EntryToJson(TranscriptEntry{recorded, choice},
                                       kb_.symbols()));
    bool fsync_failed = false;
    bool disk_full = false;
    const Status appended = wal_->Append(record, &fsync_failed, &disk_full);
    if (!appended.ok()) {
      if (metrics != nullptr) {
        if (fsync_failed) {
          metrics->wal_fsync_failures.fetch_add(1, std::memory_order_relaxed);
          metrics->last_wal_fsync_failure_ns.store(MonotonicNowNs(),
                                                   std::memory_order_relaxed);
        }
        if (disk_full) {
          metrics->wal_disk_full_failures.fetch_add(1,
                                                    std::memory_order_relaxed);
          metrics->last_wal_disk_full_ns.store(MonotonicNowNs(),
                                               std::memory_order_relaxed);
        }
        metrics->rejected_commands.fetch_add(1, std::memory_order_relaxed);
      }
      logging::Warn("session", "answer rejected: WAL append failed")
          .With("session", id_)
          .With("error", appended.message());
      // Disk-full is a resource condition, not transient flakiness: the
      // owning shard is about to flip degraded, so hand the client the
      // code that tells it to back off harder.
      if (disk_full) {
        return Status::ResourceExhausted("WAL disk full: " +
                                         appended.message());
      }
      return appended;
    }
    if (metrics != nullptr) {
      metrics->wal_appends.fetch_add(1, std::memory_order_relaxed);
    }
  }

  KBREPAIR_RETURN_IF_ERROR(engine_->Answer(choice));
  transcript_.Record(recorded, choice);
  question_outstanding_ = false;
  ReportEngineFallbacks(engine_->progress().engine_fallbacks, metrics);

  if (wal_ != nullptr &&
      wal_->appends_since_compaction() >= wal_compact_every_) {
    std::vector<JsonValue> entry_records;
    entry_records.reserve(transcript_.size());
    for (const TranscriptEntry& entry : transcript_.entries()) {
      entry_records.push_back(
          SessionTranscript::EntryToJson(entry, kb_.symbols()));
    }
    const Status compacted = wal_->Compact(create_params_, entry_records);
    if (compacted.ok()) {
      if (metrics != nullptr) {
        metrics->wal_compactions.fetch_add(1, std::memory_order_relaxed);
      }
    } else {
      // The pre-compaction log is still intact and replayable; keep
      // serving and try again after the next answer.
      logging::Warn("session", "WAL compaction failed")
          .With("session", id_)
          .With("error", compacted.message());
    }
  }

  const QuestionRecord& record = engine_->progress().records.back();
  if (metrics != nullptr) {
    metrics->answers_applied.fetch_add(1, std::memory_order_relaxed);
    metrics->turn_delay.Observe(record.delay_seconds);
    LabeledMetrics& labeled =
        metrics->ForLabels(strategy_label(), engine_label());
    labeled.answers.fetch_add(1, std::memory_order_relaxed);
    labeled.turn_delay.Observe(record.delay_seconds);
  }
  JsonValue out = JsonValue::Object();
  out.Set("session", JsonValue::String(id_));
  out.Set("applied", JsonValue::Bool(true));
  out.Set("turn", JsonValue::Number(static_cast<int64_t>(
                      engine_->progress().records.size())));
  out.Set("phase", JsonValue::Number(static_cast<int64_t>(record.phase)));
  out.Set("conflicts_remaining",
          JsonValue::Number(static_cast<int64_t>(record.conflicts_remaining)));
  return out;
}

JsonValue RepairSession::StatusInfo() const {
  JsonValue out = JsonValue::Object();
  out.Set("session", JsonValue::String(id_));
  out.Set("kb", JsonValue::String(kb_label_));
  if (base_) out.Set("base", JsonValue::String(base_.name()));
  out.Set("strategy", JsonValue::String(StrategyName(options_.strategy)));
  out.Set("engine",
          JsonValue::String(ConflictEngineName(options_.conflict_engine)));
  // Graceful degradation is visible: after a fallback the active engine
  // differs from the requested one.
  out.Set("engine_active",
          JsonValue::String(ConflictEngineName(engine_->active_engine())));
  out.Set("engine_degraded",
          JsonValue::Bool(engine_->active_engine() !=
                          options_.conflict_engine));
  out.Set("seed", JsonValue::Number(static_cast<int64_t>(options_.seed)));
  const char* state = "active";
  if (closed_) {
    state = "closed";
  } else if (engine_->finished()) {
    state = "consistent";
  } else if (question_outstanding_) {
    state = "awaiting_answer";
  }
  out.Set("state", JsonValue::String(state));
  out.Set("questions", JsonValue::Number(static_cast<int64_t>(
                           engine_->started()
                               ? engine_->progress().records.size()
                               : transcript_.size())));
  if (engine_->started()) {
    out.Set("facts", JsonValue::Number(static_cast<int64_t>(
                         engine_->working_facts().size())));
    out.Set("initial_conflicts",
            JsonValue::Number(static_cast<int64_t>(
                engine_->progress().initial_conflicts)));
  }
  return out;
}

StatusOr<JsonValue> RepairSession::Snapshot() const {
  if (!engine_->started()) {
    return Status::FailedPrecondition("session is closed");
  }
  JsonValue out = JsonValue::Object();
  out.Set("session", JsonValue::String(id_));
  out.Set("consistent", JsonValue::Bool(engine_->finished()));
  out.Set("questions", JsonValue::Number(static_cast<int64_t>(
                           engine_->progress().records.size())));
  out.Set("transcript", transcript_.ToJson(kb_.symbols()));
  out.Set("facts", FactsToJson(engine_->working_facts(), kb_.symbols()));
  return out;
}

StatusOr<JsonValue> RepairSession::Close(const JsonValue& params,
                                         ServiceMetrics* metrics,
                                         bool wal_degraded) {
  trace::ScopedSpan span("session.close");
  if (span.recording()) span.Annotate("session=" + id_);
  ScopedPhaseAttribution attribution(*this, metrics);
  if (closed_) {
    return Status::FailedPrecondition("session is already closed");
  }
  // Log the close before executing it; if the daemon dies in between,
  // recovery sees the close record and discards the WAL instead of
  // resurrecting a session the client was told nothing about. In
  // disk-degraded mode the append is skipped outright: close must keep
  // working on a full disk (Remove() below is what frees space), at the
  // cost of the resurrection window documented on Close() in the header.
  if (wal_ != nullptr && !wal_degraded) {
    bool fsync_failed = false;
    bool disk_full = false;
    const Status appended = wal_->Append(SessionWal::CloseRecord(),
                                         &fsync_failed, &disk_full);
    if (!appended.ok()) {
      if (metrics != nullptr) {
        if (fsync_failed) {
          metrics->wal_fsync_failures.fetch_add(1, std::memory_order_relaxed);
          metrics->last_wal_fsync_failure_ns.store(MonotonicNowNs(),
                                                   std::memory_order_relaxed);
        }
        if (disk_full) {
          metrics->wal_disk_full_failures.fetch_add(1,
                                                    std::memory_order_relaxed);
          metrics->last_wal_disk_full_ns.store(MonotonicNowNs(),
                                               std::memory_order_relaxed);
        }
      }
      if (disk_full) {
        // First sign of a full disk on a close: fall through and serve
        // it degraded-style anyway. Rejecting would wedge the client —
        // closing sessions is exactly how disk space comes back.
        logging::Warn("session",
                      "close record hit a full disk; closing without it")
            .With("session", id_)
            .With("error", appended.message());
      } else {
        if (metrics != nullptr) {
          metrics->rejected_commands.fetch_add(1, std::memory_order_relaxed);
        }
        logging::Warn("session", "close rejected: WAL append failed")
            .With("session", id_)
            .With("error", appended.message());
        return appended;
      }
    } else {
      if (metrics != nullptr) {
        metrics->wal_appends.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
  const bool consistent = engine_->finished();
  KBREPAIR_ASSIGN_OR_RETURN(InquiryResult result, engine_->Finish());
  closed_ = true;
  ReportEngineFallbacks(result.engine_fallbacks, metrics);
  // The session ended cleanly; there is nothing left to recover.
  if (wal_ != nullptr) {
    const Status removed = wal_->Remove();
    if (!removed.ok()) {
      logging::Warn("session", "WAL removal failed")
          .With("session", id_)
          .With("error", removed.message());
    }
    wal_.reset();
  }
  JsonValue out = JsonValue::Object();
  out.Set("session", JsonValue::String(id_));
  out.Set("closed", JsonValue::Bool(true));
  out.Set("consistent", JsonValue::Bool(consistent));
  out.Set("questions",
          JsonValue::Number(static_cast<int64_t>(result.num_questions())));
  out.Set("applied_fixes",
          JsonValue::Number(static_cast<int64_t>(result.applied_fixes.size())));
  out.Set("total_seconds", JsonValue::Number(result.total_seconds));
  out.Set("mean_delay_ms",
          JsonValue::Number(result.MeanDelaySeconds() * 1e3));
  if (params.Get("include_facts").AsBool(false)) {
    out.Set("facts", FactsToJson(result.facts, kb_.symbols()));
  }
  return out;
}

int64_t RepairSession::EstimateMemoryBytes() const {
  // Calibrated against heap profiles of synthetic sessions: an overlay
  // atom plus its provenance node lands near 128 bytes, a transcript
  // entry (question copy + fix strings) near 512, and each un-compacted
  // WAL record keeps a framed JSON line (~256 bytes) alive in the page
  // cache and replay cost. The fixed overhead covers the engine, symbol
  // table delta, and bookkeeping of an idle session.
  constexpr int64_t kSessionOverheadBytes = 16 * 1024;
  constexpr int64_t kBytesPerFact = 128;
  constexpr int64_t kBytesPerTranscriptEntry = 512;
  constexpr int64_t kBytesPerWalRecord = 256;
  int64_t estimate = kSessionOverheadBytes;
  if (engine_ != nullptr && engine_->started()) {
    estimate += static_cast<int64_t>(engine_->working_facts().size()) *
                kBytesPerFact;
  }
  estimate +=
      static_cast<int64_t>(transcript_.size()) * kBytesPerTranscriptEntry;
  if (wal_ != nullptr) {
    estimate += static_cast<int64_t>(wal_->appends_since_compaction()) *
                kBytesPerWalRecord;
  }
  return estimate;
}

JsonValue RepairSession::TranscriptJson() const {
  JsonValue out = JsonValue::Object();
  out.Set("session", JsonValue::String(id_));
  out.Set("kb", JsonValue::String(kb_label_));
  out.Set("strategy", JsonValue::String(StrategyName(options_.strategy)));
  out.Set("seed", JsonValue::Number(static_cast<int64_t>(options_.seed)));
  out.Set("transcript", transcript_.ToJson(kb_.symbols()));
  return out;
}

}  // namespace kbrepair
