#include "repair/inquiry.h"

#include <algorithm>
#include <iostream>
#include <iterator>
#include <map>
#include <string>
#include <unordered_map>

#include "repair/delta_conflicts.h"
#include "util/logging.h"
#include "util/timer.h"

namespace kbrepair {

namespace {

// What sets each Section 5 strategy apart from the shared inquiry loop,
// one row per Strategy in enum order.
struct StrategyTraits {
  const char* name;
  // Ask about the position contained in the most conflicts (Section 5's
  // conflict-hypergraph ranking) before falling back to a conflict.
  bool ranks_positions;
  // Question every position of the chosen conflict, not only its join
  // (resolving) positions.
  bool asks_all_positions;
  // Freeze the unchosen positions of a question that touch no other
  // conflict into Π.
  bool propagates;
  // Re-order each question's fixes by the learned preference model.
  bool learns_order;
};

constexpr StrategyTraits kStrategies[] = {
    {"random", false, true, false, false},
    {"opti-join", false, false, false, false},
    {"opti-prop", false, false, true, false},
    {"opti-mcd", true, false, false, false},
    {"opti-learn", true, false, false, true},
};

// One name per ConflictEngineKind, in enum order.
constexpr const char* kEngineNames[] = {"scratch", "incremental"};

const StrategyTraits& TraitsOf(Strategy strategy) {
  const size_t index = static_cast<size_t>(strategy);
  KBREPAIR_CHECK(index < std::size(kStrategies));
  return kStrategies[index];
}

}  // namespace

const char* StrategyName(Strategy strategy) {
  const size_t index = static_cast<size_t>(strategy);
  return index < std::size(kStrategies) ? kStrategies[index].name : "unknown";
}

StatusOr<Strategy> ParseStrategy(std::string_view name) {
  for (size_t i = 0; i < std::size(kStrategies); ++i) {
    if (name == kStrategies[i].name) return static_cast<Strategy>(i);
  }
  return Status::InvalidArgument("unknown strategy '" + std::string(name) +
                                 "'");
}

const char* ConflictEngineName(ConflictEngineKind kind) {
  const size_t index = static_cast<size_t>(kind);
  return index < std::size(kEngineNames) ? kEngineNames[index] : "unknown";
}

StatusOr<ConflictEngineKind> ParseConflictEngine(std::string_view name) {
  for (size_t i = 0; i < std::size(kEngineNames); ++i) {
    if (name == kEngineNames[i]) return static_cast<ConflictEngineKind>(i);
  }
  std::string expected;
  for (const char* engine : kEngineNames) {
    expected += expected.empty() ? "'" : " or '";
    expected += engine;
    expected += "'";
  }
  return Status::InvalidArgument("unknown engine '" + std::string(name) +
                                 "' (expected " + expected + ")");
}

double InquiryResult::MeanDelaySeconds() const {
  if (records.empty()) return 0.0;
  double sum = 0.0;
  for (const QuestionRecord& r : records) sum += r.delay_seconds;
  return sum / static_cast<double>(records.size());
}

double InquiryResult::MaxDelaySeconds() const {
  double max = 0.0;
  for (const QuestionRecord& r : records) {
    max = std::max(max, r.delay_seconds);
  }
  return max;
}

// Mutable per-run state bundled so helper methods stay small. With the
// stepwise API this is the *suspended* state of a dialogue between an
// Answer() and the next NextQuestion() — everything a service needs to
// park a session between turns.
struct InquiryEngine::Session {
  // Which loop of the original algorithms the state machine is in.
  enum class Mode {
    kPhaseOne,  // Algorithm 4 phase one: naive conflicts, incremental
    kPhaseTwo,  // Algorithm 4 phase two: chase-surfaced conflicts
    kBasic,     // Algorithm 3: allconflicts recomputed each round
  };

  FactBase facts;
  PositionSet pi;
  PositionSet propagated;                 // Π entries added by opti-prop
  std::vector<Position> pending_propagation;
  Rng rng;
  InquiryResult result;
  WallTimer total_timer;
  // Engine compute spent on the *next* question so far: the post-answer
  // maintenance accumulates here (and in pending_phase_totals, by
  // phase), and ComputeNextQuestion folds in the generation time. Parked
  // wall time between stepwise calls never enters either.
  double pending_compute = 0.0;
  trace::PhaseTotals pending_phase_totals;

  Mode mode;
  // The engine in use this round: options.conflict_engine until a
  // delta-engine failure demotes the session to kScratch for good.
  ConflictEngineKind active_engine;
  ConflictTracker tracker;                // used in kPhaseOne only
  // Maintained chased-conflict engine (ConflictEngineKind::kIncremental).
  // Created lazily at the first round or census that needs chased
  // conflicts, then notified of every subsequent fix.
  std::unique_ptr<DeltaConflictEngine> delta;
  // Maintained Π-skeleton census (kIncremental): empty() is the
  // Π-repairability verdict. Mirrors every Π change as a rewrite of the
  // affected position (fix value, frozen facts value, or — on unfreeze —
  // the position's stable scratch null).
  std::unique_ptr<DeltaConflictEngine> skeleton_delta;
  std::optional<Question> pending;        // awaiting an Answer()
  double pending_delay = 0.0;             // delay captured at generation
  bool done = false;                      // consistent; dialogue over

  // Frozen snapshot prototypes armed by BeginShared(): the lazy engine
  // constructors adopt them and replay the session's own Π/fix history
  // instead of cold-initializing. Null on cold (non-forked) sessions.
  const DeltaConflictEngine* delta_proto = nullptr;
  const DeltaConflictEngine* skeleton_proto = nullptr;

  // Helpers bound to the KB's rules.
  ConflictFinder finder;
  RepairabilityChecker repairability;
  QuestionGenerator generator;
  const std::vector<Cdd>* cdds;
  PreferenceModel preferences;

  const StrategyTraits& traits;
  // Phase two may stop the chase at CHECKCONSISTENCY-OPT's first
  // violation only when nothing needs the whole census: no position
  // ranking and no convergence recording.
  const bool needs_whole_census;

  Session(KnowledgeBase* kb, const InquiryOptions& options)
      : facts(kb->facts()),
        rng(options.seed),
        mode(options.two_phase ? Mode::kPhaseOne : Mode::kBasic),
        active_engine(options.conflict_engine),
        tracker(&finder),
        finder(&kb->symbols(), &kb->tgds(), &kb->cdds(),
               options.chase_options),
        repairability(&kb->symbols(), &kb->tgds(), &kb->cdds(),
                      options.chase_options),
        generator(&kb->symbols(), &repairability),
        cdds(&kb->cdds()),
        preferences(&kb->symbols()),
        traits(TraitsOf(options.strategy)),
        needs_whole_census(
            traits.ranks_positions ||
            options.record_convergence != ConvergenceRecording::kOff) {}

  std::unique_ptr<DeltaConflictEngine>& engine(Maintained which) {
    return which == Maintained::kCensus ? delta : skeleton_delta;
  }
};

InquiryEngine::InquiryEngine(KnowledgeBase* kb, InquiryOptions options)
    : kb_(kb), options_(options) {
  KBREPAIR_CHECK(kb != nullptr);
}

InquiryEngine::~InquiryEngine() = default;
InquiryEngine::InquiryEngine(InquiryEngine&&) noexcept = default;
InquiryEngine& InquiryEngine::operator=(InquiryEngine&&) noexcept = default;

Status InquiryEngine::Begin(PositionSet initial_pi) {
  step_ = std::make_unique<Session>(kb_, options_);
  Session& session = *step_;
  session.pi = std::move(initial_pi);
  KBREPAIR_ASSIGN_OR_RETURN(
      InitialCensus census,
      TakeInitialCensus(session.facts, session.pi, session.repairability,
                        session.finder));
  return Start(std::move(census));
}

Status InquiryEngine::BeginShared(const SharedBeginSeed& seed) {
  step_ = std::make_unique<Session>(kb_, options_);
  step_->delta_proto = seed.delta_proto;
  step_->skeleton_proto = seed.skeleton_proto;
  // The snapshot's census was taken for Π = ∅, which is exactly the
  // initial Π of a forked session.
  KBREPAIR_CHECK(seed.census != nullptr);
  return Start(*seed.census);
}

Status InquiryEngine::Start(InitialCensus census) {
  Session& session = *step_;
  if (!census.repairable) {
    step_.reset();
    return Status::FailedPrecondition(
        "knowledge base is not Π-repairable for the initial Π");
  }
  session.result.initial_conflicts = census.conflicts;
  // One naive scan serves both the metric and the phase-one tracker.
  session.result.initial_naive_conflicts = census.naive.size();
  if (session.mode == Session::Mode::kPhaseOne) {
    session.tracker.InitializeFromCensus(std::move(census.naive));
  }
  session.total_timer.Restart();
  return Status::Ok();
}

StatusOr<const Question*> InquiryEngine::NextQuestion() {
  if (step_ == nullptr) {
    return Status::FailedPrecondition("NextQuestion() before Begin()");
  }
  Session& session = *step_;
  if (session.done) return static_cast<const Question*>(nullptr);
  if (!session.pending.has_value()) {
    KBREPAIR_RETURN_IF_ERROR(ComputeNextQuestion(session));
  }
  if (session.done) return static_cast<const Question*>(nullptr);
  return static_cast<const Question*>(&*session.pending);
}

Status InquiryEngine::Answer(size_t choice) {
  if (step_ == nullptr) {
    return Status::FailedPrecondition("Answer() before Begin()");
  }
  if (!step_->pending.has_value()) {
    return Status::FailedPrecondition("Answer() with no pending question");
  }
  return ApplyAnswer(*step_, choice);
}

bool InquiryEngine::finished() const {
  return step_ != nullptr && step_->done;
}

const FactBase& InquiryEngine::working_facts() const {
  KBREPAIR_CHECK(step_ != nullptr);
  return step_->facts;
}

const InquiryResult& InquiryEngine::progress() const {
  KBREPAIR_CHECK(step_ != nullptr);
  return step_->result;
}

InquiryView InquiryEngine::View() const {
  KBREPAIR_CHECK(step_ != nullptr);
  return InquiryView{&kb_->symbols(), &step_->facts, step_->cdds};
}

StatusOr<InquiryResult> InquiryEngine::Finish() {
  if (step_ == nullptr) {
    return Status::FailedPrecondition("Finish() before Begin()");
  }
  Session& session = *step_;
  session.result.total_seconds = session.total_timer.ElapsedSeconds();
  session.result.question_candidates = session.generator.total_candidates();
  session.result.question_filtered = session.generator.total_filtered();
  session.result.repairability_fast_paths =
      session.generator.total_fast_paths();
  session.result.repairability_full_checks =
      session.generator.total_full_checks();
  session.result.facts = std::move(session.facts);
  InquiryResult result = std::move(session.result);
  step_.reset();
  return result;
}

StatusOr<InquiryResult> InquiryEngine::Run(User& user,
                                           PositionSet initial_pi) {
  KBREPAIR_RETURN_IF_ERROR(Begin(std::move(initial_pi)));
  while (true) {
    KBREPAIR_ASSIGN_OR_RETURN(const Question* question, NextQuestion());
    if (question == nullptr) break;
    const InquiryView view = View();
    const std::optional<size_t> choice = user.ChooseFix(*question, view);
    if (!choice.has_value() || *choice >= question->fixes.size()) {
      step_.reset();
      return Status::FailedPrecondition(
          "user did not choose a fix from the question");
    }
    KBREPAIR_RETURN_IF_ERROR(Answer(*choice));
  }
  return Finish();
}

namespace {

// Builds descending-rank groups of candidate positions for opti-mcd.
// rank(p) = number of conflicts whose retrieved position set contains p.
// Also remembers one conflict per position (SOUNDQUESTION's X argument).
struct McdRanking {
  // (rank desc) -> positions with that rank.
  std::map<size_t, std::vector<Position>, std::greater<size_t>> groups;
  std::unordered_map<uint64_t, const Conflict*> conflict_for;

  static uint64_t Key(const Position& p) {
    return PositionKey(p.atom, p.arg);
  }
};

McdRanking RankPositions(const std::vector<const Conflict*>& conflicts,
                         const FactBase& facts, const std::vector<Cdd>& cdds,
                         const QuestionGenerator& generator,
                         const PositionSet& pi) {
  std::unordered_map<uint64_t, std::pair<Position, size_t>> counts;
  McdRanking ranking;
  for (const Conflict* conflict : conflicts) {
    for (const Position& p : generator.RetrievePositions(
             facts, *conflict, cdds,
             PositionSelection::kResolvingPositions)) {
      if (pi.count(p) > 0) continue;
      const uint64_t key = McdRanking::Key(p);
      auto [it, inserted] = counts.emplace(key, std::make_pair(p, 0u));
      ++it->second.second;
      ranking.conflict_for.emplace(key, conflict);
    }
  }
  for (const auto& [key, entry] : counts) {
    ranking.groups[entry.second].push_back(entry.first);
  }
  return ranking;
}

}  // namespace

StatusOr<Question> InquiryEngine::SelectQuestion(
    Session& session, const std::vector<const Conflict*>& conflicts) {
  KBREPAIR_CHECK(!conflicts.empty());
  trace::ScopedSpan span("inquiry.select_question",
                         trace::Phase::kQuestionGen);
  const StrategyTraits& traits = session.traits;

  // In incremental mode the Π-repairability verdict comes off the
  // maintained skeleton census. Without it (scratch, or just demoted),
  // question generation runs the per-scope skeleton chase.
  KBREPAIR_ASSIGN_OR_RETURN(DeltaConflictEngine* skeleton,
                            LiveEngine(session, Maintained::kSkeleton));
  std::optional<bool> base_repairable;
  if (skeleton != nullptr) base_repairable = skeleton->empty();

  // A non-empty question ends the search; opti-learn re-orders its fixes.
  auto found = [&](Question& question) {
    if (question.fixes.empty()) return false;
    if (traits.learns_order) {
      session.preferences.OrderQuestion(question, session.facts);
    }
    return true;
  };

  if (traits.ranks_positions) {
    // Ask about the maximally-contained position; walk down the ranking
    // until some position yields a non-empty sound question.
    McdRanking ranking = RankPositions(conflicts, session.facts,
                                       *session.cdds, session.generator,
                                       session.pi);
    for (auto& [rank, positions] : ranking.groups) {
      session.rng.Shuffle(positions);  // the paper breaks ties randomly
      for (const Position& position : positions) {
        const Conflict* conflict =
            ranking.conflict_for[McdRanking::Key(position)];
        KBREPAIR_ASSIGN_OR_RETURN(
            Question question,
            session.generator.SoundQuestion(
                session.facts, session.pi, *conflict, *session.cdds,
                PositionSelection::kResolvingPositions, position,
                base_repairable));
        if (found(question)) return question;
      }
    }
    // Fall through to the conflict-based fallback below.
  }

  // Pick a random conflict and question its positions.
  const PositionSelection preferred =
      traits.asks_all_positions ? PositionSelection::kAllPositions
                                : PositionSelection::kResolvingPositions;

  std::vector<size_t> order(conflicts.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  session.rng.Shuffle(order);

  for (size_t index : order) {
    const Conflict& conflict = *conflicts[index];
    KBREPAIR_ASSIGN_OR_RETURN(
        Question question,
        session.generator.SoundQuestion(session.facts, session.pi, conflict,
                                        *session.cdds, preferred,
                                        std::nullopt, base_repairable));
    if (found(question)) return question;
    if (preferred == PositionSelection::kResolvingPositions) {
      // All resolving positions frozen or filtered: widen to every
      // position of the conflict (Lemma 4.3 applies to the full set).
      KBREPAIR_ASSIGN_OR_RETURN(
          question, session.generator.SoundQuestion(
                        session.facts, session.pi, conflict, *session.cdds,
                        PositionSelection::kAllPositions, std::nullopt,
                        base_repairable));
      if (found(question)) return question;
    }
  }
  return Question{};  // caller decides: unfreeze propagated Π or fail
}

namespace {

// Set-up shared by both maintained engines: adopt the frozen snapshot
// prototype and replay `history` onto it, exactly the maintenance a
// live engine would have performed had it existed from the start. With
// no prototype, or when adoption or replay fails (deadline, invariant
// trip), cold-initialize over `base()` instead of trusting a
// half-replayed census. A failed engine is dropped, so the next round's
// lazy-creation check cannot mistake it for a live one.
template <typename BaseFn>
Status BuildEngine(std::unique_ptr<DeltaConflictEngine>& slot,
                   const DeltaConflictEngine* proto,
                   const std::vector<Fix>& history, KnowledgeBase* kb,
                   const ChaseOptions& chase_options, BaseFn&& base) {
  auto make = [&] {
    return std::make_unique<DeltaConflictEngine>(
        &kb->symbols(), &kb->tgds(), &kb->cdds(), chase_options);
  };
  if (proto != nullptr) {
    slot = make();
    Status status = slot->InitializeFromShared(*proto);
    for (const Fix& fix : history) {
      if (!status.ok()) break;
      status = slot->OnFixApplied(fix.atom, fix.arg, fix.value);
    }
    if (status.ok()) return status;
    slot.reset();
  }
  slot = make();
  const Status status = slot->Initialize(base());
  if (!status.ok()) slot.reset();
  return status;
}

}  // namespace

StatusOr<DeltaConflictEngine*> InquiryEngine::LiveEngine(
    Session& session, Maintained which, bool demote_on_deadline) {
  if (session.active_engine != ConflictEngineKind::kIncremental) {
    return nullptr;
  }
  std::unique_ptr<DeltaConflictEngine>& slot = session.engine(which);
  if (slot != nullptr) return slot.get();

  Status status;
  if (which == Maintained::kCensus) {
    // The census engine replays the session's applied fixes.
    status = BuildEngine(slot, session.delta_proto,
                         session.result.applied_fixes, kb_,
                         options_.chase_options,
                         [&]() -> const FactBase& { return session.facts; });
  } else {
    // The skeleton engine replays the current Π as position rewrites.
    // Non-Π skeleton positions hold per-position scratch nulls
    // independent of the facts' values, so rewriting exactly the frozen
    // positions to their current working values reproduces
    // skeleton(facts, Π) verbatim. Sorted for determinism (PositionSet
    // iteration order is not).
    std::vector<Position> frozen(session.pi.begin(), session.pi.end());
    std::sort(frozen.begin(), frozen.end());
    std::vector<Fix> rewrites;
    rewrites.reserve(frozen.size());
    for (const Position& p : frozen) {
      rewrites.push_back(Fix{
          p.atom, p.arg,
          session.facts.atom(p.atom).args[static_cast<size_t>(p.arg)]});
    }
    status = BuildEngine(slot, session.skeleton_proto, rewrites, kb_,
                         options_.chase_options, [&] {
                           return session.repairability.BuildSkeleton(
                               session.facts, session.pi);
                         });
  }
  if (status.ok()) return slot.get();
  if (status.code() == StatusCode::kDeadlineExceeded && !demote_on_deadline) {
    return status;  // nothing stale yet; the command can be retried
  }
  DemoteToScratch(session, status);
  return nullptr;
}

void InquiryEngine::Mirror(Session& session, Maintained which,
                           const Position& position, TermId value) {
  const std::unique_ptr<DeltaConflictEngine>& engine = session.engine(which);
  if (engine == nullptr) return;
  const Status status = engine->OnFixApplied(position.atom, position.arg,
                                             value);
  if (!status.ok()) DemoteToScratch(session, status);
}

void InquiryEngine::DemoteToScratch(Session& session, const Status& cause) {
  session.active_engine = ConflictEngineKind::kScratch;
  session.delta.reset();
  session.skeleton_delta.reset();
  ++session.result.engine_fallbacks;
  std::cerr << "[kbrepair] incremental conflict engine demoted to scratch: "
            << cause << "\n";
}

ConflictEngineKind InquiryEngine::active_engine() const {
  return step_ != nullptr ? step_->active_engine : options_.conflict_engine;
}

int InquiryEngine::current_phase() const {
  KBREPAIR_CHECK(step_ != nullptr);
  return step_->mode == Session::Mode::kPhaseTwo ? 2 : 1;
}

const PositionSet& InquiryEngine::current_pi() const {
  KBREPAIR_CHECK(step_ != nullptr);
  return step_->pi;
}

const PositionSet& InquiryEngine::propagated_positions() const {
  KBREPAIR_CHECK(step_ != nullptr);
  return step_->propagated;
}

const IncrementalChase* InquiryEngine::delta_chase() const {
  KBREPAIR_CHECK(step_ != nullptr);
  return step_->delta != nullptr ? &step_->delta->chase() : nullptr;
}

std::optional<size_t> InquiryEngine::skeleton_census_size() const {
  KBREPAIR_CHECK(step_ != nullptr);
  if (step_->skeleton_delta == nullptr) return std::nullopt;
  return step_->skeleton_delta->size();
}

StatusOr<std::vector<Conflict>> InquiryEngine::InspectCensus() const {
  KBREPAIR_CHECK(step_ != nullptr);
  const Session& session = *step_;
  if (session.done) return std::vector<Conflict>{};
  if (session.mode == Session::Mode::kPhaseOne) {
    return session.tracker.CanonicalConflicts(session.facts.size());
  }
  if (session.delta != nullptr) {
    return session.delta->CanonicalConflicts();
  }
  // Scratch phase two / basic: chase against a cloned symbol table so
  // inspection cannot mint nulls into the live one.
  std::unique_ptr<SymbolTable> symbols = kb_->symbols().Clone();
  ConflictFinder finder(symbols.get(), &kb_->tgds(), &kb_->cdds(),
                        options_.chase_options);
  KBREPAIR_ASSIGN_OR_RETURN(std::vector<Conflict> census,
                            finder.AllConflicts(session.facts));
  CanonicalizeConflicts(census, session.facts.size());
  return census;
}

StatusOr<std::vector<Conflict>> InquiryEngine::ChasedConflicts(
    Session& session, bool early_stop) {
  std::vector<Conflict> census;
  KBREPAIR_ASSIGN_OR_RETURN(DeltaConflictEngine* delta,
                            LiveEngine(session, Maintained::kCensus));
  if (delta != nullptr) {
    // The maintained census is current; selection sees the whole set
    // (CHECKCONSISTENCY-OPT's early stop buys nothing here).
    census = delta->CanonicalConflicts();
  } else if (!early_stop) {
    KBREPAIR_ASSIGN_OR_RETURN(census,
                              session.finder.AllConflicts(session.facts));
    CanonicalizeConflicts(census, session.facts.size());
  } else {
    // CHECKCONSISTENCY-OPT: stop the chase at the first violation and
    // question it.
    ChaseEngine engine(&kb_->symbols(), &kb_->tgds(), &kb_->cdds(),
                       options_.chase_options);
    KBREPAIR_ASSIGN_OR_RETURN(ChaseResult chased, engine.Run(session.facts));
    if (chased.violation().has_value()) {
      Conflict conflict;
      conflict.cdd_index = chased.violation()->cdd_index;
      conflict.matched = chased.violation()->matched;
      conflict.support = chased.OriginalSupport(conflict.matched);
      census.push_back(std::move(conflict));
    }
  }
  if (session.traits.propagates && !census.empty()) {
    ApplyPendingPropagation(session, [&](AtomId atom) {
      for (const Conflict& c : census) {
        if (std::binary_search(c.support.begin(), c.support.end(), atom)) {
          return true;
        }
      }
      return false;
    });
  }
  return census;
}

Status InquiryEngine::ComputeNextQuestion(Session& session) {
  trace::ScopedSpan span("inquiry.next_question");
  const trace::PhaseTotals phases_before = trace::ThreadPhaseTotals();
  WallTimer compute_timer;
  while (true) {
    std::vector<Conflict> chase_conflicts;  // owns phase-2/basic conflicts
    std::vector<const Conflict*> conflicts;

    if (session.mode == Session::Mode::kPhaseOne) {
      // --- Phase one: naive conflicts with incremental maintenance.
      if (session.tracker.empty()) {
        session.mode = Session::Mode::kPhaseTwo;
        continue;
      }
      conflicts.reserve(session.tracker.size());
      for (const auto& [id, conflict] : session.tracker.conflicts()) {
        conflicts.push_back(&conflict);
      }
    } else {
      // --- Phase two (conflicts surfacing through the chase) and plain
      // Algorithm 3 (allconflicts before every question).
      KBREPAIR_ASSIGN_OR_RETURN(
          chase_conflicts,
          ChasedConflicts(session, session.mode == Session::Mode::kPhaseTwo &&
                                       !session.needs_whole_census));
      if (chase_conflicts.empty()) {
        session.done = true;
        return Status::Ok();
      }
      conflicts.reserve(chase_conflicts.size());
      for (const Conflict& c : chase_conflicts) conflicts.push_back(&c);
    }

    KBREPAIR_ASSIGN_OR_RETURN(Question question,
                              SelectQuestion(session, conflicts));
    if (question.fixes.empty()) {
      if (UnfreezePropagated(session)) continue;
      return Status::Internal(
          "no sound question exists; knowledge base is not Π-repairable");
    }
    session.pending = std::move(question);
    session.pending_delay =
        session.pending_compute + compute_timer.ElapsedSeconds();
    session.pending_compute = 0.0;
    session.pending_phase_totals.Add(
        trace::ThreadPhaseTotals().Since(phases_before));
    return Status::Ok();
  }
}

Status InquiryEngine::ApplyAnswer(Session& session, size_t choice) {
  const Question& question = *session.pending;
  if (choice >= question.fixes.size()) {
    return Status::FailedPrecondition(
        "user did not choose a fix from the question");
  }

  QuestionRecord record;
  record.phase = session.mode == Session::Mode::kPhaseTwo ? 2 : 1;
  record.delay_seconds = session.pending_delay;
  record.phases = session.pending_phase_totals;
  session.pending_phase_totals = trace::PhaseTotals{};
  record.question_size = question.fixes.size();
  record.num_positions = question.considered_positions.size();

  const Fix fix = question.fixes[choice];
  record.chosen = fix;
  record.chosen_index = choice;
  if (session.traits.learns_order) {
    session.preferences.Observe(question, choice, session.facts);
  }

  // Post-answer maintenance counts toward the next question's delay.
  // The span is reset (flushing its phase time) before the phase delta
  // below is snapshotted.
  const trace::PhaseTotals phases_before = trace::ThreadPhaseTotals();
  WallTimer apply_timer;
  std::optional<trace::ScopedSpan> apply_span;
  apply_span.emplace("inquiry.apply_answer", trace::Phase::kApplyFix);

  ApplyFix(session.facts, fix);
  session.pi.insert(fix.position());
  session.result.applied_fixes.push_back(fix);

  const bool in_phase_one = session.mode == Session::Mode::kPhaseOne;
  if (in_phase_one) {
    session.tracker.OnFixApplied(session.facts, fix.atom);
  }
  // The maintained engines mirror every fix from the moment they are
  // created (lazy creation snapshots the then-current state). The fixed
  // position joined Π, so the skeleton now carries its real value
  // instead of the position's scratch null. The answer itself already
  // took effect and must not fail.
  Mirror(session, Maintained::kCensus, fix.position(), fix.value);
  Mirror(session, Maintained::kSkeleton, fix.position(), fix.value);

  if (session.traits.propagates) {
    // Defer freezing until conflicts are up to date for this round;
    // the chosen position is already in Π.
    for (const Position& p : question.considered_positions) {
      if (p != fix.position()) session.pending_propagation.push_back(p);
    }
    if (in_phase_one) {
      ApplyPendingPropagation(session, [&](AtomId atom) {
        return session.tracker.NumConflictsTouching(atom) > 0;
      });
    }
  }

  const bool census_needed =
      options_.record_convergence == ConvergenceRecording::kTotalConflicts ||
      (options_.record_convergence ==
           ConvergenceRecording::kDiscoveredConflicts &&
       !in_phase_one);
  if (census_needed) {
    // The fix is already applied, so even a deadline here must not fail
    // the answer: demote and count on scratch instead.
    KBREPAIR_ASSIGN_OR_RETURN(
        DeltaConflictEngine* delta,
        LiveEngine(session, Maintained::kCensus, /*demote_on_deadline=*/true));
    if (delta != nullptr) {
      record.conflicts_remaining = delta->size();
    } else {
      KBREPAIR_ASSIGN_OR_RETURN(const std::vector<Conflict> all,
                                session.finder.AllConflicts(session.facts));
      record.conflicts_remaining = all.size();
    }
  } else if (in_phase_one) {
    record.conflicts_remaining = session.tracker.size();
  }

  apply_span.reset();
  session.pending_compute += apply_timer.ElapsedSeconds();
  session.pending_phase_totals.Add(
      trace::ThreadPhaseTotals().Since(phases_before));

  session.pending.reset();
  session.result.records.push_back(record);
  if (session.result.records.size() > options_.max_questions) {
    return Status::Internal("inquiry exceeded max_questions");
  }
  return Status::Ok();
}

bool InquiryEngine::UnfreezePropagated(Session& session) {
  if (session.propagated.empty()) return false;
  for (const Position& p : session.propagated) {
    session.pi.erase(p);
    // Leaving Π reverts the position to its stable scratch null (looked
    // up only when a skeleton engine is live: the lookup walks the facts).
    if (session.skeleton_delta != nullptr) {
      Mirror(session, Maintained::kSkeleton, p,
             session.repairability.SkeletonNullFor(session.facts, p));
    }
  }
  session.propagated.clear();
  return true;
}

template <typename TouchFn>
void InquiryEngine::ApplyPendingPropagation(Session& session,
                                            TouchFn&& touches) {
  for (const Position& p : session.pending_propagation) {
    if (session.pi.count(p) > 0) continue;
    if (!touches(p.atom)) {
      session.pi.insert(p);
      session.propagated.insert(p);
      ++session.result.propagated_positions;
      // Freezing exposes the position's current value to the skeleton.
      Mirror(session, Maintained::kSkeleton, p,
             session.facts.atom(p.atom).args[static_cast<size_t>(p.arg)]);
    }
  }
  session.pending_propagation.clear();
}

}  // namespace kbrepair
