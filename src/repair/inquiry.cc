#include "repair/inquiry.h"

#include <algorithm>
#include <iostream>
#include <map>
#include <unordered_map>

#include "repair/delta_conflicts.h"
#include "util/logging.h"
#include "util/timer.h"

namespace kbrepair {

const char* StrategyName(Strategy strategy) {
  switch (strategy) {
    case Strategy::kRandom:
      return "random";
    case Strategy::kOptiJoin:
      return "opti-join";
    case Strategy::kOptiProp:
      return "opti-prop";
    case Strategy::kOptiMcd:
      return "opti-mcd";
    case Strategy::kOptiLearn:
      return "opti-learn";
  }
  return "unknown";
}

const char* ConflictEngineName(ConflictEngineKind kind) {
  switch (kind) {
    case ConflictEngineKind::kScratch:
      return "scratch";
    case ConflictEngineKind::kIncremental:
      return "incremental";
  }
  return "unknown";
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
  ConsistencyChecker consistency;
  const std::vector<Cdd>* cdds;
  PreferenceModel preferences;

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
        consistency(&kb->symbols(), &kb->tgds(), &kb->cdds(),
                    options.chase_options),
        cdds(&kb->cdds()),
        preferences(&kb->symbols()) {}
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
      const bool repairable,
      session.repairability.IsPiRepairable(session.facts, session.pi));
  if (!repairable) {
    step_.reset();
    return Status::FailedPrecondition(
        "knowledge base is not Π-repairable for the initial Π");
  }

  // Initial conflict census for the effectiveness metrics.
  KBREPAIR_ASSIGN_OR_RETURN(const std::vector<Conflict> initial,
                            session.finder.AllConflicts(session.facts));
  session.result.initial_conflicts = initial.size();
  // One naive scan serves both the metric and the phase-one tracker.
  std::vector<Conflict> naive = session.finder.NaiveConflicts(session.facts);
  session.result.initial_naive_conflicts = naive.size();

  if (session.mode == Session::Mode::kPhaseOne) {
    session.tracker.InitializeFromCensus(std::move(naive));
  }

  session.total_timer.Restart();
  return Status::Ok();
}

Status InquiryEngine::BeginShared(const SharedBeginSeed& seed) {
  step_ = std::make_unique<Session>(kb_, options_);
  Session& session = *step_;

  // The snapshot's verdicts were computed for Π = ∅, which is exactly
  // the initial Π of a forked session.
  if (!seed.repairable) {
    step_.reset();
    return Status::FailedPrecondition(
        "knowledge base is not Π-repairable for the initial Π");
  }

  session.result.initial_conflicts = seed.initial_conflicts;
  session.result.initial_naive_conflicts = seed.initial_naive_conflicts;

  if (session.mode == Session::Mode::kPhaseOne) {
    KBREPAIR_CHECK(seed.naive_census != nullptr);
    session.tracker.InitializeFromCensus(*seed.naive_census);
  }

  session.delta_proto = seed.delta_proto;
  session.skeleton_proto = seed.skeleton_proto;

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

  // In incremental mode the Π-repairability verdict comes off the
  // maintained skeleton census instead of a per-Scope skeleton chase.
  std::optional<bool> base_repairable;
  if (session.active_engine == ConflictEngineKind::kIncremental) {
    const Status status = EnsureSkeletonEngine(session);
    if (status.ok()) {
      base_repairable = session.skeleton_delta->empty();
    } else if (status.code() == StatusCode::kDeadlineExceeded) {
      return status;  // nothing stale yet; the command can be retried
    } else {
      DemoteToScratch(session, status);
      // base_repairable stays unset: question generation falls back to
      // the per-scope skeleton chase.
    }
  }

  if (options_.strategy == Strategy::kOptiMcd ||
      options_.strategy == Strategy::kOptiLearn) {
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
        if (!question.fixes.empty()) {
          if (options_.strategy == Strategy::kOptiLearn) {
            session.preferences.OrderQuestion(question, session.facts);
          }
          return question;
        }
      }
    }
    // Fall through to the conflict-based fallbacks below.
  }

  // random / opti-join / opti-prop (and the opti-mcd fallback): pick a
  // random conflict and question its positions.
  const PositionSelection preferred =
      options_.strategy == Strategy::kRandom
          ? PositionSelection::kAllPositions
          : PositionSelection::kResolvingPositions;

  std::vector<size_t> order(conflicts.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  session.rng.Shuffle(order);

  auto finalize = [&](Question question) {
    if (options_.strategy == Strategy::kOptiLearn) {
      session.preferences.OrderQuestion(question, session.facts);
    }
    return question;
  };
  for (size_t index : order) {
    const Conflict& conflict = *conflicts[index];
    KBREPAIR_ASSIGN_OR_RETURN(
        Question question,
        session.generator.SoundQuestion(session.facts, session.pi, conflict,
                                        *session.cdds, preferred,
                                        std::nullopt, base_repairable));
    if (!question.fixes.empty()) return finalize(std::move(question));
    if (preferred == PositionSelection::kResolvingPositions) {
      // All resolving positions frozen or filtered: widen to every
      // position of the conflict (Lemma 4.3 applies to the full set).
      KBREPAIR_ASSIGN_OR_RETURN(
          question, session.generator.SoundQuestion(
                        session.facts, session.pi, conflict, *session.cdds,
                        PositionSelection::kAllPositions, std::nullopt,
                        base_repairable));
      if (!question.fixes.empty()) return finalize(std::move(question));
    }
  }
  return Question{};  // caller decides: unfreeze propagated Π or fail
}

Status InquiryEngine::EnsureDeltaEngine(Session& session) {
  KBREPAIR_DCHECK(session.active_engine == ConflictEngineKind::kIncremental);
  if (session.delta != nullptr) return Status::Ok();

  if (session.delta_proto != nullptr) {
    // Shared-base fork: adopt the frozen prototype (saturated over the
    // base facts) and replay this session's applied fixes in order —
    // exactly the maintenance a live engine would have performed had it
    // existed from the first answer.
    session.delta = std::make_unique<DeltaConflictEngine>(
        &kb_->symbols(), &kb_->tgds(), &kb_->cdds(), options_.chase_options);
    Status status = session.delta->InitializeFromShared(*session.delta_proto);
    for (const Fix& fix : session.result.applied_fixes) {
      if (!status.ok()) break;
      status = session.delta->OnFixApplied(fix.atom, fix.arg, fix.value);
    }
    if (status.ok()) return status;
    // Adoption/replay failed (deadline, invariant trip): fall back to a
    // cold initialization below rather than trusting a half-replayed
    // census.
    session.delta.reset();
  }

  session.delta = std::make_unique<DeltaConflictEngine>(
      &kb_->symbols(), &kb_->tgds(), &kb_->cdds(), options_.chase_options);
  const Status status = session.delta->Initialize(session.facts);
  // A half-initialized engine must not be mistaken for a live one by the
  // next round's lazy-creation check.
  if (!status.ok()) session.delta.reset();
  return status;
}

Status InquiryEngine::EnsureSkeletonEngine(Session& session) {
  KBREPAIR_DCHECK(session.active_engine == ConflictEngineKind::kIncremental);
  if (session.skeleton_delta != nullptr) return Status::Ok();

  if (session.skeleton_proto != nullptr) {
    // Shared-base fork: adopt the frozen Π=∅ skeleton prototype and
    // replay the current Π as position rewrites. Non-Π skeleton
    // positions hold per-position scratch nulls independent of the
    // facts' values, so rewriting exactly the frozen positions to their
    // current working values reproduces skeleton(facts, Π) verbatim.
    // Sorted for determinism (PositionSet iteration order is not).
    session.skeleton_delta = std::make_unique<DeltaConflictEngine>(
        &kb_->symbols(), &kb_->tgds(), &kb_->cdds(), options_.chase_options);
    Status status =
        session.skeleton_delta->InitializeFromShared(*session.skeleton_proto);
    if (status.ok()) {
      std::vector<Position> frozen(session.pi.begin(), session.pi.end());
      std::sort(frozen.begin(), frozen.end());
      for (const Position& p : frozen) {
        status = session.skeleton_delta->OnFixApplied(
            p.atom, p.arg,
            session.facts.atom(p.atom).args[static_cast<size_t>(p.arg)]);
        if (!status.ok()) break;
      }
    }
    if (status.ok()) return status;
    session.skeleton_delta.reset();
  }

  session.skeleton_delta = std::make_unique<DeltaConflictEngine>(
      &kb_->symbols(), &kb_->tgds(), &kb_->cdds(), options_.chase_options);
  const Status status = session.skeleton_delta->Initialize(
      session.repairability.BuildSkeleton(session.facts, session.pi));
  if (!status.ok()) session.skeleton_delta.reset();
  return status;
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

Status InquiryEngine::ComputeNextQuestion(Session& session) {
  trace::ScopedSpan span("inquiry.next_question");
  const trace::PhaseTotals phases_before = trace::ThreadPhaseTotals();
  WallTimer compute_timer;
  while (true) {
    std::vector<Conflict> chase_conflicts;  // owns phase-2/basic conflicts
    std::vector<const Conflict*> conflicts;

    switch (session.mode) {
      case Session::Mode::kPhaseOne: {
        // --- Phase one: naive conflicts with incremental maintenance.
        if (session.tracker.empty()) {
          session.mode = Session::Mode::kPhaseTwo;
          continue;
        }
        conflicts.reserve(session.tracker.size());
        for (const auto& [id, conflict] : session.tracker.conflicts()) {
          conflicts.push_back(&conflict);
        }
        break;
      }
      case Session::Mode::kPhaseTwo: {
        // --- Phase two: conflicts surfacing through the chase.
        bool have_census = false;
        if (session.active_engine == ConflictEngineKind::kIncremental) {
          // The maintained census is current; selection sees the whole
          // set (CHECKCONSISTENCY-OPT's early stop buys nothing here).
          const Status status = EnsureDeltaEngine(session);
          if (status.ok()) {
            chase_conflicts = session.delta->CanonicalConflicts();
            have_census = true;
          } else if (status.code() == StatusCode::kDeadlineExceeded) {
            return status;
          } else {
            DemoteToScratch(session, status);
          }
        }
        if (!have_census &&
            (options_.strategy == Strategy::kOptiMcd ||
             options_.record_convergence != ConvergenceRecording::kOff)) {
          // The ranking needs the whole conflict set.
          KBREPAIR_ASSIGN_OR_RETURN(
              chase_conflicts, session.finder.AllConflicts(session.facts));
          CanonicalizeConflicts(chase_conflicts, session.facts.size());
          have_census = true;
        }
        if (!have_census) {
          // CHECKCONSISTENCY-OPT: stop the chase at the first violation
          // and question it.
          ChaseEngine engine(&kb_->symbols(), &kb_->tgds(), &kb_->cdds(),
                             options_.chase_options);
          KBREPAIR_ASSIGN_OR_RETURN(ChaseResult chased,
                                    engine.Run(session.facts));
          if (chased.violation().has_value()) {
            Conflict conflict;
            conflict.cdd_index = chased.violation()->cdd_index;
            conflict.matched = chased.violation()->matched;
            conflict.support = chased.OriginalSupport(conflict.matched);
            chase_conflicts.push_back(std::move(conflict));
          }
        }
        if (chase_conflicts.empty()) {
          session.done = true;
          return Status::Ok();
        }
        if (options_.strategy == Strategy::kOptiProp) {
          KBREPAIR_RETURN_IF_ERROR(
              ApplyPendingPropagation(session, [&](AtomId atom) {
                for (const Conflict& c : chase_conflicts) {
                  if (std::binary_search(c.support.begin(), c.support.end(),
                                         atom)) {
                    return true;
                  }
                }
                return false;
              }));
        }
        conflicts.reserve(chase_conflicts.size());
        for (const Conflict& c : chase_conflicts) conflicts.push_back(&c);
        break;
      }
      case Session::Mode::kBasic: {
        // Plain Algorithm 3: allconflicts before every question —
        // recomputed from scratch or read off the maintained engine.
        bool have_census = false;
        if (session.active_engine == ConflictEngineKind::kIncremental) {
          const Status status = EnsureDeltaEngine(session);
          if (status.ok()) {
            chase_conflicts = session.delta->CanonicalConflicts();
            have_census = true;
          } else if (status.code() == StatusCode::kDeadlineExceeded) {
            return status;
          } else {
            DemoteToScratch(session, status);
          }
        }
        if (!have_census) {
          KBREPAIR_ASSIGN_OR_RETURN(
              chase_conflicts, session.finder.AllConflicts(session.facts));
          CanonicalizeConflicts(chase_conflicts, session.facts.size());
        }
        if (chase_conflicts.empty()) {
          session.done = true;
          return Status::Ok();
        }
        if (options_.strategy == Strategy::kOptiProp) {
          KBREPAIR_RETURN_IF_ERROR(
              ApplyPendingPropagation(session, [&](AtomId atom) {
                for (const Conflict& c : chase_conflicts) {
                  if (std::binary_search(c.support.begin(), c.support.end(),
                                         atom)) {
                    return true;
                  }
                }
                return false;
              }));
        }
        conflicts.reserve(chase_conflicts.size());
        for (const Conflict& c : chase_conflicts) conflicts.push_back(&c);
        break;
      }
    }

    KBREPAIR_ASSIGN_OR_RETURN(Question question,
                              SelectQuestion(session, conflicts));
    if (question.fixes.empty()) {
      KBREPAIR_ASSIGN_OR_RETURN(const bool unfroze,
                                UnfreezePropagated(session));
      if (unfroze) continue;
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
  if (options_.strategy == Strategy::kOptiLearn) {
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
  if (session.delta != nullptr) {
    // The maintained engine mirrors every fix from the moment it is
    // created (lazy creation snapshots the then-current facts). A
    // maintenance failure — including a deadline firing mid-replay —
    // leaves the mirror stale, so the engines are dropped and the
    // session continues on scratch; the answer itself already took
    // effect and must not fail.
    const Status status =
        session.delta->OnFixApplied(fix.atom, fix.arg, fix.value);
    if (!status.ok()) DemoteToScratch(session, status);
  }
  if (session.skeleton_delta != nullptr) {
    // The fixed position joined Π, so the skeleton now carries its real
    // value instead of the position's scratch null.
    const Status status =
        session.skeleton_delta->OnFixApplied(fix.atom, fix.arg, fix.value);
    if (!status.ok()) DemoteToScratch(session, status);
  }

  if (options_.strategy == Strategy::kOptiProp) {
    // Defer freezing until conflicts are up to date for this round;
    // the chosen position is already in Π.
    for (const Position& p : question.considered_positions) {
      if (p != fix.position()) session.pending_propagation.push_back(p);
    }
    if (in_phase_one) {
      KBREPAIR_RETURN_IF_ERROR(
          ApplyPendingPropagation(session, [&](AtomId atom) {
            return session.tracker.NumConflictsTouching(atom) > 0;
          }));
    }
  }

  const bool census_needed =
      options_.record_convergence == ConvergenceRecording::kTotalConflicts ||
      (options_.record_convergence ==
           ConvergenceRecording::kDiscoveredConflicts &&
       !in_phase_one);
  if (census_needed) {
    bool have_count = false;
    if (session.active_engine == ConflictEngineKind::kIncremental) {
      // The fix is already applied, so even a deadline here must not
      // fail the answer; fall back to a scratch count instead.
      const Status status = EnsureDeltaEngine(session);
      if (status.ok()) {
        record.conflicts_remaining = session.delta->size();
        have_count = true;
      } else {
        DemoteToScratch(session, status);
      }
    }
    if (!have_count) {
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

StatusOr<bool> InquiryEngine::UnfreezePropagated(Session& session) {
  if (session.propagated.empty()) return false;
  for (const Position& p : session.propagated) {
    session.pi.erase(p);
    if (session.skeleton_delta != nullptr) {
      // Leaving Π reverts the position to its stable scratch null. A
      // replay failure strands the skeleton mid-update: demote (which
      // nulls the pointer, so remaining positions skip the replay).
      const Status status = session.skeleton_delta->OnFixApplied(
          p.atom, p.arg,
          session.repairability.SkeletonNullFor(session.facts, p));
      if (!status.ok()) DemoteToScratch(session, status);
    }
  }
  session.propagated.clear();
  return true;
}

template <typename TouchFn>
Status InquiryEngine::ApplyPendingPropagation(Session& session,
                                              TouchFn&& touches) {
  for (const Position& p : session.pending_propagation) {
    if (session.pi.count(p) > 0) continue;
    if (!touches(p.atom)) {
      session.pi.insert(p);
      session.propagated.insert(p);
      ++session.result.propagated_positions;
      if (session.skeleton_delta != nullptr) {
        // Freezing exposes the position's current value to the skeleton.
        const Status status = session.skeleton_delta->OnFixApplied(
            p.atom, p.arg,
            session.facts.atom(p.atom).args[static_cast<size_t>(p.arg)]);
        if (!status.ok()) DemoteToScratch(session, status);
      }
    }
  }
  session.pending_propagation.clear();
  return Status::Ok();
}

}  // namespace kbrepair
