// The inquiry dialogue (Algorithms 3 and 4) and the questioning
// strategies of Section 5.
//
// The engine repeatedly: computes/maintains the conflicts of the working
// fact base, selects a conflict (or a position, for the strategies that
// rank positions), generates a sound question, asks the user, applies
// the chosen fix and freezes its position. It terminates when the KB is
// consistent (Proposition 4.4) and, when the user is an oracle, outputs
// exactly the oracle's repair (Proposition 4.8).
//
// Two engine modes:
//  * two_phase = false — plain Algorithm 3: allconflicts(K) is recomputed
//    on the chased base before every question.
//  * two_phase = true  — Algorithm 4: phase one resolves *naive* conflicts
//    (visible without chasing) with incremental maintenance
//    (UPDATECONFLICTS); phase two runs the ⊥-detecting chase and resolves
//    the conflicts it uncovers, projected onto the original facts through
//    chase provenance.
//
// Strategies (Section 5):
//  * random    — random conflict, question on all of its positions;
//  * opti-join — random conflict, question on join/resolving positions;
//  * opti-prop — opti-join plus propagation: unchosen question positions
//    that participate in no other conflict are frozen into Π;
//  * opti-mcd  — conflict-hypergraph ranking: ask about the position
//    contained in the most conflicts;
//  * opti-learn — opti-mcd with each question's fixes re-ordered by a
//    learned user-preference model.
//
// Each strategy is one row of a trait table in inquiry.cc; the round
// path (DESIGN.md, "The round path") reads the traits, never the enum.

#ifndef KBREPAIR_REPAIR_INQUIRY_H_
#define KBREPAIR_REPAIR_INQUIRY_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "chase/chase.h"
#include "repair/conflict.h"
#include "repair/fix.h"
#include "repair/kb_snapshot.h"
#include "repair/preference_model.h"
#include "repair/question.h"
#include "repair/repairability.h"
#include "repair/user.h"
#include "rules/knowledge_base.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/trace.h"

namespace kbrepair {

class DeltaConflictEngine;  // repair/delta_conflicts.h
class IncrementalChase;     // chase/incremental_chase.h

enum class Strategy {
  kRandom,
  kOptiJoin,
  kOptiProp,
  kOptiMcd,
  // opti-mcd plus a learned user-preference model that re-orders each
  // question's fixes by choice propensity (Section 7 future work; see
  // repair/preference_model.h). Same fix sets, same soundness — only the
  // presentation order adapts to the user.
  kOptiLearn,
};

// "random", "opti-join", "opti-prop", "opti-mcd", "opti-learn";
// "unknown" for a value outside the enum.
const char* StrategyName(Strategy strategy);

// The inverse of StrategyName; InvalidArgument "unknown strategy '<name>'"
// for any other name.
StatusOr<Strategy> ParseStrategy(std::string_view name);

// How chased conflicts (phase two / Algorithm 3) are computed.
enum class ConflictEngineKind {
  // Re-chase the working base and re-enumerate every CDD body before
  // each question. The reference implementation and test oracle.
  kScratch,
  // Delta-chase conflict engine (repair/delta_conflicts.h): a maintained
  // chased base with provenance-guided retraction plus index-anchored
  // conflict maintenance. Produces the same dialogue per-seed for KBs
  // whose conflict-feeding TGDs are full (see DESIGN.md, "Delta-chase
  // invariants"); the differential suite enforces it.
  kIncremental,
};

// "scratch" / "incremental"; "unknown" for a value outside the enum.
const char* ConflictEngineName(ConflictEngineKind kind);

// The inverse of ConflictEngineName; InvalidArgument naming the
// expected engines for any other name.
StatusOr<ConflictEngineKind> ParseConflictEngine(std::string_view name);

// What the per-question conflicts_remaining field records.
enum class ConvergenceRecording {
  // Cheap default: the naive-conflict tracker's size (phase one only).
  kOff,
  // allconflicts(K) — chase included — recomputed after every answer.
  // The omniscient convergence series. Costly; leave off for delay
  // measurements.
  kTotalConflicts,
  // Conflicts as the two-phase algorithm *discovers* them: the naive
  // tracker during phase one, the full chased census in phase two. This
  // is the counting behind the paper's Figure 4(b) fluctuations — the
  // count jumps up when the chase starts surfacing conflicts that were
  // invisible to phase one.
  kDiscoveredConflicts,
};

struct InquiryOptions {
  Strategy strategy = Strategy::kOptiMcd;

  // Algorithm 4 (two-phase + optimized primitives) vs Algorithm 3.
  bool two_phase = true;

  // Seed for conflict selection and tie-breaking.
  uint64_t seed = 1;

  // Safety valve; exceeding it returns Internal.
  size_t max_questions = 1000000;

  ConvergenceRecording record_convergence = ConvergenceRecording::kOff;

  // Scratch recomputation vs the maintained delta-chase engine. With
  // kIncremental, the phase-two rounds of strategies that do not rank
  // positions select from the full maintained census instead of
  // CHECKCONSISTENCY-OPT's first violation (the census is already paid
  // for).
  ConflictEngineKind conflict_engine = ConflictEngineKind::kScratch;

  ChaseOptions chase_options;
};

// Everything measured about one question/answer round.
struct QuestionRecord {
  int phase = 1;                  // 1 = naive conflicts, 2 = chase
  // Engine compute time to produce the question: the maintenance that
  // followed the previous answer plus this question's generation. Time
  // the dialogue sat parked between stepwise calls (a service session
  // waiting for the wire, a human thinking) is *not* included — this is
  // the algorithmic delay Prop. 4.10 bounds, not wall time since the
  // last answer.
  double delay_seconds = 0.0;
  // Where delay_seconds went, by pipeline phase (chase, question
  // generation, ...). Inclusive attribution: a chase running under
  // question generation counts in both, so the components can exceed
  // delay_seconds.
  trace::PhaseTotals phases;
  size_t question_size = 0;       // number of fixes offered
  size_t num_positions = 0;       // positions the question covered
  Fix chosen;                     // the user's answer
  // Index of the chosen fix within the question — the user's scanning
  // effort; what opti-learn's re-ordering drives down.
  size_t chosen_index = 0;
  // Conflicts remaining after the fix: naive-tracker count in phase one
  // (total chase conflicts when record_convergence is set).
  size_t conflicts_remaining = 0;
};

struct InquiryResult {
  FactBase facts;                 // the repaired fact base
  std::vector<Fix> applied_fixes;
  std::vector<QuestionRecord> records;
  // allconflicts(K) on the *initial* KB (used by the conflicts-per-
  // question metric of Figure 2).
  size_t initial_conflicts = 0;
  size_t initial_naive_conflicts = 0;
  double total_seconds = 0.0;

  // Engine instrumentation:
  // positions frozen by opti-prop's propagation (0 for other strategies);
  size_t propagated_positions = 0;
  // Π-REPOPT outcomes across all sound-question filtering;
  size_t repairability_fast_paths = 0;
  size_t repairability_full_checks = 0;
  // candidate fixes enumerated / filtered out by Algorithm 2.
  size_t question_candidates = 0;
  size_t question_filtered = 0;
  // Times the incremental conflict engine was demoted to scratch after a
  // maintenance error or invariant violation (graceful degradation; 0 or
  // 1 per dialogue in practice — demotion is sticky).
  size_t engine_fallbacks = 0;

  size_t num_questions() const { return records.size(); }
  double ConflictsPerQuestion() const {
    return records.empty() ? 0.0
                           : static_cast<double>(initial_conflicts) /
                                 static_cast<double>(records.size());
  }
  double MeanDelaySeconds() const;
  double MaxDelaySeconds() const;
};

class InquiryEngine {
 public:
  // `kb` supplies the rules and symbol table (mutated: fresh nulls) and
  // the starting facts, which are copied — the original KB is not
  // repaired in place.
  InquiryEngine(KnowledgeBase* kb, InquiryOptions options);
  ~InquiryEngine();

  InquiryEngine(InquiryEngine&&) noexcept;
  InquiryEngine& operator=(InquiryEngine&&) noexcept;

  // INQUIRY(K, Π): runs the dialogue to consistency. Fails with
  // FailedPrecondition if K is not Π-repairable for the initial Π or the
  // user declines to answer; Internal on safety-valve trips.
  //
  // Implemented on top of the stepwise API below, so a driven session
  // (service, remote user) and a blocking Run produce bit-identical
  // repairs for the same options and answers.
  StatusOr<InquiryResult> Run(User& user, PositionSet initial_pi = {});

  // --- Stepwise API -------------------------------------------------------
  //
  // One question/answer round is a pair of resumable calls, so a session
  // can be suspended between turns (the scaling unit of the repair
  // service):
  //
  //   engine.Begin();
  //   while (const Question* q = *engine.NextQuestion()) {
  //     size_t choice = ...;        // any out-of-process dialogue
  //     engine.Answer(choice);
  //   }
  //   InquiryResult result = *engine.Finish();

  // Starts a dialogue: checks Π-repairability, takes the initial
  // conflict census. Discards any session in progress.
  Status Begin(PositionSet initial_pi = {});

  // Begin(Π=∅) for a session whose KB was forked from a shared snapshot
  // (repair/kb_snapshot.h): adopts the precomputed repairability verdict
  // and conflict censuses instead of re-running the chases, and arms the
  // lazy engine constructors with the seed's frozen prototypes. The seed
  // and the structures it points to must outlive the session.
  Status BeginShared(const SharedBeginSeed& seed);

  // Produces (or returns the already-pending) next question. Returns
  // nullptr once the working base is consistent. Repeated calls without
  // an intervening Answer() return the same pending question.
  StatusOr<const Question*> NextQuestion();

  // Applies the `choice`-th fix of the pending question and advances the
  // state machine. FailedPrecondition if no question is pending or the
  // index is out of range.
  Status Answer(size_t choice);

  // True once Begin() has been called and Finish() has not.
  bool started() const { return step_ != nullptr; }
  // True when the dialogue reached consistency (NextQuestion == nullptr).
  bool finished() const;

  // The conflict engine actually in use: options().conflict_engine until
  // a maintenance error demotes an incremental session to kScratch (see
  // DemoteToScratch). The dialogue is unaffected by a demotion — the
  // scratch engine recomputes the same canonical census.
  ConflictEngineKind active_engine() const;

  // The working fact base of the in-progress session. Requires started().
  const FactBase& working_facts() const;
  // Rounds recorded so far (facts/result totals are filled by Finish()).
  const InquiryResult& progress() const;
  // Rendering context for the current session's questions.
  InquiryView View() const;

  // Finalizes timing/instrumentation, moves the result out and ends the
  // session. Callable mid-dialogue (e.g., when a service session is
  // evicted): the result then holds the partial repair.
  StatusOr<InquiryResult> Finish();

  // --- Debug inspection ---------------------------------------------------
  //
  // Read-only views of the suspended session for kbrepair-debug. None of
  // these consume RNG state or mint fresh symbols into the live table,
  // so a deterministic replay is unperturbed by any amount of
  // inspection. All require started().

  // 1 while phase-one naive conflicts are being resolved, 2 in phase
  // two (Algorithm 3 sessions report 1, matching QuestionRecord.phase).
  int current_phase() const;

  // The frozen-position set Π, and the subset frozen by opti-prop
  // propagation rather than by answers.
  const PositionSet& current_pi() const;
  const PositionSet& propagated_positions() const;

  // The conflict census the engine would select from at this point, in
  // canonical order: the naive tracker in phase one, the maintained
  // delta census when the incremental engine is live, otherwise a full
  // chased census computed against a *clone* of the symbol table —
  // fresh nulls minted by the inspection chase never touch the live
  // table. Conflicts are AtomId-based, so the cloned-table census is
  // identical to what the live finder would report.
  StatusOr<std::vector<Conflict>> InspectCensus() const;

  // Maintained chased base of the live incremental conflict engine, or
  // nullptr (scratch sessions, demoted sessions, engine not created
  // yet). Provenance cones can be walked off its Derivation DAG without
  // re-chasing.
  const IncrementalChase* delta_chase() const;

  // Size of the maintained Π-skeleton census when that engine is live
  // (0 = Π-repairable), nullopt otherwise.
  std::optional<size_t> skeleton_census_size() const;

 private:
  struct Session;  // per-run mutable state

  // The two maintained engines of an incremental session: the chased
  // conflict census, and the Π-skeleton census whose emptiness is the
  // Π-repairability verdict question generation needs each round.
  enum class Maintained { kCensus, kSkeleton };

  // Engine liveness: builds `which` on first use (adopting the snapshot
  // prototype when the session has one) and returns it; nullptr on a
  // scratch session, or after a failure demoted the session. A deadline
  // while building propagates instead (nothing is stale yet, so the
  // command can be retried), unless `demote_on_deadline`.
  StatusOr<DeltaConflictEngine*> LiveEngine(Session& session,
                                            Maintained which,
                                            bool demote_on_deadline = false);

  // Replays a position rewrite — a fix, a freeze or an unfreeze — onto
  // `which` when it is live. A failure leaves the engine stale, so the
  // session demotes to scratch.
  void Mirror(Session& session, Maintained which, const Position& position,
              TermId value);

  // The chased conflicts of a phase-two or Algorithm 3 round, in
  // canonical order: the maintained census when the incremental engine
  // is live, else CHECKCONSISTENCY-OPT's first violation when
  // `early_stop`, else the scratch full census. Then freezes opti-prop's
  // pending positions that touch none of them.
  StatusOr<std::vector<Conflict>> ChasedConflicts(Session& session,
                                                  bool early_stop);

  // The rest of Begin()/BeginShared() once the initial census is known:
  // fails (ending the session) unless the KB is Π-repairable, else arms
  // the result counters and the phase-one tracker.
  Status Start(InitialCensus census);

  // Advances to the next pending question (or to done). No-op when a
  // question is already pending or the session is finished.
  Status ComputeNextQuestion(Session& session);
  Status ApplyAnswer(Session& session, size_t choice);

  // Graceful degradation: drops the maintained delta engines and flips
  // the session to the scratch reference engine, logging and counting
  // `cause`. LiveEngine and Mirror decide when.
  void DemoteToScratch(Session& session, const Status& cause);

  // Picks a conflict + question for the current round from `conflicts`.
  // Returns an empty question when no sound question exists (the caller
  // then unfreezes propagated positions or errors out).
  StatusOr<Question> SelectQuestion(Session& session,
                                    const std::vector<const Conflict*>& conflicts);

  // Removes every propagation-frozen position from Π. Returns true if
  // anything was unfrozen.
  bool UnfreezePropagated(Session& session);

  // Freezes pending opti-prop positions that no longer touch a conflict.
  template <typename TouchFn>
  void ApplyPendingPropagation(Session& session, TouchFn&& touches);

  KnowledgeBase* kb_;
  InquiryOptions options_;
  std::unique_ptr<Session> step_;  // live stepwise session, if any
};

}  // namespace kbrepair

#endif  // KBREPAIR_REPAIR_INQUIRY_H_
