// Differential/property harness for the delta-chase conflict engine:
// full inquiry dialogues run in lockstep on the scratch and incremental
// engines must be indistinguishable round by round.
//
// Two identically generated knowledge bases (same seed, independent
// symbol tables) are driven through the stepwise API with the same
// seeded choices. At every round the harness asserts that the engines
// produce the same question — same conflict (source CDD), same
// considered positions, same fix list up to a consistent renaming of
// labeled nulls — and after the dialogue that the repairs coincide:
// identical fixed positions, final fact bases equal modulo null
// renaming, and identical per-round conflict censuses and
// Π-repairability verdicts (a divergence in any verdict would surface
// as a differing fix list, since sound-question filtering consumes
// them).
//
// Every strategy runs with ConvergenceRecording::kTotalConflicts so the
// scratch engine takes the full-census path (CHECKCONSISTENCY-OPT's
// single-violation shortcut is intentionally not dialogue-equivalent to
// the maintained census; see inquiry.h). The strategies that rank
// positions also run with recording off: ranking needs the whole census,
// so they never take the shortcut.

#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "gen/synthetic.h"
#include "parser/dlgp_parser.h"
#include "repair/conflict.h"
#include "repair/delta_conflicts.h"
#include "repair/fix.h"
#include "repair/inquiry.h"
#include "repair/question.h"
#include "rules/knowledge_base.h"
#include "util/rng.h"

namespace kbrepair {
namespace {

// A bijection between the labeled nulls of the two dialogues, grown as
// fixes are compared. Constants must match exactly (the KBs are
// generated identically, so constant ids coincide).
class NullBijection {
 public:
  // True iff term `a` of table `sa` corresponds to term `b` of `sb`.
  bool Corresponds(TermId a, const SymbolTable& sa, TermId b,
                   const SymbolTable& sb) {
    const bool a_null = sa.IsNull(a);
    const bool b_null = sb.IsNull(b);
    if (a_null != b_null) return false;
    if (!a_null) return a == b;
    auto fwd = fwd_.find(a);
    auto rev = rev_.find(b);
    if (fwd == fwd_.end() && rev == rev_.end()) {
      fwd_.emplace(a, b);
      rev_.emplace(b, a);
      return true;
    }
    return fwd != fwd_.end() && fwd->second == b && rev != rev_.end() &&
           rev->second == a;
  }

 private:
  std::unordered_map<TermId, TermId> fwd_;
  std::unordered_map<TermId, TermId> rev_;
};

SyntheticKbOptions KbOptions(uint64_t seed, bool with_tgds) {
  SyntheticKbOptions options;
  options.seed = seed;
  options.num_facts = 60 + (seed % 5) * 20;  // 60..140 facts
  options.inconsistency_ratio = 0.25;
  options.num_cdds = 5;
  options.cdd_min_atoms = 2;
  options.cdd_max_atoms = 3;
  options.min_arity = 2;
  options.max_arity = 4;
  options.min_multiplicity = 1;
  options.max_multiplicity = 2;
  if (with_tgds) {
    // Chain TGDs are full (no existentials), so the equivalence envelope
    // of DESIGN.md applies and dialogues must match exactly.
    options.num_tgds = 6;
    options.conflict_depth = 2;
    options.routed_violation_share = 0.5;
  }
  return options;
}

struct DifferentialCase {
  uint64_t seed;
  Strategy strategy;
  bool two_phase;
  bool with_tgds;
  // Off runs record nothing; the rest record kTotalConflicts. A flag
  // rather than the enum keeps the case 16 bytes, which gtest prints as
  // part of each case's name line.
  bool recording_off = false;
};
static_assert(sizeof(DifferentialCase) == 16);

std::string CaseName(const ::testing::TestParamInfo<DifferentialCase>& info) {
  const DifferentialCase& c = info.param;
  std::string name = StrategyName(c.strategy);
  for (char& ch : name) {
    if (ch == '-') ch = '_';
  }
  name += c.two_phase ? "_2ph" : "_basic";
  name += c.with_tgds ? "_tgd" : "_flat";
  if (c.recording_off) name += "_off";
  name += "_s" + std::to_string(c.seed);
  return name;
}

class DifferentialInquiry
    : public ::testing::TestWithParam<DifferentialCase> {};

// One full lockstep dialogue; asserts equivalence at every round.
TEST_P(DifferentialInquiry, EnginesProduceIdenticalDialogues) {
  const DifferentialCase& param = GetParam();

  // Same generator seed twice: two structurally identical KBs with
  // independent symbol tables (the engines mint nulls independently).
  StatusOr<SyntheticKb> gen_scratch =
      GenerateSyntheticKb(KbOptions(param.seed, param.with_tgds));
  StatusOr<SyntheticKb> gen_incremental =
      GenerateSyntheticKb(KbOptions(param.seed, param.with_tgds));
  ASSERT_TRUE(gen_scratch.ok()) << gen_scratch.status();
  ASSERT_TRUE(gen_incremental.ok()) << gen_incremental.status();
  KnowledgeBase& kb_s = gen_scratch->kb;
  KnowledgeBase& kb_i = gen_incremental->kb;

  InquiryOptions options;
  options.strategy = param.strategy;
  options.two_phase = param.two_phase;
  options.seed = param.seed * 17 + 3;
  options.record_convergence = param.recording_off
                                   ? ConvergenceRecording::kOff
                                   : ConvergenceRecording::kTotalConflicts;

  InquiryOptions incremental_options = options;
  incremental_options.conflict_engine = ConflictEngineKind::kIncremental;

  InquiryEngine scratch(&kb_s, options);
  InquiryEngine incremental(&kb_i, incremental_options);

  ASSERT_TRUE(scratch.Begin().ok());
  ASSERT_TRUE(incremental.Begin().ok());

  NullBijection nulls;
  Rng chooser(param.seed * 101 + 13);
  size_t round = 0;
  while (true) {
    StatusOr<const Question*> q_s = scratch.NextQuestion();
    StatusOr<const Question*> q_i = incremental.NextQuestion();
    ASSERT_TRUE(q_s.ok()) << q_s.status();
    ASSERT_TRUE(q_i.ok()) << q_i.status();
    ASSERT_EQ(*q_s == nullptr, *q_i == nullptr)
        << "round " << round << ": one engine finished, the other did not";
    if (*q_s == nullptr) break;

    const Question& question_s = **q_s;
    const Question& question_i = **q_i;
    ASSERT_EQ(question_s.source_cdd, question_i.source_cdd)
        << "round " << round;
    ASSERT_EQ(question_s.considered_positions,
              question_i.considered_positions)
        << "round " << round;
    ASSERT_EQ(question_s.fixes.size(), question_i.fixes.size())
        << "round " << round;
    for (size_t f = 0; f < question_s.fixes.size(); ++f) {
      const Fix& fix_s = question_s.fixes[f];
      const Fix& fix_i = question_i.fixes[f];
      ASSERT_EQ(fix_s.atom, fix_i.atom) << "round " << round << " fix " << f;
      ASSERT_EQ(fix_s.arg, fix_i.arg) << "round " << round << " fix " << f;
      ASSERT_TRUE(nulls.Corresponds(fix_s.value, kb_s.symbols(),
                                    fix_i.value, kb_i.symbols()))
          << "round " << round << " fix " << f << ": values diverge ("
          << kb_s.symbols().term_name(fix_s.value) << " vs "
          << kb_i.symbols().term_name(fix_i.value) << ")";
    }

    const size_t choice = chooser.UniformIndex(question_s.fixes.size());
    ASSERT_TRUE(scratch.Answer(choice).ok());
    ASSERT_TRUE(incremental.Answer(choice).ok());

    // The maintained census must agree with the scratch recomputation
    // after every single answer.
    const QuestionRecord& record_s = scratch.progress().records.back();
    const QuestionRecord& record_i = incremental.progress().records.back();
    ASSERT_EQ(record_s.conflicts_remaining, record_i.conflicts_remaining)
        << "round " << round;
    ASSERT_EQ(record_s.phase, record_i.phase) << "round " << round;
    ++round;
  }

  StatusOr<InquiryResult> result_s = scratch.Finish();
  StatusOr<InquiryResult> result_i = incremental.Finish();
  ASSERT_TRUE(result_s.ok()) << result_s.status();
  ASSERT_TRUE(result_i.ok()) << result_i.status();

  EXPECT_EQ(result_s->initial_conflicts, result_i->initial_conflicts);
  EXPECT_EQ(result_s->initial_naive_conflicts,
            result_i->initial_naive_conflicts);
  ASSERT_EQ(result_s->applied_fixes.size(), result_i->applied_fixes.size());
  for (size_t f = 0; f < result_s->applied_fixes.size(); ++f) {
    EXPECT_EQ(result_s->applied_fixes[f].position(),
              result_i->applied_fixes[f].position());
  }

  // Byte-identical repairs modulo null renaming: same shape, same
  // constants, consistently corresponding nulls.
  const FactBase& facts_s = result_s->facts;
  const FactBase& facts_i = result_i->facts;
  ASSERT_EQ(facts_s.size(), facts_i.size());
  for (AtomId id = 0; id < facts_s.size(); ++id) {
    const Atom& a = facts_s.atom(id);
    const Atom& b = facts_i.atom(id);
    ASSERT_EQ(a.predicate, b.predicate) << "atom " << id;
    ASSERT_EQ(a.args.size(), b.args.size()) << "atom " << id;
    for (size_t pos = 0; pos < a.args.size(); ++pos) {
      EXPECT_TRUE(nulls.Corresponds(a.args[pos], kb_s.symbols(),
                                    b.args[pos], kb_i.symbols()))
          << "atom " << id << " arg " << pos;
    }
  }
}

std::vector<DifferentialCase> MakeCases() {
  std::vector<DifferentialCase> cases;
  const Strategy strategies[] = {Strategy::kRandom, Strategy::kOptiJoin,
                                 Strategy::kOptiProp, Strategy::kOptiMcd,
                                 Strategy::kOptiLearn};
  // 5 strategies x 2 engine modes x 2 workloads x 13 seeds = 260 runs,
  // plus the two ranking strategies with recording off on the two-phase
  // engine (the only mode whose census choice depends on it): 52 more.
  for (const Strategy strategy : strategies) {
    for (const bool two_phase : {false, true}) {
      for (const bool with_tgds : {false, true}) {
        for (uint64_t seed = 1; seed <= 13; ++seed) {
          cases.push_back({seed, strategy, two_phase, with_tgds});
          const bool ranks = strategy == Strategy::kOptiMcd ||
                             strategy == Strategy::kOptiLearn;
          if (ranks && two_phase) {
            cases.push_back({seed, strategy, two_phase, with_tgds,
                             /*recording_off=*/true});
          }
        }
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, DifferentialInquiry,
                         ::testing::ValuesIn(MakeCases()), CaseName);

// --- Support refresh over a cyclic, diamond-shaped rule graph ---------

// Engine-independent identity of a conflict (see CanonicalConflictLess):
// CDD index, matched atoms with derived ids collapsed, original support.
struct ConflictKey {
  size_t cdd_index;
  std::vector<int64_t> pattern;
  std::vector<AtomId> support;

  bool operator==(const ConflictKey& other) const {
    return cdd_index == other.cdd_index && pattern == other.pattern &&
           support == other.support;
  }
};

std::ostream& operator<<(std::ostream& out, const ConflictKey& key) {
  out << "cdd " << key.cdd_index << " matched [";
  for (const int64_t id : key.pattern) out << " " << id;
  out << " ] support [";
  for (const AtomId id : key.support) out << " " << id;
  return out << " ]";
}

std::vector<ConflictKey> Keys(const std::vector<Conflict>& conflicts,
                              size_t num_original) {
  std::vector<ConflictKey> keys;
  for (const Conflict& conflict : conflicts) {
    ConflictKey key{conflict.cdd_index, {}, conflict.support};
    for (const AtomId id : conflict.matched) {
      key.pattern.push_back(id < num_original ? static_cast<int64_t>(id)
                                              : int64_t{-1});
    }
    keys.push_back(std::move(key));
  }
  return keys;
}

// The delta engine refreshes the supports of surviving conflicts whose
// derived atoms a fix can re-prove, using a predicate-level closure of
// the TGD graph. Here d is reached from a along two paths (a->b->d and
// a->c->d) and sits on a cycle with e, so a closure that missed a
// branch, stopped after one edge or looped would leave a stale support.
// After every fix the maintained census must equal a from-scratch
// census.
TEST(DeltaConflictEngineTest, SupportRefreshMatchesScratchOnCyclicDiamond) {
  StatusOr<KnowledgeBase> parsed = ParseDlgp(R"(
    a(k, m). b(k, m). c(k, n). e(z, m). bad(m). bad(n). a(j, m).
    y(h, m). v(m). x(h, m).
    b(X, Y) :- a(X, Y).
    w(Y) :- v(Y).
    b(X, Y) :- y(X, Y), w(Y).
    b(X, Y) :- x(X, Y).
    c(X, Y) :- a(X, Y).
    d(X, Y) :- b(X, Y).
    d(X, Y) :- c(X, Y).
    e(X, Y) :- d(X, Y).
    d(X, Y) :- e(X, Y).
    ! :- d(X, Y), bad(Y).
  )");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  KnowledgeBase& kb = *parsed;
  SymbolTable& symbols = kb.symbols();
  const TermId k = symbols.InternConstant("k");
  const TermId m = symbols.InternConstant("m");
  const TermId n = symbols.InternConstant("n");
  const TermId q = symbols.InternConstant("q");

  FactBase working = kb.facts();
  DeltaConflictEngine delta(&symbols, &kb.tgds(), &kb.cdds());
  ASSERT_TRUE(delta.Initialize(working).ok());
  const ConflictFinder scratch(&symbols, &kb.tgds(), &kb.cdds());

  const std::vector<Fix> fixes = {
      // y(h,q): the chase derived b(h,m) from x(h,m) (y's trigger waits
      // a wave for w(m)), so this fix derives and retracts nothing. Only
      // the two-edge closure y->b->d sees that the canonical support of
      // d(h,m) moves from {y(h,m), v(m)} to {x(h,m)}.
      {7, 1, q},
      {0, 1, q},  // a(k,q): d(k,m) survives through the original b(k,m)
      {6, 1, q},  // a(j,q): d(j,m) loses both diamond proofs (b and c)
      {1, 1, q},  // b(k,q): d(k,m) loses its last proof
      {3, 0, k},  // e(k,m): d(k,m) comes back around the d/e cycle
      {2, 1, m},  // c(k,m): a second proof of d(k,m)
      {4, 0, n},  // bad(n): every live conflict moves to n
  };
  for (size_t step = 0; step <= fixes.size(); ++step) {
    if (step > 0) {
      const Fix& fix = fixes[step - 1];
      working.SetArg(fix.atom, fix.arg, fix.value);
      ASSERT_TRUE(delta.OnFixApplied(fix.atom, fix.arg, fix.value).ok());
      ASSERT_TRUE(delta.VerifyInvariants().ok()) << "step " << step;
    }
    StatusOr<std::vector<Conflict>> expected = scratch.AllConflicts(working);
    ASSERT_TRUE(expected.ok()) << expected.status();
    CanonicalizeConflicts(*expected, working.size());
    EXPECT_EQ(Keys(delta.CanonicalConflicts(), working.size()),
              Keys(*expected, working.size()))
        << "step " << step;
  }
}

}  // namespace
}  // namespace kbrepair
