#include "chase/chase.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>

#include "chase/incremental_chase.h"
#include "gen/synthetic.h"
#include "kb/homomorphism.h"
#include "parser/dlgp_parser.h"
#include "repair/inquiry.h"
#include "repair/question.h"
#include "util/rng.h"

namespace kbrepair {
namespace {

// Most chase tests are easiest to read through the DLGP syntax.
KnowledgeBase Parse(const std::string& text) {
  StatusOr<KnowledgeBase> kb = ParseDlgp(text);
  EXPECT_TRUE(kb.ok()) << kb.status();
  return std::move(kb).value();
}

TEST(ChaseTest, PaperExample21DerivesPrescription) {
  KnowledgeBase kb = Parse(R"(
    hasPain(john, migraine).
    isPainKillerFor(nsaids, migraine).
    prescribed(X, Z) :- isPainKillerFor(X, Y), hasPain(Z, Y).
  )");
  StatusOr<ChaseResult> chased =
      RunChase(kb.facts(), kb.tgds(), kb.symbols());
  ASSERT_TRUE(chased.ok());
  EXPECT_EQ(chased->num_original(), 2u);
  EXPECT_EQ(chased->num_derived(), 1u);
  const Atom& derived = chased->facts().atom(2);
  EXPECT_EQ(derived.ToString(kb.symbols()), "prescribed(nsaids,john)");
}

TEST(ChaseTest, NoTgdsMeansNoDerivation) {
  KnowledgeBase kb = Parse("p(a, b). q(b, c).");
  StatusOr<ChaseResult> chased =
      RunChase(kb.facts(), kb.tgds(), kb.symbols());
  ASSERT_TRUE(chased.ok());
  EXPECT_EQ(chased->num_derived(), 0u);
}

TEST(ChaseTest, ExistentialsBecomeFreshNulls) {
  KnowledgeBase kb = Parse(R"(
    person(john, x).
    hasParent(X, Z) :- person(X, Y).
  )");
  StatusOr<ChaseResult> chased =
      RunChase(kb.facts(), kb.tgds(), kb.symbols());
  ASSERT_TRUE(chased.ok());
  ASSERT_EQ(chased->num_derived(), 1u);
  const Atom& derived = chased->facts().atom(1);
  EXPECT_TRUE(kb.symbols().IsNull(derived.args[1]));
}

TEST(ChaseTest, RestrictedChaseDoesNotRefireSatisfiedHeads) {
  // The head person(X,Y) -> hasParent(X,Z) is satisfied once derived;
  // re-running on the derived atom must not loop (weakly acyclic anyway)
  // and a second identical body match must not duplicate.
  KnowledgeBase kb = Parse(R"(
    person(john, a).
    person(john, b).
    hasParent(X, Z) :- person(X, Y).
  )");
  StatusOr<ChaseResult> chased =
      RunChase(kb.facts(), kb.tgds(), kb.symbols());
  ASSERT_TRUE(chased.ok());
  // One hasParent(john, _) suffices for both person facts.
  EXPECT_EQ(chased->num_derived(), 1u);
}

TEST(ChaseTest, GroundDuplicateHeadsAreNotAdded) {
  KnowledgeBase kb = Parse(R"(
    p(a, b).
    q(a, b).
    q(X, Y) :- p(X, Y).
  )");
  StatusOr<ChaseResult> chased =
      RunChase(kb.facts(), kb.tgds(), kb.symbols());
  ASSERT_TRUE(chased.ok());
  EXPECT_EQ(chased->num_derived(), 0u);
}

TEST(ChaseTest, MultiStepDerivationWithProvenance) {
  KnowledgeBase kb = Parse(R"(
    p0(a, b).
    p1(X, Y) :- p0(X, Y).
    p2(X, Y) :- p1(X, Y).
  )");
  StatusOr<ChaseResult> chased =
      RunChase(kb.facts(), kb.tgds(), kb.symbols());
  ASSERT_TRUE(chased.ok());
  ASSERT_EQ(chased->num_derived(), 2u);

  // p2 atom derives from p1 which derives from p0 (atom 0).
  const AtomId p2_atom = 2;
  EXPECT_FALSE(chased->IsOriginal(p2_atom));
  const std::vector<AtomId> support = chased->OriginalSupport(p2_atom);
  EXPECT_EQ(support, std::vector<AtomId>{0});
}

TEST(ChaseTest, MultiAtomBodyProvenanceUnionsParents) {
  KnowledgeBase kb = Parse(R"(
    hasPain(john, migraine).
    isPainKillerFor(nsaids, migraine).
    prescribed(X, Z) :- isPainKillerFor(X, Y), hasPain(Z, Y).
  )");
  StatusOr<ChaseResult> chased =
      RunChase(kb.facts(), kb.tgds(), kb.symbols());
  ASSERT_TRUE(chased.ok());
  const std::vector<AtomId> support = chased->OriginalSupport(AtomId{2});
  EXPECT_EQ(support, (std::vector<AtomId>{0, 1}));
}

TEST(ChaseTest, OriginalSupportOfOriginalIsItself) {
  KnowledgeBase kb = Parse("p(a, b).");
  StatusOr<ChaseResult> chased =
      RunChase(kb.facts(), kb.tgds(), kb.symbols());
  ASSERT_TRUE(chased.ok());
  EXPECT_EQ(chased->OriginalSupport(AtomId{0}), std::vector<AtomId>{0});
}

TEST(ChaseTest, ViolationDetectedAndChaseStops) {
  KnowledgeBase kb = Parse(R"(
    p(a, b).
    q(b, a).
    r(X, Y) :- p(X, Y).
    ! :- p(X, Y), q(Y, X).
  )");
  ChaseOptions options;
  options.stop_on_violation = true;
  ChaseEngine engine(&kb.symbols(), &kb.tgds(), &kb.cdds(), options);
  StatusOr<ChaseResult> chased = engine.Run(kb.facts());
  ASSERT_TRUE(chased.ok());
  ASSERT_TRUE(chased->violation().has_value());
  EXPECT_EQ(chased->violation()->cdd_index, 0u);
  EXPECT_EQ(chased->violation()->matched.size(), 2u);
}

TEST(ChaseTest, ViolationOnlyAfterChaseStep) {
  KnowledgeBase kb = Parse(R"(
    p(a, b).
    q(a, b).
    r(X, Y) :- p(X, Y).
    ! :- r(X, Y), q(X, Y).
  )");
  ChaseEngine engine(&kb.symbols(), &kb.tgds(), &kb.cdds());
  StatusOr<ChaseResult> chased = engine.Run(kb.facts());
  ASSERT_TRUE(chased.ok());
  ASSERT_TRUE(chased->violation().has_value());
  // The violation uses the derived r-atom; its support is the p-atom.
  const std::vector<AtomId> support =
      chased->OriginalSupport(chased->violation()->matched);
  EXPECT_EQ(support, (std::vector<AtomId>{0, 1}));
}

TEST(ChaseTest, NoViolationWhenConsistent) {
  KnowledgeBase kb = Parse(R"(
    p(a, b).
    q(c, d).
    ! :- p(X, Y), q(Y, X).
  )");
  ChaseEngine engine(&kb.symbols(), &kb.tgds(), &kb.cdds());
  StatusOr<ChaseResult> chased = engine.Run(kb.facts());
  ASSERT_TRUE(chased.ok());
  EXPECT_FALSE(chased->violation().has_value());
}

TEST(ChaseTest, MaxAtomsCapReturnsInternal) {
  KnowledgeBase kb = Parse(R"(
    p0(a, b).
    p1(X, Y) :- p0(X, Y).
    p2(X, Y) :- p1(X, Y).
    p3(X, Y) :- p2(X, Y).
  )");
  ChaseOptions options;
  options.max_atoms = 2;  // original 1 + cap after first derivation
  ChaseEngine engine(&kb.symbols(), &kb.tgds(), nullptr, options);
  StatusOr<ChaseResult> chased = engine.Run(kb.facts());
  EXPECT_FALSE(chased.ok());
  EXPECT_EQ(chased.status().code(), StatusCode::kInternal);
}

TEST(ChaseTest, MultiHeadTgdAddsAllHeadAtoms) {
  KnowledgeBase kb = Parse(R"(
    p(a, b).
    q(X, Z), r(Z, Y) :- p(X, Y).
  )");
  StatusOr<ChaseResult> chased =
      RunChase(kb.facts(), kb.tgds(), kb.symbols());
  ASSERT_TRUE(chased.ok());
  EXPECT_EQ(chased->num_derived(), 2u);
  // The shared existential Z is the same null in both head atoms.
  const Atom& q_atom = chased->facts().atom(1);
  const Atom& r_atom = chased->facts().atom(2);
  EXPECT_EQ(q_atom.args[1], r_atom.args[0]);
  EXPECT_TRUE(kb.symbols().IsNull(q_atom.args[1]));
}

TEST(ChaseTest, DerivedAtomsTriggerFurtherRulesAndConstraints) {
  // Depth-3 chain ending in a violation.
  KnowledgeBase kb = Parse(R"(
    c0(a, b).
    other(a, b).
    c1(X, Y) :- c0(X, Y).
    c2(X, Y) :- c1(X, Y).
    c3(X, Y) :- c2(X, Y).
    ! :- c3(X, Y), other(X, Y).
  )");
  ChaseEngine engine(&kb.symbols(), &kb.tgds(), &kb.cdds());
  StatusOr<ChaseResult> chased = engine.Run(kb.facts());
  ASSERT_TRUE(chased.ok());
  ASSERT_TRUE(chased->violation().has_value());
  const std::vector<AtomId> support =
      chased->OriginalSupport(chased->violation()->matched);
  EXPECT_EQ(support, (std::vector<AtomId>{0, 1}));
}


TEST(ChaseTest, TombstonedInputAtomsDoNotAnchorTriggers) {
  // A forked working base may carry tombstones. A dead atom must not
  // seed the chase frontier: it anchors no triggers and derives nothing.
  KnowledgeBase kb = Parse(R"(
    p(a, b).
    p(c, d).
    q(X, Y) :- p(X, Y).
  )");
  FactBase facts = kb.facts();
  facts.Remove(0);  // tombstone p(a,b)
  StatusOr<ChaseResult> chased = RunChase(facts, kb.tgds(), kb.symbols());
  ASSERT_TRUE(chased.ok());
  ASSERT_EQ(chased->num_derived(), 1u);  // only q(c,d)
  EXPECT_EQ(chased->facts().atom(2).ToString(kb.symbols()), "q(c,d)");
}

TEST(ChaseTest, TombstonedInputAtomsDoNotWitnessViolations) {
  KnowledgeBase kb = Parse(R"(
    p(a, b).
    q(b, a).
    ! :- p(X, Y), q(Y, X).
  )");
  FactBase facts = kb.facts();
  facts.Remove(1);  // tombstone q(b,a): the only violation needs it
  ChaseEngine engine(&kb.symbols(), &kb.tgds(), &kb.cdds());
  StatusOr<ChaseResult> chased = engine.Run(facts);
  ASSERT_TRUE(chased.ok());
  EXPECT_FALSE(chased->violation().has_value());
}

TEST(ChaseTest, ConstantsInHeadsAreInstantiated) {
  KnowledgeBase kb = Parse(R"(
    emp(alice).
    assigned(X, hq) :- emp(X).
  )");
  StatusOr<ChaseResult> chased =
      RunChase(kb.facts(), kb.tgds(), kb.symbols());
  ASSERT_TRUE(chased.ok());
  ASSERT_EQ(chased->num_derived(), 1u);
  EXPECT_EQ(chased->facts().atom(1).ToString(kb.symbols()),
            "assigned(alice,hq)");
}

TEST(ChaseTest, DiamondProvenanceUnionsAllPaths) {
  // a -> b, a -> c, (b, c) -> d: d's support is just {a}.
  KnowledgeBase kb = Parse(R"(
    a(x, y).
    b(X, Y) :- a(X, Y).
    c(X, Y) :- a(X, Y).
    d(X, Y) :- b(X, Y), c(X, Y).
  )");
  StatusOr<ChaseResult> chased =
      RunChase(kb.facts(), kb.tgds(), kb.symbols());
  ASSERT_TRUE(chased.ok());
  ASSERT_EQ(chased->num_derived(), 3u);
  const AtomId d_atom = 3;
  EXPECT_EQ(chased->facts().atom(d_atom).predicate,
            kb.symbols().FindPredicate("d"));
  EXPECT_EQ(chased->OriginalSupport(d_atom), std::vector<AtomId>{0});
}

TEST(ChaseTest, RepeatedPredicateInBodySelfJoins) {
  KnowledgeBase kb = Parse(R"(
    edge(a, b). edge(b, c). edge(c, d).
    path(X, Z) :- edge(X, Y), edge(Y, Z).
  )");
  StatusOr<ChaseResult> chased =
      RunChase(kb.facts(), kb.tgds(), kb.symbols());
  ASSERT_TRUE(chased.ok());
  // path(a,c) and path(b,d).
  EXPECT_EQ(chased->num_derived(), 2u);
}

TEST(ChaseTest, DerivedAtomsFeedOtherRulesTransitively) {
  // Rules chained through derived predicates, orderings interleaved.
  KnowledgeBase kb2 = Parse(R"(
    base(a, b). base(b, c).
    mid(X, Y) :- base(X, Y).
    top(X, Z) :- mid(X, Y), base(Y, Z).
  )");
  StatusOr<ChaseResult> chased =
      RunChase(kb2.facts(), kb2.tgds(), kb2.symbols());
  ASSERT_TRUE(chased.ok());
  // mid(a,b), mid(b,c), top(a,c) — mid(b,c) joins base(b,c)? top uses
  // mid(X,Y), base(Y,Z): (a,b)x(b,c) -> top(a,c). mid(b,c) finds no
  // base(c,_).
  bool found_top = false;
  for (AtomId id = 0; id < chased->facts().size(); ++id) {
    found_top = found_top || chased->facts().atom(id).ToString(
                                 kb2.symbols()) == "top(a,c)";
  }
  EXPECT_TRUE(found_top);
}

// --- Golden pins -------------------------------------------------------
//
// Saturation is wave-ordered: each wave enumerates triggers against the
// wave-start snapshot, then fires them in that order. The order fixes
// atom ids, fresh-null names, provenance, censuses and transcripts. The
// digests below pin both chase engines and one dialogue per strategy x
// conflict engine, so a change that alters the chase output identically
// in both engines (which the scratch-vs-incremental differential cannot
// see) still fails here. Re-pin only for an intended output change.

SyntheticKbOptions GoldenKbOptions(uint64_t seed) {
  SyntheticKbOptions options;
  options.seed = seed;
  options.num_facts = 80;
  options.inconsistency_ratio = 0.25;
  options.num_cdds = 5;
  options.cdd_min_atoms = 2;
  options.cdd_max_atoms = 3;
  options.num_tgds = 6;
  options.conflict_depth = 2;
  options.routed_violation_share = 0.5;
  return options;
}

// FNV-1a, rendered as hex: stable across platforms and readable in a
// failing EXPECT_EQ.
std::string Digest(const std::string& text) {
  uint64_t h = 14695981039346656037ull;
  for (unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

enum class GoldenEngine { kScratch, kIncremental };

// The chased base (atom ids, names, provenance) plus, for the scratch
// engine, the first violation. Each call builds its own KB, so the
// rendering is the cross-run-comparable form.
std::string ChaseFingerprint(KnowledgeBase& kb, GoldenEngine engine) {
  std::string out;
  auto render = [&](const FactBase& facts, AtomId id,
                    const Derivation* derivation) {
    out += std::to_string(id) + ":" + facts.atom(id).ToString(kb.symbols());
    if (derivation != nullptr) {
      out += "<-tgd" + std::to_string(derivation->tgd_index) + "(";
      for (AtomId parent : derivation->parents) {
        out += std::to_string(parent) + ",";
      }
      out += ")";
    }
    out += "\n";
  };
  if (engine == GoldenEngine::kScratch) {
    ChaseOptions options;
    options.stop_on_violation = false;
    ChaseEngine chase(&kb.symbols(), &kb.tgds(), &kb.cdds(), options);
    StatusOr<ChaseResult> chased = chase.Run(kb.facts());
    EXPECT_TRUE(chased.ok()) << chased.status();
    if (!chased.ok()) return out;
    for (AtomId id = 0; id < chased->facts().size(); ++id) {
      render(chased->facts(), id,
             chased->IsOriginal(id) ? nullptr : &chased->derivation(id));
    }
    if (chased->violation().has_value()) {
      out += "violation:cdd" + std::to_string(chased->violation()->cdd_index);
      for (AtomId m : chased->violation()->matched) {
        out += "," + std::to_string(m);
      }
      out += "\n";
    }
    return out;
  }
  IncrementalChase chase(&kb.symbols(), &kb.tgds());
  Status status = chase.Initialize(kb.facts());
  EXPECT_TRUE(status.ok()) << status;
  for (AtomId id = 0; id < chase.facts().size(); ++id) {
    render(chase.facts(), id, chase.derivation_or_null(id));
  }
  return out;
}

std::string SyntheticChaseFingerprint(uint64_t seed, GoldenEngine engine) {
  StatusOr<SyntheticKb> gen = GenerateSyntheticKb(GoldenKbOptions(seed));
  EXPECT_TRUE(gen.ok()) << gen.status();
  return ChaseFingerprint(gen->kb, engine);
}

TEST(ChaseTest, GoldenSaturationFingerprints) {
  // {scratch, incremental} digest per seed 1..8.
  const char* const kGolden[8][2] = {
      {"2c340a428284124f", "dbb2138195724372"},
      {"7bda23fee3314dbc", "45340c6285dd3043"},
      {"943907d6ebdd8913", "963675bff84159b1"},
      {"feff52765a5ba017", "2a4534df9dad8ec7"},
      {"0c4de4fc6706c4f0", "480bb1516f33408b"},
      {"0516c177cb77ed0e", "117c5841f0fa711f"},
      {"dcfb6b7117b8f6a5", "2795213ae0db42ca"},
      {"303f772773e2fb04", "46bb3870aeff37e7"},
  };
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    EXPECT_EQ(Digest(SyntheticChaseFingerprint(seed, GoldenEngine::kScratch)),
              kGolden[seed - 1][0])
        << "scratch seed " << seed;
    EXPECT_EQ(
        Digest(SyntheticChaseFingerprint(seed, GoldenEngine::kIncremental)),
        kGolden[seed - 1][1])
        << "incremental seed " << seed;
  }
}

TEST(ChaseTest, GoldenExistentialNullFingerprint) {
  // Existential rules mint fresh nulls; the wave's firing order fixes
  // the mint order, hence every null's name.
  const char* const kText = R"(
    emp(alice). emp(bob). emp(carol).
    dept(X, D) :- emp(X).
    located(D, S) :- dept(X, D).
  )";
  KnowledgeBase scratch_kb = Parse(kText);
  KnowledgeBase incremental_kb = Parse(kText);
  EXPECT_EQ(Digest(ChaseFingerprint(scratch_kb, GoldenEngine::kScratch)),
            "aad25e2e1085b123");
  EXPECT_EQ(
      Digest(ChaseFingerprint(incremental_kb, GoldenEngine::kIncremental)),
      "aad25e2e1085b123");
}

// One full dialogue's observable transcript: questions, chosen fixes,
// census after each answer and the repaired facts.
std::string DialogueTranscript(uint64_t seed, Strategy strategy,
                               ConflictEngineKind engine_kind) {
  StatusOr<SyntheticKb> gen = GenerateSyntheticKb(GoldenKbOptions(seed));
  EXPECT_TRUE(gen.ok()) << gen.status();
  KnowledgeBase& kb = gen->kb;

  InquiryOptions options;
  options.strategy = strategy;
  options.seed = seed * 17 + 3;
  options.record_convergence = ConvergenceRecording::kTotalConflicts;
  options.conflict_engine = engine_kind;

  InquiryEngine engine(&kb, options);
  EXPECT_TRUE(engine.Begin().ok());
  std::string out;
  Rng chooser(seed * 101 + 13);
  while (true) {
    StatusOr<const Question*> question = engine.NextQuestion();
    EXPECT_TRUE(question.ok()) << question.status();
    if (!question.ok() || *question == nullptr) break;
    out += "q:cdd" + std::to_string((*question)->source_cdd);
    for (const Fix& fix : (*question)->fixes) {
      out += " " + std::to_string(fix.atom) + "/" + std::to_string(fix.arg) +
             "=" + kb.symbols().term_name(fix.value);
    }
    out += "\n";
    const size_t choice = chooser.UniformIndex((*question)->fixes.size());
    EXPECT_TRUE(engine.Answer(choice).ok());
    out += "census:" +
           std::to_string(
               engine.progress().records.back().conflicts_remaining) +
           "\n";
  }
  StatusOr<InquiryResult> result = engine.Finish();
  EXPECT_TRUE(result.ok()) << result.status();
  if (result.ok()) {
    for (AtomId id = 0; id < result->facts.size(); ++id) {
      out += result->facts.atom(id).ToString(kb.symbols()) + "\n";
    }
  }
  return out;
}

TEST(ChaseTest, GoldenDialogueTranscripts) {
  struct Pin {
    Strategy strategy;
    const char* scratch;
    const char* incremental;
  };
  const Pin kGolden[] = {
      {Strategy::kRandom, "5948a3b817a1eb90", "5948a3b817a1eb90"},
      {Strategy::kOptiJoin, "23fe00c3dcdfdbb7", "23fe00c3dcdfdbb7"},
      {Strategy::kOptiProp, "23fe00c3dcdfdbb7", "23fe00c3dcdfdbb7"},
      {Strategy::kOptiMcd, "89a3ecedbb156db3", "89a3ecedbb156db3"},
      {Strategy::kOptiLearn, "b86721e2de4c5fe3", "b86721e2de4c5fe3"},
  };
  const uint64_t seed = 1;
  for (const Pin& pin : kGolden) {
    EXPECT_EQ(Digest(DialogueTranscript(seed, pin.strategy,
                                        ConflictEngineKind::kScratch)),
              pin.scratch)
        << StrategyName(pin.strategy) << " scratch";
    EXPECT_EQ(Digest(DialogueTranscript(seed, pin.strategy,
                                        ConflictEngineKind::kIncremental)),
              pin.incremental)
        << StrategyName(pin.strategy) << " incremental";
  }
}

}  // namespace
}  // namespace kbrepair
