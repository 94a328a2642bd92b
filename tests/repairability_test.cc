#include "repair/repairability.h"

#include <gtest/gtest.h>

#include <string>

#include "parser/dlgp_parser.h"
#include "repair/consistency.h"

namespace kbrepair {
namespace {

KnowledgeBase Parse(const std::string& text) {
  StatusOr<KnowledgeBase> kb = ParseDlgp(text);
  EXPECT_TRUE(kb.ok()) << kb.status();
  return std::move(kb).value();
}

// Brute-force Π-repairability on tiny KBs: try every fix set over the
// value universe {active-domain values} ∪ {one fresh null per position},
// restricted to mutable positions, and test consistency. Exponential —
// only for cross-checking Algorithm 1.
bool BruteForcePiRepairable(KnowledgeBase& kb, const PositionSet& pi) {
  std::vector<Position> mutable_positions;
  for (const Position& p : AllPositions(kb.facts())) {
    if (pi.count(p) == 0) mutable_positions.push_back(p);
  }
  // Value universe per position: every constant in F plus a fresh null.
  std::vector<std::vector<TermId>> choices;
  for (const Position& p : mutable_positions) {
    std::vector<TermId> values;
    const Atom& atom = kb.facts().atom(p.atom);
    // Keep current value as a choice (no fix on this position).
    values.push_back(atom.args[static_cast<size_t>(p.arg)]);
    for (TermId v : kb.facts().ActiveDomain(atom.predicate, p.arg)) {
      if (v != values[0]) values.push_back(v);
    }
    values.push_back(kb.symbols().MakeFreshNull());
    choices.push_back(std::move(values));
  }
  ConsistencyChecker checker(&kb.symbols(), &kb.tgds(), &kb.cdds());
  // Enumerate the cross product (sizes stay tiny in these tests).
  std::vector<size_t> index(choices.size(), 0);
  while (true) {
    FactBase candidate = kb.facts();
    for (size_t i = 0; i < mutable_positions.size(); ++i) {
      candidate.SetArg(mutable_positions[i].atom, mutable_positions[i].arg,
                       choices[i][index[i]]);
    }
    if (checker.IsConsistentOpt(candidate).value()) return true;
    size_t carry = 0;
    while (carry < index.size()) {
      if (++index[carry] < choices[carry].size()) break;
      index[carry] = 0;
      ++carry;
    }
    if (carry == index.size()) return false;
  }
}

TEST(RepairabilityTest, EmptyPiIsAlwaysRepairableWithoutTgds) {
  KnowledgeBase kb = Parse(R"(
    p(a, b). q(b, d).
    ! :- p(X, Y), q(Y, Z).
  )");
  RepairabilityChecker checker(&kb.symbols(), &kb.tgds(), &kb.cdds());
  EXPECT_TRUE(checker.IsPiRepairable(kb.facts(), {}).value());
}

TEST(RepairabilityTest, PaperExample37) {
  // F = {p(a,b), q(b,d)}, Σc = {p(X,Y), q(Y,Z) -> ⊥}.
  KnowledgeBase kb = Parse(R"(
    p(a, b). q(b, d).
    ! :- p(X, Y), q(Y, Z).
  )");
  RepairabilityChecker checker(&kb.symbols(), &kb.tgds(), &kb.cdds());
  // Π = ∅: repairable.
  EXPECT_TRUE(checker.IsPiRepairable(kb.facts(), {}).value());
  // Π = {(p(a,b),2), (q(b,d),1)}: freezing the joined values makes the
  // violation permanent.
  const PositionSet frozen = {Position{0, 1}, Position{1, 0}};
  EXPECT_FALSE(checker.IsPiRepairable(kb.facts(), frozen).value());
  // Freezing only one side stays repairable.
  EXPECT_TRUE(
      checker.IsPiRepairable(kb.facts(), {Position{0, 1}}).value());
}

TEST(RepairabilityTest, FullPiReducesToConsistencyCheck) {
  KnowledgeBase inconsistent = Parse(R"(
    p(a, b). q(b, d).
    ! :- p(X, Y), q(Y, Z).
  )");
  PositionSet all_positions;
  for (const Position& p : AllPositions(inconsistent.facts())) {
    all_positions.insert(p);
  }
  RepairabilityChecker checker(&inconsistent.symbols(),
                               &inconsistent.tgds(), &inconsistent.cdds());
  EXPECT_FALSE(
      checker.IsPiRepairable(inconsistent.facts(), all_positions).value());

  KnowledgeBase consistent = Parse(R"(
    p(a, b). q(c, d).
    ! :- p(X, Y), q(Y, Z).
  )");
  PositionSet all2;
  for (const Position& p : AllPositions(consistent.facts())) {
    all2.insert(p);
  }
  RepairabilityChecker checker2(&consistent.symbols(), &consistent.tgds(),
                                &consistent.cdds());
  EXPECT_TRUE(checker2.IsPiRepairable(consistent.facts(), all2).value());
}

TEST(RepairabilityTest, TgdAwareRepairability) {
  // The violation is only reachable through the chase; freezing the
  // chain origin's join positions plus the partner atom makes it
  // unrepairable.
  KnowledgeBase kb = Parse(R"(
    c0(a, b).
    other(a, b).
    c1(X, Y) :- c0(X, Y).
    ! :- c1(X, Y), other(X, Y).
  )");
  RepairabilityChecker checker(&kb.symbols(), &kb.tgds(), &kb.cdds());
  EXPECT_TRUE(checker.IsPiRepairable(kb.facts(), {}).value());
  const PositionSet frozen = {Position{0, 0}, Position{0, 1},
                              Position{1, 0}, Position{1, 1}};
  EXPECT_FALSE(checker.IsPiRepairable(kb.facts(), frozen).value());
}

TEST(RepairabilityTest, AgreesWithBruteForceOnSmallKbs) {
  const char* kTexts[] = {
      // join chain
      "p(a, b). q(b, d). ! :- p(X, Y), q(Y, Z).",
      // self-join within one atom
      "p(a, a). ! :- p(X, X).",
      // constant-anchored CDD
      "s(o1, shipped). s(o1, cancelled). "
      "! :- s(X, shipped), s(X, cancelled).",
      // two constraints sharing an atom
      "p(a, b). q(b, c). r(b, d). ! :- p(X, Y), q(Y, Z). "
      "! :- p(X, Y), r(Y, Z).",
  };
  for (const char* text : kTexts) {
    KnowledgeBase kb = Parse(text);
    RepairabilityChecker checker(&kb.symbols(), &kb.tgds(), &kb.cdds());
    // Try several Π sets: empty, each single position, one pair.
    std::vector<PositionSet> pis;
    pis.push_back({});
    const std::vector<Position> positions = AllPositions(kb.facts());
    for (const Position& p : positions) pis.push_back({p});
    if (positions.size() >= 2) {
      pis.push_back({positions[0], positions[1]});
      pis.push_back({positions[0], positions.back()});
    }
    for (const PositionSet& pi : pis) {
      const bool fast = checker.IsPiRepairable(kb.facts(), pi).value();
      const bool brute = BruteForcePiRepairable(kb, pi);
      EXPECT_EQ(fast, brute) << text;
    }
  }
}

TEST(RepairabilityTest, UserNullSpelledLikeScratchNullDoesNotAlias) {
  // p(a, b)'s second position is flat position 1, whose scratch null
  // renders as "_S1". Freezing q[0] keeps the user's null _S1 in the
  // skeleton; were the two the same term, the join would be forced and
  // the KB declared unrepairable. Fixing p[1] repairs it.
  for (const char* null_name : {"_S1", "_Z1"}) {
    KnowledgeBase kb = Parse(std::string("p(a, b). q(") + null_name +
                             "). ! :- p(X, Y), q(Y).");
    RepairabilityChecker checker(&kb.symbols(), &kb.tgds(), &kb.cdds());
    const PositionSet pi = {Position{1, 0}};
    EXPECT_TRUE(checker.IsPiRepairable(kb.facts(), pi).value()) << null_name;
    EXPECT_EQ(checker.IsPiRepairable(kb.facts(), pi).value(),
              BruteForcePiRepairable(kb, pi))
        << null_name;
  }
}

TEST(RepairabilityTest, SkeletonKeepsAtomIdsAndTombstones) {
  KnowledgeBase kb = Parse("p(a, b). q(b, c). p(c, d).");
  FactBase facts = kb.facts();
  facts.Remove(1);
  RepairabilityChecker checker(&kb.symbols(), &kb.tgds(), &kb.cdds());
  const PositionSet pi = {Position{0, 1}, Position{2, 0}};
  const FactBase skeleton = checker.BuildSkeleton(facts, pi);

  ASSERT_EQ(skeleton.size(), facts.size());
  EXPECT_EQ(skeleton.num_alive(), facts.num_alive());
  EXPECT_FALSE(skeleton.alive(1));
  for (AtomId id = 0; id < facts.size(); ++id) {
    const Atom& atom = facts.atom(id);
    const Atom& skel = skeleton.atom(id);
    ASSERT_EQ(skel.predicate, atom.predicate) << "atom " << id;
    for (int arg = 0; arg < atom.arity(); ++arg) {
      const Position p{id, arg};
      const TermId value = skel.args[static_cast<size_t>(arg)];
      if (pi.count(p) > 0) {
        EXPECT_EQ(value, atom.args[static_cast<size_t>(arg)]);
      } else {
        EXPECT_EQ(value, checker.SkeletonNullFor(facts, p));
        EXPECT_TRUE(kb.symbols().IsNull(value));
      }
    }
  }
  // Frozen values stay probe-able; the dead atom is in no index.
  const PredicateId p = kb.symbols().FindPredicate("p");
  const TermId b = kb.symbols().FindTerm(TermKind::kConstant, "b");
  EXPECT_EQ(skeleton.AtomsWithTermAt(p, 1, b).size(), 1u);
  EXPECT_EQ(skeleton.AtomsWithPredicate(kb.symbols().FindPredicate("q"))
                .size(),
            0u);
  // The first build minted the pool up to the last flat position; a
  // second build with a different Π reuses it.
  const size_t terms = kb.symbols().num_terms();
  checker.BuildSkeleton(facts, {});
  EXPECT_EQ(kb.symbols().num_terms(), terms);
}

TEST(RepairabilityScopeTest, FreshNullFastPath) {
  KnowledgeBase kb = Parse(R"(
    p(a, b). q(b, d).
    ! :- p(X, Y), q(Y, Z).
  )");
  RepairabilityChecker checker(&kb.symbols(), &kb.tgds(), &kb.cdds());
  RepairabilityChecker::Scope scope(&checker, kb.facts(), {});
  EXPECT_TRUE(scope.BaseRepairable());
  const TermId fresh = kb.symbols().MakeFreshNull();
  EXPECT_TRUE(scope.FixKeepsRepairable(Fix{0, 1, fresh}).value());
  EXPECT_EQ(scope.num_fast_paths(), 1u);
  EXPECT_EQ(scope.num_full_checks(), 0u);
}

TEST(RepairabilityScopeTest, CollidingValueTriggersFullCheck) {
  KnowledgeBase kb = Parse(R"(
    p(a, b). q(c, d).
    ! :- p(X, Y), q(Y, Z).
  )");
  const TermId b = kb.symbols().FindTerm(TermKind::kConstant, "b");
  RepairabilityChecker checker(&kb.symbols(), &kb.tgds(), &kb.cdds());
  // Freeze p's second position (value b) and q's first (value c).
  const PositionSet pi = {Position{0, 1}, Position{1, 0}};
  RepairabilityChecker::Scope scope(&checker, kb.facts(), pi);
  ASSERT_TRUE(scope.BaseRepairable());
  // Rewriting q's lone position to b collides with a Π value: full
  // check runs, and the result is still repairable (q(c, b) triggers
  // nothing since the join needs q's FIRST position to equal b).
  EXPECT_TRUE(scope.FixKeepsRepairable(Fix{1, 1, b}).value());
  EXPECT_EQ(scope.num_full_checks(), 1u);
  // Rewriting q's first position to b completes the frozen join: the
  // violation becomes permanent, so the fix must be filtered.
  EXPECT_FALSE(scope.FixKeepsRepairable(Fix{1, 0, b}).value());
}

TEST(RepairabilityScopeTest, InconsistentBaseShortCircuits) {
  KnowledgeBase kb = Parse(R"(
    p(a, b). q(b, d).
    ! :- p(X, Y), q(Y, Z).
  )");
  // Freeze the joined pair: not Π-repairable.
  const PositionSet pi = {Position{0, 1}, Position{1, 0}};
  RepairabilityChecker checker(&kb.symbols(), &kb.tgds(), &kb.cdds());
  RepairabilityChecker::Scope scope(&checker, kb.facts(), pi);
  EXPECT_FALSE(scope.BaseRepairable());
  const TermId fresh = kb.symbols().MakeFreshNull();
  EXPECT_FALSE(scope.FixKeepsRepairable(Fix{0, 0, fresh}).value());
  // Short-circuit: not even a fast path is recorded as success.
  EXPECT_EQ(scope.num_full_checks(), 0u);
}

TEST(RepairabilityScopeTest, RuleConstantCollisionChecksFully) {
  // The CDD mentions the constant `shipped`; a candidate fix to that
  // value cannot take the isomorphism fast path.
  KnowledgeBase kb = Parse(R"(
    s(o1, shipped). s(o1, pending).
    ! :- s(X, shipped), s(X, cancelled).
  )");
  const TermId shipped =
      kb.symbols().FindTerm(TermKind::kConstant, "shipped");
  RepairabilityChecker checker(&kb.symbols(), &kb.tgds(), &kb.cdds());
  RepairabilityChecker::Scope scope(&checker, kb.facts(), {});
  ASSERT_TRUE(scope.BaseRepairable());
  EXPECT_TRUE(scope.FixKeepsRepairable(Fix{1, 1, shipped}).value());
  EXPECT_EQ(scope.num_full_checks(), 1u);
}

TEST(RepairabilityScopeTest, ScopeAgreesWithDirectPiRepCheck) {
  KnowledgeBase kb = Parse(R"(
    p(a, b). q(b, d). r(d, a).
    ! :- p(X, Y), q(Y, Z), r(Z, W).
  )");
  RepairabilityChecker checker(&kb.symbols(), &kb.tgds(), &kb.cdds());
  const std::vector<Position> positions = AllPositions(kb.facts());
  const std::vector<TermId> values = {
      kb.symbols().FindTerm(TermKind::kConstant, "a"),
      kb.symbols().FindTerm(TermKind::kConstant, "b"),
      kb.symbols().FindTerm(TermKind::kConstant, "d"),
      kb.symbols().MakeFreshNull()};
  // For several (Π, fix) combinations, Scope must agree with
  // applying the fix and calling IsPiRepairable directly.
  for (size_t pin = 0; pin < positions.size(); ++pin) {
    PositionSet pi = {positions[pin]};
    RepairabilityChecker::Scope scope(&checker, kb.facts(), pi);
    for (const Position& target : positions) {
      if (pi.count(target) > 0) continue;
      for (const TermId value : values) {
        const Fix fix{target.atom, target.arg, value};
        const bool scoped = scope.FixKeepsRepairable(fix).value();
        FactBase applied = kb.facts();
        ApplyFix(applied, fix);
        PositionSet pi_prime = pi;
        pi_prime.insert(target);
        const bool direct =
            checker.IsPiRepairable(applied, pi_prime).value();
        ASSERT_EQ(scoped, direct)
            << "pin " << pin << " target (" << target.atom << ","
            << target.arg << ") value "
            << kb.symbols().term_name(value);
      }
    }
  }
}

}  // namespace
}  // namespace kbrepair
