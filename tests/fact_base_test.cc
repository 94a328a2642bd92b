#include "kb/fact_base.h"

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "util/rng.h"

namespace kbrepair {
namespace {

class FactBaseTest : public ::testing::Test {
 protected:
  FactBaseTest() {
    p_ = symbols_.InternPredicate("p", 2);
    q_ = symbols_.InternPredicate("q", 3);
    a_ = symbols_.InternConstant("a");
    b_ = symbols_.InternConstant("b");
    c_ = symbols_.InternConstant("c");
  }

  SymbolTable symbols_;
  FactBase facts_;
  PredicateId p_ = kInvalidPredicate;
  PredicateId q_ = kInvalidPredicate;
  TermId a_ = kInvalidTerm;
  TermId b_ = kInvalidTerm;
  TermId c_ = kInvalidTerm;
};

TEST_F(FactBaseTest, AddAssignsSequentialIds) {
  EXPECT_EQ(facts_.Add(Atom(p_, {a_, b_})), 0u);
  EXPECT_EQ(facts_.Add(Atom(p_, {b_, c_})), 1u);
  EXPECT_EQ(facts_.size(), 2u);
  EXPECT_EQ(facts_.atom(0).args[0], a_);
}

TEST_F(FactBaseTest, PredicateIndex) {
  facts_.Add(Atom(p_, {a_, b_}));
  facts_.Add(Atom(q_, {a_, b_, c_}));
  facts_.Add(Atom(p_, {c_, c_}));
  EXPECT_EQ(facts_.AtomsWithPredicate(p_).size(), 2u);
  EXPECT_EQ(facts_.AtomsWithPredicate(q_).size(), 1u);
  const PredicateId unused = symbols_.InternPredicate("r", 1);
  EXPECT_TRUE(facts_.AtomsWithPredicate(unused).empty());
}

TEST_F(FactBaseTest, ProbeIndexFindsAtomsByTermAtPosition) {
  const AtomId id0 = facts_.Add(Atom(p_, {a_, b_}));
  const AtomId id1 = facts_.Add(Atom(p_, {a_, c_}));
  facts_.Add(Atom(p_, {b_, a_}));
  const AtomSpan at0 = facts_.AtomsWithTermAt(p_, 0, a_);
  EXPECT_EQ(at0.size(), 2u);
  EXPECT_TRUE(std::find(at0.begin(), at0.end(), id0) != at0.end());
  EXPECT_TRUE(std::find(at0.begin(), at0.end(), id1) != at0.end());
  EXPECT_EQ(facts_.AtomsWithTermAt(p_, 1, a_).size(), 1u);
}

TEST_F(FactBaseTest, SetArgMaintainsIndexes) {
  const AtomId id = facts_.Add(Atom(p_, {a_, b_}));
  facts_.SetArg(id, 0, c_);
  EXPECT_EQ(facts_.atom(id).args[0], c_);
  EXPECT_TRUE(facts_.AtomsWithTermAt(p_, 0, a_).empty());
  EXPECT_EQ(facts_.AtomsWithTermAt(p_, 0, c_).size(), 1u);
}

TEST_F(FactBaseTest, SetArgSameValueIsNoOp) {
  const AtomId id = facts_.Add(Atom(p_, {a_, b_}));
  facts_.SetArg(id, 0, a_);
  EXPECT_EQ(facts_.AtomsWithTermAt(p_, 0, a_).size(), 1u);
}

TEST_F(FactBaseTest, ContainsChecksValueEquality) {
  facts_.Add(Atom(p_, {a_, b_}));
  EXPECT_TRUE(facts_.Contains(Atom(p_, {a_, b_})));
  EXPECT_FALSE(facts_.Contains(Atom(p_, {a_, c_})));
  EXPECT_FALSE(facts_.Contains(Atom(q_, {a_, b_, c_})));
}

TEST_F(FactBaseTest, ContainsAfterUpdate) {
  const AtomId id = facts_.Add(Atom(p_, {a_, b_}));
  facts_.SetArg(id, 1, c_);
  EXPECT_FALSE(facts_.Contains(Atom(p_, {a_, b_})));
  EXPECT_TRUE(facts_.Contains(Atom(p_, {a_, c_})));
}

TEST_F(FactBaseTest, ActiveDomainIsDistinctAndSorted) {
  facts_.Add(Atom(p_, {a_, b_}));
  facts_.Add(Atom(p_, {a_, c_}));
  facts_.Add(Atom(p_, {b_, c_}));
  const std::vector<TermId> domain = facts_.ActiveDomain(p_, 0);
  ASSERT_EQ(domain.size(), 2u);
  EXPECT_TRUE(std::is_sorted(domain.begin(), domain.end()));
  EXPECT_TRUE(std::binary_search(domain.begin(), domain.end(), a_));
  EXPECT_TRUE(std::binary_search(domain.begin(), domain.end(), b_));
}

TEST_F(FactBaseTest, ActiveDomainOfEmptyPredicate) {
  EXPECT_TRUE(facts_.ActiveDomain(p_, 0).empty());
}

TEST_F(FactBaseTest, TermUseCountTracksOccurrences) {
  EXPECT_EQ(facts_.TermUseCount(a_), 0u);
  const AtomId id = facts_.Add(Atom(p_, {a_, a_}));
  EXPECT_EQ(facts_.TermUseCount(a_), 2u);
  facts_.SetArg(id, 0, b_);
  EXPECT_EQ(facts_.TermUseCount(a_), 1u);
  EXPECT_EQ(facts_.TermUseCount(b_), 1u);
  facts_.SetArg(id, 1, b_);
  EXPECT_EQ(facts_.TermUseCount(a_), 0u);
  EXPECT_EQ(facts_.TermUseCount(b_), 2u);
}

TEST_F(FactBaseTest, NumPositionsSumsArities) {
  facts_.Add(Atom(p_, {a_, b_}));
  facts_.Add(Atom(q_, {a_, b_, c_}));
  EXPECT_EQ(facts_.NumPositions(), 5u);
}

TEST_F(FactBaseTest, CopyIsIndependent) {
  const AtomId id = facts_.Add(Atom(p_, {a_, b_}));
  FactBase copy = facts_;
  copy.SetArg(id, 0, c_);
  EXPECT_EQ(facts_.atom(id).args[0], a_);
  EXPECT_EQ(copy.atom(id).args[0], c_);
  EXPECT_EQ(facts_.AtomsWithTermAt(p_, 0, a_).size(), 1u);
  EXPECT_TRUE(copy.AtomsWithTermAt(p_, 0, a_).empty());
}

TEST_F(FactBaseTest, DuplicateValueAtomsKeepDistinctIdentity) {
  const AtomId id0 = facts_.Add(Atom(p_, {a_, b_}));
  const AtomId id1 = facts_.Add(Atom(p_, {a_, b_}));
  EXPECT_NE(id0, id1);
  EXPECT_EQ(facts_.AtomsWithTermAt(p_, 0, a_).size(), 2u);
  EXPECT_EQ(facts_.TermUseCount(a_), 2u);
}

TEST_F(FactBaseTest, ToStringListsAtoms) {
  facts_.Add(Atom(p_, {a_, b_}));
  EXPECT_EQ(facts_.ToString(symbols_), "p(a,b)\n");
}

// --- Randomized index invariants vs. a naive rescan model ---------------
//
// The secondary indexes (predicate scan lists, (pred,pos,term) probe
// lists, term use counts) must stay exactly consistent with a brute
// rescan of the live atoms under arbitrary Add/SetArg/Remove sequences —
// on a plain FactBase and, critically, on a delta overlay over a frozen
// shared base, where every mutation shadows shared posting lists.

struct IndexModel {
  std::vector<Atom> atoms;   // last value per id, dead or alive
  std::vector<bool> alive;
};

// Asserts every index answer equals the naive model rescan and that no
// tombstoned id ever escapes an index.
void CheckIndexesAgainstModel(const FactBase& facts, const IndexModel& model,
                              const std::vector<PredicateId>& predicates,
                              const std::vector<TermId>& terms,
                              const SymbolTable& symbols) {
  ASSERT_EQ(facts.size(), model.atoms.size());
  size_t live = 0;
  for (bool a : model.alive) live += a ? 1 : 0;
  ASSERT_EQ(facts.num_alive(), live);

  for (AtomId id = 0; id < model.atoms.size(); ++id) {
    ASSERT_EQ(facts.alive(id), static_cast<bool>(model.alive[id]))
        << "atom " << id;
    // Dead or alive, atom(id) returns the last value (provenance).
    ASSERT_EQ(facts.atom(id), model.atoms[id]) << "atom " << id;
  }

  for (const PredicateId pred : predicates) {
    std::vector<AtomId> expected;
    for (AtomId id = 0; id < model.atoms.size(); ++id) {
      if (model.alive[id] && model.atoms[id].predicate == pred) {
        expected.push_back(id);
      }
    }
    const AtomSpan scan = facts.AtomsWithPredicate(pred);
    std::vector<AtomId> got(scan.begin(), scan.end());
    for (const AtomId id : got) {
      ASSERT_TRUE(model.alive[id])
          << "tombstoned atom " << id << " leaked from the predicate index";
    }
    std::sort(got.begin(), got.end());
    std::sort(expected.begin(), expected.end());
    ASSERT_EQ(got, expected) << "predicate scan list diverged for "
                             << symbols.predicate_name(pred);

    // Probe lists for every (pos, term) against this predicate,
    // including terms that never appear there (must be empty).
    for (int pos = 0; pos < symbols.predicate_arity(pred); ++pos) {
      for (const TermId term : terms) {
        std::vector<AtomId> probe_expected;
        for (AtomId id = 0; id < model.atoms.size(); ++id) {
          if (model.alive[id] && model.atoms[id].predicate == pred &&
              model.atoms[id].args[static_cast<size_t>(pos)] == term) {
            probe_expected.push_back(id);
          }
        }
        const AtomSpan probe_span = facts.AtomsWithTermAt(pred, pos, term);
        std::vector<AtomId> probe(probe_span.begin(), probe_span.end());
        for (const AtomId id : probe) {
          ASSERT_TRUE(model.alive[id])
              << "tombstoned atom " << id << " leaked from the probe index";
        }
        std::sort(probe.begin(), probe.end());
        std::sort(probe_expected.begin(), probe_expected.end());
        ASSERT_EQ(probe, probe_expected)
            << "probe list diverged at (" << symbols.predicate_name(pred)
            << "," << pos << "," << symbols.term_name(term) << ")";
      }
    }

    // Active domains are the distinct sorted live values.
    for (int pos = 0; pos < symbols.predicate_arity(pred); ++pos) {
      std::set<TermId> domain_expected;
      for (AtomId id = 0; id < model.atoms.size(); ++id) {
        if (model.alive[id] && model.atoms[id].predicate == pred) {
          domain_expected.insert(
              model.atoms[id].args[static_cast<size_t>(pos)]);
        }
      }
      const std::vector<TermId> domain = facts.ActiveDomain(pred, pos);
      ASSERT_EQ(std::vector<TermId>(domain_expected.begin(),
                                    domain_expected.end()),
                domain);
    }
  }

  for (const TermId term : terms) {
    size_t expected = 0;
    for (AtomId id = 0; id < model.atoms.size(); ++id) {
      if (!model.alive[id]) continue;
      for (const TermId arg : model.atoms[id].args) {
        if (arg == term) ++expected;
      }
    }
    ASSERT_EQ(facts.TermUseCount(term), expected)
        << "use count diverged for " << symbols.term_name(term);
  }
}

struct RandomOpsFixture {
  SymbolTable symbols;
  std::vector<PredicateId> predicates;
  std::vector<TermId> terms;

  RandomOpsFixture() {
    for (int p = 0; p < 4; ++p) {
      predicates.push_back(
          symbols.InternPredicate("p" + std::to_string(p), 1 + p % 3));
    }
    for (int c = 0; c < 6; ++c) {
      terms.push_back(symbols.InternConstant("c" + std::to_string(c)));
    }
  }

  Atom RandomAtom(Rng& rng) const {
    const PredicateId pred = rng.Choose(predicates);
    std::vector<TermId> args;
    for (int a = 0; a < symbols.predicate_arity(pred); ++a) {
      args.push_back(rng.Choose(terms));
    }
    return Atom(pred, std::move(args));
  }

  // One random mutation applied to both the fact base and the model.
  void Step(FactBase& facts, IndexModel& model, Rng& rng) {
    std::vector<AtomId> live;
    for (AtomId id = 0; id < model.atoms.size(); ++id) {
      if (model.alive[id]) live.push_back(id);
    }
    const size_t op = rng.UniformIndex(4);
    if (op == 0 || live.empty()) {
      const Atom atom = RandomAtom(rng);
      const AtomId id = facts.Add(atom);
      ASSERT_EQ(id, model.atoms.size());
      model.atoms.push_back(atom);
      model.alive.push_back(true);
    } else if (op == 1 || op == 2) {  // rewrites dominate, like repairs
      const AtomId id = live[rng.UniformIndex(live.size())];
      const int pos = static_cast<int>(
          rng.UniformIndex(model.atoms[id].args.size()));
      const TermId value = rng.Choose(terms);
      facts.SetArg(id, pos, value);
      model.atoms[id].args[static_cast<size_t>(pos)] = value;
    } else {
      const AtomId id = live[rng.UniformIndex(live.size())];
      facts.Remove(id);
      model.alive[id] = false;
    }
  }
};

class FactBaseIndexProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FactBaseIndexProperty, PlainBaseMatchesNaiveRescan) {
  RandomOpsFixture fixture;
  Rng rng(GetParam() * 977 + 11);
  FactBase facts;
  IndexModel model;
  for (int op = 0; op < 120; ++op) {
    SCOPED_TRACE("op " + std::to_string(op));
    fixture.Step(facts, model, rng);
    if (op % 10 == 9) {
      CheckIndexesAgainstModel(facts, model, fixture.predicates,
                               fixture.terms, fixture.symbols);
    }
  }
  CheckIndexesAgainstModel(facts, model, fixture.predicates, fixture.terms,
                           fixture.symbols);
}

TEST_P(FactBaseIndexProperty, ForkedOverlayMatchesNaiveRescan) {
  RandomOpsFixture fixture;
  Rng rng(GetParam() * 1009 + 3);

  // Build a shared base, freeze it, then mutate a fork: every index
  // answer must shadow the frozen posting lists correctly.
  FactBase base;
  IndexModel model;
  for (int i = 0; i < 40; ++i) {
    const Atom atom = fixture.RandomAtom(rng);
    base.Add(atom);
    model.atoms.push_back(atom);
    model.alive.push_back(true);
  }
  base.FreezeSharedBase();
  ASSERT_TRUE(base.has_shared_base());

  FactBase fork = base;  // O(delta) copy sharing the frozen segment
  IndexModel fork_model = model;
  for (int op = 0; op < 120; ++op) {
    SCOPED_TRACE("op " + std::to_string(op));
    fixture.Step(fork, fork_model, rng);
    if (op % 10 == 9) {
      CheckIndexesAgainstModel(fork, fork_model, fixture.predicates,
                               fixture.terms, fixture.symbols);
    }
  }
  CheckIndexesAgainstModel(fork, fork_model, fixture.predicates,
                           fixture.terms, fixture.symbols);

  // The frozen base never saw any of it.
  CheckIndexesAgainstModel(base, model, fixture.predicates, fixture.terms,
                           fixture.symbols);
}

TEST_P(FactBaseIndexProperty, SiblingForksAreIndependent) {
  RandomOpsFixture fixture;
  Rng rng(GetParam() * 31 + 7);

  FactBase base;
  IndexModel model;
  for (int i = 0; i < 30; ++i) {
    const Atom atom = fixture.RandomAtom(rng);
    base.Add(atom);
    model.atoms.push_back(atom);
    model.alive.push_back(true);
  }
  base.FreezeSharedBase();

  FactBase fork_a = base;
  FactBase fork_b = base;
  IndexModel model_a = model;
  IndexModel model_b = model;
  // Interleave divergent mutations; neither fork may observe the other.
  Rng rng_a(GetParam() * 53 + 1);
  Rng rng_b(GetParam() * 71 + 2);
  for (int op = 0; op < 60; ++op) {
    SCOPED_TRACE("op " + std::to_string(op));
    fixture.Step(fork_a, model_a, rng_a);
    fixture.Step(fork_b, model_b, rng_b);
  }
  CheckIndexesAgainstModel(fork_a, model_a, fixture.predicates,
                           fixture.terms, fixture.symbols);
  CheckIndexesAgainstModel(fork_b, model_b, fixture.predicates,
                           fixture.terms, fixture.symbols);
  CheckIndexesAgainstModel(base, model, fixture.predicates, fixture.terms,
                           fixture.symbols);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FactBaseIndexProperty,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u));

// Freezing flattens posting lists into the columnar base; reads must
// return the exact same id sequences before and after (candidate
// enumeration order is observable in chase transcripts).
TEST_F(FactBaseTest, FreezePreservesPostingListOrder) {
  facts_.Add(Atom(p_, {a_, b_}));
  facts_.Add(Atom(q_, {a_, b_, c_}));
  facts_.Add(Atom(p_, {a_, c_}));
  facts_.Add(Atom(p_, {b_, a_}));

  const AtomSpan pred_before = facts_.AtomsWithPredicate(p_);
  const std::vector<AtomId> pred_order(pred_before.begin(),
                                       pred_before.end());
  const AtomSpan probe_before = facts_.AtomsWithTermAt(p_, 0, a_);
  const std::vector<AtomId> probe_order(probe_before.begin(),
                                        probe_before.end());

  facts_.FreezeSharedBase();
  ASSERT_TRUE(facts_.has_shared_base());
  EXPECT_EQ(facts_.overlay_size(), 0u);

  const AtomSpan pred_after = facts_.AtomsWithPredicate(p_);
  EXPECT_EQ(std::vector<AtomId>(pred_after.begin(), pred_after.end()),
            pred_order);
  const AtomSpan probe_after = facts_.AtomsWithTermAt(p_, 0, a_);
  EXPECT_EQ(std::vector<AtomId>(probe_after.begin(), probe_after.end()),
            probe_order);

  // A fork's first mutation shadows the frozen slice without disturbing
  // the prototype's columns.
  FactBase fork = facts_;
  fork.SetArg(0, 0, c_);
  const AtomSpan base_probe = facts_.AtomsWithTermAt(p_, 0, a_);
  EXPECT_EQ(std::vector<AtomId>(base_probe.begin(), base_probe.end()),
            probe_order);
  EXPECT_EQ(fork.AtomsWithTermAt(p_, 0, c_).size(), 1u);
  EXPECT_EQ(fork.AtomsWithTermAt(p_, 0, a_).size(), 1u);
}

TEST_F(FactBaseTest, RewriteRoundTripLeavesNoEmptyPostingLists) {
  facts_.Add(Atom(p_, {a_, b_}));
  facts_.Add(Atom(p_, {a_, c_}));
  facts_.Add(Atom(q_, {a_, b_, c_}));
  const TermId d = symbols_.InternConstant("d");
  const size_t overlay = facts_.overlay_size();
  const std::string rendered = facts_.ToString(symbols_);

  // b -> d -> b: the (p, 1, d) list exists only in between.
  facts_.SetArg(0, 1, d);
  facts_.SetArg(0, 1, b_);
  EXPECT_EQ(facts_.overlay_size(), overlay);
  EXPECT_EQ(facts_.ToString(symbols_), rendered);
  EXPECT_TRUE(facts_.AtomsWithTermAt(p_, 1, d).empty());
  EXPECT_EQ(facts_.TermUseCount(d), 0u);
  const AtomSpan at_b = facts_.AtomsWithTermAt(p_, 1, b_);
  EXPECT_EQ(std::vector<AtomId>(at_b.begin(), at_b.end()),
            std::vector<AtomId>{0});
}

TEST_F(FactBaseTest, AddRemoveChurnLeavesNoEmptyPostingLists) {
  facts_.Add(Atom(p_, {a_, b_}));
  facts_.Add(Atom(p_, {a_, c_}));
  const TermId d = symbols_.InternConstant("d");
  const TermId e = symbols_.InternConstant("e");
  const size_t overlay = facts_.overlay_size();
  const std::string rendered = facts_.ToString(symbols_);
  const AtomSpan pred_before = facts_.AtomsWithPredicate(p_);
  const std::vector<AtomId> pred_order(pred_before.begin(),
                                       pred_before.end());

  constexpr size_t kRounds = 8;
  for (size_t round = 0; round < kRounds; ++round) {
    facts_.Remove(facts_.Add(Atom(p_, {d, e})));
  }
  // Ids are never recycled, so the atom column grows by the churned
  // atoms; every posting list and use count they created is gone again.
  EXPECT_EQ(facts_.overlay_size(), overlay + kRounds);
  EXPECT_EQ(facts_.ToString(symbols_), rendered);
  EXPECT_TRUE(facts_.AtomsWithTermAt(p_, 0, d).empty());
  EXPECT_TRUE(facts_.AtomsWithTermAt(p_, 1, e).empty());
  const AtomSpan pred_after = facts_.AtomsWithPredicate(p_);
  EXPECT_EQ(std::vector<AtomId>(pred_after.begin(), pred_after.end()),
            pred_order);
}

TEST(AtomTest, EqualityAndHash) {
  SymbolTable symbols;
  const PredicateId p = symbols.InternPredicate("p", 2);
  const TermId a = symbols.InternConstant("a");
  const TermId b = symbols.InternConstant("b");
  const Atom x(p, {a, b});
  const Atom y(p, {a, b});
  const Atom z(p, {b, a});
  EXPECT_EQ(x, y);
  EXPECT_NE(x, z);
  AtomHash hash;
  EXPECT_EQ(hash(x), hash(y));
}

TEST(AtomTest, SubstituteTerms) {
  SymbolTable symbols;
  const PredicateId p = symbols.InternPredicate("p", 2);
  const TermId x = symbols.InternVariable("X");
  const TermId a = symbols.InternConstant("a");
  const TermId b = symbols.InternConstant("b");
  const Atom atom(p, {x, b});
  const Atom mapped =
      SubstituteTerms(atom, std::vector<Binding>{{x, a}});
  EXPECT_EQ(mapped, Atom(p, {a, b}));
  // Unmapped terms pass through.
  const Atom unchanged =
      SubstituteTerms(atom, std::vector<Binding>{{a, b}});
  EXPECT_EQ(unchanged, atom);
}

}  // namespace
}  // namespace kbrepair
