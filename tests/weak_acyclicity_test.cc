#include "rules/weak_acyclicity.h"

#include <map>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "parser/dlgp_parser.h"
#include "util/rng.h"

namespace kbrepair {
namespace {

class WeakAcyclicityTest : public ::testing::Test {
 protected:
  WeakAcyclicityTest() {
    p_ = symbols_.InternPredicate("p", 2);
    q_ = symbols_.InternPredicate("q", 2);
    r_ = symbols_.InternPredicate("r", 2);
    x_ = symbols_.InternVariable("X");
    y_ = symbols_.InternVariable("Y");
    z_ = symbols_.InternVariable("Z");
  }

  Tgd MakeTgd(std::vector<Atom> body, std::vector<Atom> head) {
    StatusOr<Tgd> tgd =
        Tgd::Create(std::move(body), std::move(head), symbols_);
    EXPECT_TRUE(tgd.ok()) << tgd.status();
    return std::move(tgd).value();
  }

  SymbolTable symbols_;
  PredicateId p_, q_, r_;
  TermId x_, y_, z_;
};

TEST_F(WeakAcyclicityTest, EmptySetIsWeaklyAcyclic) {
  EXPECT_TRUE(IsWeaklyAcyclic({}, symbols_));
}

TEST_F(WeakAcyclicityTest, FullTgdsAlwaysWeaklyAcyclic) {
  // No existentials, no special edges: p -> q -> p is fine.
  std::vector<Tgd> tgds;
  tgds.push_back(MakeTgd({Atom(p_, {x_, y_})}, {Atom(q_, {x_, y_})}));
  tgds.push_back(MakeTgd({Atom(q_, {x_, y_})}, {Atom(p_, {y_, x_})}));
  EXPECT_TRUE(IsWeaklyAcyclic(tgds, symbols_));
}

TEST_F(WeakAcyclicityTest, SelfFeedingExistentialIsRejected) {
  // p(X,Y) -> p(Y,Z): special edge into p's positions which feed back.
  std::vector<Tgd> tgds;
  tgds.push_back(MakeTgd({Atom(p_, {x_, y_})}, {Atom(p_, {y_, z_})}));
  EXPECT_FALSE(IsWeaklyAcyclic(tgds, symbols_));
}

TEST_F(WeakAcyclicityTest, ExistentialIntoFreshPredicateIsAccepted) {
  // p(X,Y) -> q(Y,Z): special edge ends in q, which feeds nothing.
  std::vector<Tgd> tgds;
  tgds.push_back(MakeTgd({Atom(p_, {x_, y_})}, {Atom(q_, {y_, z_})}));
  EXPECT_TRUE(IsWeaklyAcyclic(tgds, symbols_));
}

TEST_F(WeakAcyclicityTest, TwoRuleExistentialCycleIsRejected) {
  // p(X,Y) -> q(Y,Z) and q(X,Y) -> p(Y,Z): the classic ping-pong.
  std::vector<Tgd> tgds;
  tgds.push_back(MakeTgd({Atom(p_, {x_, y_})}, {Atom(q_, {y_, z_})}));
  tgds.push_back(MakeTgd({Atom(q_, {x_, y_})}, {Atom(p_, {y_, z_})}));
  EXPECT_FALSE(IsWeaklyAcyclic(tgds, symbols_));
}

TEST_F(WeakAcyclicityTest, LayeredExistentialChainIsAccepted) {
  // p -> q -> r with existentials, strictly layered: fine.
  std::vector<Tgd> tgds;
  tgds.push_back(MakeTgd({Atom(p_, {x_, y_})}, {Atom(q_, {y_, z_})}));
  tgds.push_back(MakeTgd({Atom(q_, {x_, y_})}, {Atom(r_, {y_, z_})}));
  EXPECT_TRUE(IsWeaklyAcyclic(tgds, symbols_));
}

TEST_F(WeakAcyclicityTest, RegularCycleWithoutSpecialEdgeIsAccepted) {
  // p(X,Y) -> q(X,Z) and q(X,Y) -> p(X,Y): the regular cycle
  // p.1 -> q.1 -> p.1 contains no special edge, and the special edge
  // p.1 *-> q.2 ends in q.2 -> p.2, a dead end (Y of the first rule does
  // not reach its head). Weakly acyclic: the restricted chase saturates.
  std::vector<Tgd> tgds;
  tgds.push_back(MakeTgd({Atom(p_, {x_, y_})}, {Atom(q_, {x_, z_})}));
  tgds.push_back(MakeTgd({Atom(q_, {x_, y_})}, {Atom(p_, {x_, y_})}));
  EXPECT_TRUE(IsWeaklyAcyclic(tgds, symbols_));
}

TEST_F(WeakAcyclicityTest, SpecialEdgeOnCycleIsRejected) {
  // p(X,Y) -> q(X,Z) and q(X,Y) -> p(Y,X): now q.2 feeds p.1, which is
  // on the special edge's source side — the null flows back into the
  // position that generates nulls: rejected.
  std::vector<Tgd> tgds;
  tgds.push_back(MakeTgd({Atom(p_, {x_, y_})}, {Atom(q_, {x_, z_})}));
  tgds.push_back(MakeTgd({Atom(q_, {x_, y_})}, {Atom(p_, {y_, x_})}));
  EXPECT_FALSE(IsWeaklyAcyclic(tgds, symbols_));
}

TEST_F(WeakAcyclicityTest, CheckWeaklyAcyclicReturnsStatus) {
  std::vector<Tgd> bad;
  bad.push_back(MakeTgd({Atom(p_, {x_, y_})}, {Atom(p_, {y_, z_})}));
  const Status status = CheckWeaklyAcyclic(bad, symbols_);
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(CheckWeaklyAcyclic({}, symbols_).ok());
}

TEST_F(WeakAcyclicityTest, BodyOnlyVariablesCreateNoEdges) {
  // p(X,Y) -> q(X,X): Y is dropped; only X's positions matter.
  std::vector<Tgd> tgds;
  tgds.push_back(MakeTgd({Atom(p_, {x_, y_})}, {Atom(q_, {x_, x_})}));
  EXPECT_TRUE(IsWeaklyAcyclic(tgds, symbols_));
}

TEST(WeakAcyclicityRegressionTest, WideHeadAtomValidates) {
  // a(X, c1, ..., c255, Y) :- b(X). Y is existential at a's position 256,
  // fed from b's position 0, and nothing flows back: weakly acyclic.
  // Nodes keyed by (predicate << 8) | position once merged (a, 256) with
  // (b, 0), turning the special edge into a self-loop.
  std::string text = "a(X";
  for (int i = 1; i <= 255; ++i) {
    text += ", c";
    text += std::to_string(i);
  }
  text += ", Y) :- b(X).";
  StatusOr<KnowledgeBase> kb = ParseDlgp(text);
  ASSERT_TRUE(kb.ok()) << kb.status();
  ASSERT_EQ(kb->symbols().predicate_arity(kb->tgds()[0].head()[0].predicate),
            257);
  EXPECT_TRUE(IsWeaklyAcyclic(kb->tgds(), kb->symbols()));
  EXPECT_TRUE(kb->Validate().ok());
}

// Weak acyclicity straight from its definition: build the position graph
// as an adjacency matrix, close it transitively, and reject when some
// special edge u -> v has v reaching u.
bool BruteForceWeaklyAcyclic(const std::vector<Tgd>& tgds,
                             const SymbolTable& symbols) {
  std::map<std::pair<PredicateId, int>, size_t> ids;
  auto node = [&ids](PredicateId pred, int pos) {
    return ids.emplace(std::make_pair(pred, pos), ids.size()).first->second;
  };
  std::vector<std::pair<size_t, size_t>> regular;
  std::vector<std::pair<size_t, size_t>> special;
  for (const Tgd& tgd : tgds) {
    auto occurs_in = [&symbols](const std::vector<Atom>& atoms, TermId t) {
      for (const Atom& atom : atoms) {
        for (TermId arg : atom.args) {
          if (arg == t && symbols.IsVariable(t)) return true;
        }
      }
      return false;
    };
    for (const Atom& b : tgd.body()) {
      for (int i = 0; i < b.arity(); ++i) {
        const TermId x = b.args[static_cast<size_t>(i)];
        if (!symbols.IsVariable(x) || !occurs_in(tgd.head(), x)) continue;
        for (const Atom& h : tgd.head()) {
          for (int j = 0; j < h.arity(); ++j) {
            const TermId y = h.args[static_cast<size_t>(j)];
            if (y == x) {
              regular.emplace_back(node(b.predicate, i), node(h.predicate, j));
            } else if (symbols.IsVariable(y) && !occurs_in(tgd.body(), y)) {
              special.emplace_back(node(b.predicate, i), node(h.predicate, j));
            }
          }
        }
      }
    }
  }
  const size_t n = ids.size();
  std::vector<std::vector<bool>> reach(n, std::vector<bool>(n, false));
  for (const auto& [from, to] : regular) reach[from][to] = true;
  for (const auto& [from, to] : special) reach[from][to] = true;
  for (size_t k = 0; k < n; ++k) {
    for (size_t i = 0; i < n; ++i) {
      if (!reach[i][k]) continue;
      for (size_t j = 0; j < n; ++j) {
        if (reach[k][j]) reach[i][j] = true;
      }
    }
  }
  for (const auto& [from, to] : special) {
    if (reach[to][from]) return false;
  }
  return true;
}

TEST(WeakAcyclicityDifferentialTest, AgreesWithBruteForceOnRandomSets) {
  Rng rng(20180326);
  size_t acyclic = 0;
  size_t cyclic = 0;
  for (int round = 0; round < 400; ++round) {
    SymbolTable symbols;
    std::vector<PredicateId> predicates;
    const int num_predicates = static_cast<int>(rng.UniformInt(1, 4));
    for (int p = 0; p < num_predicates; ++p) {
      std::string name = "p";
      name += std::to_string(p);
      predicates.push_back(symbols.InternPredicate(
          name, static_cast<int>(rng.UniformInt(1, 3))));
    }
    std::vector<TermId> terms;
    for (const char* name : {"X", "Y", "Z", "W"}) {
      terms.push_back(symbols.InternVariable(name));
    }
    terms.push_back(symbols.InternConstant("c"));
    auto random_atoms = [&](int count) {
      std::vector<Atom> atoms;
      for (int a = 0; a < count; ++a) {
        const PredicateId pred = rng.Choose(predicates);
        Atom atom;
        atom.predicate = pred;
        for (int i = 0; i < symbols.predicate_arity(pred); ++i) {
          atom.args.push_back(rng.Choose(terms));
        }
        atoms.push_back(std::move(atom));
      }
      return atoms;
    };
    std::vector<Tgd> tgds;
    const int num_tgds = static_cast<int>(rng.UniformInt(1, 6));
    for (int r = 0; r < num_tgds; ++r) {
      StatusOr<Tgd> tgd =
          Tgd::Create(random_atoms(static_cast<int>(rng.UniformInt(1, 2))),
                      random_atoms(static_cast<int>(rng.UniformInt(1, 2))),
                      symbols);
      ASSERT_TRUE(tgd.ok()) << tgd.status();
      tgds.push_back(std::move(tgd).value());
    }
    const bool expected = BruteForceWeaklyAcyclic(tgds, symbols);
    ASSERT_EQ(IsWeaklyAcyclic(tgds, symbols), expected) << "round " << round;
    ++(expected ? acyclic : cyclic);
  }
  // Both verdicts are exercised.
  EXPECT_GT(acyclic, 50u);
  EXPECT_GT(cyclic, 50u);
}

}  // namespace
}  // namespace kbrepair
