#include "kb/symbol_table.h"

#include <gtest/gtest.h>

#include <memory>

namespace kbrepair {
namespace {

TEST(SymbolTableTest, InternTermIsIdempotent) {
  SymbolTable symbols;
  const TermId a = symbols.InternConstant("aspirin");
  const TermId b = symbols.InternConstant("aspirin");
  EXPECT_EQ(a, b);
  EXPECT_EQ(symbols.num_terms(), 1u);
}

TEST(SymbolTableTest, SameNameDifferentKindsAreDistinct) {
  SymbolTable symbols;
  const TermId constant = symbols.InternConstant("X");
  const TermId variable = symbols.InternVariable("X");
  const TermId null = symbols.InternNull("X");
  EXPECT_NE(constant, variable);
  EXPECT_NE(variable, null);
  EXPECT_NE(constant, null);
  EXPECT_TRUE(symbols.IsConstant(constant));
  EXPECT_TRUE(symbols.IsVariable(variable));
  EXPECT_TRUE(symbols.IsNull(null));
}

TEST(SymbolTableTest, NamesRoundTrip) {
  SymbolTable symbols;
  const TermId id = symbols.InternConstant("john");
  EXPECT_EQ(symbols.term_name(id), "john");
  EXPECT_EQ(symbols.term_kind(id), TermKind::kConstant);
}

TEST(SymbolTableTest, FindTermReturnsInvalidWhenAbsent) {
  SymbolTable symbols;
  EXPECT_EQ(symbols.FindTerm(TermKind::kConstant, "ghost"), kInvalidTerm);
  symbols.InternConstant("ghost");
  EXPECT_NE(symbols.FindTerm(TermKind::kConstant, "ghost"), kInvalidTerm);
  // Other kinds still absent.
  EXPECT_EQ(symbols.FindTerm(TermKind::kVariable, "ghost"), kInvalidTerm);
}

TEST(SymbolTableTest, FreshNullsAreDistinct) {
  SymbolTable symbols;
  const TermId n1 = symbols.MakeFreshNull();
  const TermId n2 = symbols.MakeFreshNull();
  EXPECT_NE(n1, n2);
  EXPECT_TRUE(symbols.IsNull(n1));
  EXPECT_TRUE(symbols.IsNull(n2));
}

TEST(SymbolTableTest, FreshNullAvoidsUserClaimedNames) {
  SymbolTable symbols;
  symbols.InternNull("_N1");  // user grabbed the first generated name
  const TermId fresh = symbols.MakeFreshNull();
  EXPECT_NE(symbols.term_name(fresh), "_N1");
}

TEST(SymbolTableTest, ScratchNullsAreAnonymousAndAppendInOrder) {
  SymbolTable symbols;
  const TermId user = symbols.InternNull("_S1");  // a user fact null
  const TermId s1 = symbols.ScratchNull(1);        // mints #0 and #1
  const TermId s0 = symbols.ScratchNull(0);
  EXPECT_NE(s1, user);
  EXPECT_EQ(s0, user + 1);
  EXPECT_EQ(s1, user + 2);
  EXPECT_EQ(symbols.ScratchNull(1), s1);  // stable
  EXPECT_TRUE(symbols.IsNull(s1));
  EXPECT_EQ(symbols.term_name(s0), "_S0");
  EXPECT_EQ(symbols.term_name(s1), "_S1");
  // Pool entries never enter the name index.
  EXPECT_EQ(symbols.FindTerm(TermKind::kNull, "_S1"), user);
  EXPECT_EQ(symbols.FindTerm(TermKind::kNull, "_S0"), kInvalidTerm);
  EXPECT_EQ(symbols.InternNull("_S0"), static_cast<TermId>(3));
}

TEST(SymbolTableTest, ScratchNullPoolIsSharedByForksAndClones) {
  SymbolTable base;
  base.InternConstant("a");
  const TermId s2 = base.ScratchNull(2);
  base.FreezeSharedBase();

  SymbolTable fork;
  fork.ForkFrom(base);
  const size_t terms = fork.num_terms();
  EXPECT_EQ(fork.ScratchNull(2), s2);
  EXPECT_EQ(fork.ScratchNull(0), base.ScratchNull(0));
  EXPECT_EQ(fork.num_terms(), terms);
  EXPECT_EQ(fork.overlay_size(), 0u);

  // Growing a fork's pool stays private to the fork.
  const TermId s3 = fork.ScratchNull(3);
  EXPECT_EQ(s3, static_cast<TermId>(terms));
  EXPECT_EQ(base.num_terms(), terms);

  std::unique_ptr<SymbolTable> clone = fork.Clone();
  EXPECT_EQ(clone->ScratchNull(3), s3);
  EXPECT_EQ(clone->num_terms(), fork.num_terms());
}

TEST(SymbolTableTest, FreshVariablesAreDistinct) {
  SymbolTable symbols;
  EXPECT_NE(symbols.MakeFreshVariable(), symbols.MakeFreshVariable());
}

TEST(SymbolTableTest, InternPredicateIsIdempotent) {
  SymbolTable symbols;
  const PredicateId p1 = symbols.InternPredicate("prescribed", 2);
  const PredicateId p2 = symbols.InternPredicate("prescribed", 2);
  EXPECT_EQ(p1, p2);
  EXPECT_EQ(symbols.predicate_name(p1), "prescribed");
  EXPECT_EQ(symbols.predicate_arity(p1), 2);
}

TEST(SymbolTableTest, FindPredicate) {
  SymbolTable symbols;
  EXPECT_EQ(symbols.FindPredicate("nope"), kInvalidPredicate);
  const PredicateId p = symbols.InternPredicate("soil", 1);
  EXPECT_EQ(symbols.FindPredicate("soil"), p);
}

TEST(SymbolTableDeathTest, ArityMismatchAborts) {
  SymbolTable symbols;
  symbols.InternPredicate("p", 2);
  EXPECT_DEATH(symbols.InternPredicate("p", 3), "arity");
}

}  // namespace
}  // namespace kbrepair
