// Writes the golden record of DLGP parser outcomes that
// parser_golden_test checks (format: tests/dlgp_corpus.h). Run it only
// for a deliberate change of parser output, from the source root:
//
//   ./build/tests/parser_golden_record > tests/data/parser_golden.txt
//
// Base inputs are data/*.dlgp, small KBs of each kbbench workload
// shape, a hand-written feature KB and edge cases; mutants are seeded
// token-level edits of the non-edge bases.

#include <iostream>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "dlgp_corpus.h"
#include "gen/synthetic.h"
#include "parser/dlgp_parser.h"
#include "util/logging.h"
#include "util/rng.h"

namespace kbrepair {
namespace {

using corpus::GoldenInput;
using corpus::GoldenMutant;
using corpus::GoldenRecord;

// Small KBs of each kbbench workload's generator shape (kbbench/src):
// the same options, scaled down so the record stays reviewable.
std::vector<std::pair<std::string, std::string>> WorkloadShapes() {
  std::vector<std::pair<std::string, std::string>> shapes;
  SyntheticKbOptions fig5;
  fig5.seed = 1;
  fig5.num_facts = 60;
  fig5.inconsistency_ratio = 0.3;
  fig5.num_cdds = 6;
  fig5.cdd_min_atoms = 2;
  fig5.cdd_max_atoms = 4;
  fig5.min_arity = 2;
  fig5.max_arity = 6;
  fig5.min_multiplicity = 1;
  fig5.max_multiplicity = 2;
  SyntheticKbOptions deep;
  deep.seed = 2;
  deep.num_facts = 60;
  deep.inconsistency_ratio = 0.15;
  deep.num_cdds = 6;
  deep.cdd_min_atoms = 2;
  deep.cdd_max_atoms = 3;
  deep.min_arity = 2;
  deep.max_arity = 4;
  deep.min_multiplicity = 1;
  deep.max_multiplicity = 2;
  deep.num_tgds = 8;
  deep.conflict_depth = 4;
  deep.routed_violation_share = 0.8;
  deep.num_noise_tgds = 12;
  deep.noise_tgd_fire_share = 1.0;
  SyntheticKbOptions service;
  service.seed = 3;
  service.num_facts = 60;
  service.inconsistency_ratio = 0.05;
  service.num_cdds = 4;
  service.cdd_min_atoms = 2;
  service.cdd_max_atoms = 2;
  service.min_multiplicity = 1;
  service.max_multiplicity = 1;
  service.min_arity = 2;
  service.max_arity = 4;
  for (const auto& [name, options] :
       {std::make_pair("shape/fig5-scratch", fig5),
        std::make_pair("shape/deep-chase-incremental", deep),
        std::make_pair("shape/service-mixed", service)}) {
    StatusOr<SyntheticKb> generated = GenerateSyntheticKb(options);
    KBREPAIR_CHECK(generated.ok()) << generated.status();
    shapes.emplace_back(name, PrintDlgp(generated->kb));
  }
  return shapes;
}

// A hand-written base for mutation covering what the generated KBs do
// not: quoted constants, labeled nulls, equalities, multi-atom heads,
// existentials and comments between tokens.
const char kFeatures[] =
    "% features\n"
    "prescribed(aspirin, \"John Doe\"). hasAllergy(\"John Doe\", _N1).\n"
    "likes(X, Y), knows(Y, Z) :- friend(X, Y). % existential Z\n"
    "[eq] ! :- likes(X, Y), knows(Z, W), Y = Z, W = \"Anne\".\n"
    "[c2] ! :- prescribed(X, Y), hasAllergy(Y, X).\n"
    "friend(a-1, b/2). friend(\n  c, % mid-atom comment\n  d).\n";

// Hand-written inputs: every diagnostic the parser can emit, the
// precedence between lexical, syntax and resolution errors, and the
// accepted corner cases of the syntax.
const char* const kEdgeCases[] = {
    "",
    "% only a comment",
    "p(a, b). q(c).",
    "p(a, b). p(a, b). p(a, b).",
    "wide(a,b,c,d,e,f,g,h,i,j,k,l,m,n,o,p).",
    "p(\"Aspirin\", \"durum wheat\").",
    "p(a, _N1). q(_N1, _N2).",
    "% leading\np(a, b). % trailing\n% full line\nq(c).",
    "p(a, b). q(X, Z) :- p(X, Y). ! :- p(X, Y), q(Y, X).",
    "h1(X, Y), h2(Y, X) :- b(X, Y). b(c, d).",
    "! :- p(X, Y), q(Z, W), Y = Z. p(a, b). q(b, c).",
    "! :- p(X, Y), q(Y, Z), X = Z, Z = \"A\".",
    "  p(  a ,\tb )\n.\n\n q(c)  .",
    "p(Aspirin, John).",
    "p(a, b), q(c). r(d).",
    "[r1] q(X, Z) :- p(X, Y). [c1] ! :- q(X, Y), p(Y, X).",
    "q(X, _Y) :- p(X). q(_a, b).",
    "p(\"\"). p(\"a b\"). p(\"X\").",
    "p(a) :- q(a).",
    "p(a)\r\n.\r\n",
    "! :- p(X).",
    "p(Y, Z) :- p(X, Y).",
    "a-b/c(d-e, f/g). _p(_x).",
    "Q(x) :- P(x).",
    // Lexical errors.
    "\"unterminated(a).",
    "p(a, \"b).",
    "p(a, \"b\nc\").",
    "p(a) : q.",
    "p(a). :",
    "p(a). @",
    "p(a). \x01",
    "p(\xc3\xa9).",
    "p(a).\n  q(b).\x7f",
    // Syntax errors.
    "p", "p(", "p(a", "p(a,", "p(a, b", "p(a, b)", "q(X) :-",
    "q(X) :- p(X, Y", "! :-", "! :- p(X, Y)", "p(a,, b).", "p().",
    "(a, b).", "p(a) q(b).", ".", "p(a, b)..", "[ ] p(a).", "[lbl p(a).",
    "[lbl]", "! q(X).", "!", "\"P\"(a).", "foo bar.", "p(a) :- .",
    "p(a) :- q(a) :- r(a).", "X = .", "p(X) :- q(X), X =", "= a.",
    "p(a)\n\n  , .",
    // Resolution errors.
    "p(a). p(a, b). p(a, b, c).",
    "[l] p(a).",
    "\n[l]\n p(a).",
    "X = a.",
    "\"a\" = b.",
    "p(X) :- q(X), X = a.",
    "p(X), X = Y :- q(X).",
    "! :- p(X, Y), a = b.",
    "! :- p(X, Y), \"A\" = \"B\".",
    "q(a). q(X, Y) :- q(X).",
    "p(a).\nq(X) :-\n  p(X,\n Y).",
    "p(X) :-\n q(X),\n X = a.",
    // Precedence: lexical > syntax > resolution, whatever the order.
    "p(a). p(a, b). q(",
    "p(a, b. q(c). @",
    "p(a). p(a, b). @",
    "p(a).\np(a,b).\n\"unterminated",
    "p(a.\n q(b). \x02",
    "p(a). p(a,b). q(.",
    "[l] p(a). X = a. p(a, b).",
    "! :- p(X), a = b. p(a, b). p(c).",
};

GoldenRecord MakeRecord() {
  GoldenRecord record;
  for (const char* file : {"data/durum_excerpt.dlgp", "data/hospital.dlgp"}) {
    const std::string text =
        corpus::ReadFile(std::string(KBREPAIR_SOURCE_DIR) + "/" + file);
    KBREPAIR_CHECK(!text.empty()) << "cannot read " << file;
    record.inputs.push_back({file, text, ""});
  }
  for (auto& [name, text] : WorkloadShapes()) {
    record.inputs.push_back({name, text, ""});
  }
  record.inputs.push_back({"features", kFeatures, ""});
  const size_t num_bases = record.inputs.size();
  for (size_t i = 0; i < std::size(kEdgeCases); ++i) {
    record.inputs.push_back({corpus::Num("edge/", i), kEdgeCases[i], ""});
  }
  for (GoldenInput& input : record.inputs) {
    input.outcome = corpus::Outcome(ParseDlgp(input.text));
  }
  Rng rng(20181004);
  constexpr size_t kMutantsPerBase = 90;
  for (size_t b = 0; b < num_bases; ++b) {
    const GoldenInput& base = record.inputs[b];
    for (size_t k = 0; k < kMutantsPerBase; ++k) {
      GoldenMutant mutant;
      mutant.base = base.name;
      mutant.mutation = corpus::RandomMutation(base.text, rng);
      mutant.outcome = corpus::ShortOutcome(
          ParseDlgp(corpus::ApplyMutation(base.text, mutant.mutation)));
      record.mutants.push_back(std::move(mutant));
    }
  }
  return record;
}

}  // namespace
}  // namespace kbrepair

int main() {
  std::cout << kbrepair::corpus::FormatRecord(
      kbrepair::MakeRecord(),
      "# Golden DLGP parser outcomes; see tests/parser_golden_test.cc.\n"
      "# Format: tests/dlgp_corpus.h.\n");
  return std::cout.good() ? 0 : 1;
}
