// Parser and printer for a DLGP-flavoured text syntax for knowledge bases
// (facts, TGDs, CDDs), close to the format used by the GRAAL toolchain the
// paper builds on.
//
// Syntax, one statement per '.':
//
//   % a comment, to end of line
//   prescribed(aspirin, john).                   % a fact
//   hasAllergy(john, _N1).                       % fact with a labeled null
//   prescribed(X,Z) :- painKiller(X,Y), pain(Z,Y).  % TGD: head :- body
//   ! :- prescribed(X,Y), hasAllergy(Y,X).          % CDD: ! :- body
//   ! :- p(X,Y), q(Z,W), X = Z.                     % CDD with equality
//
// Term conventions:
//   * in rule/constraint context, an identifier starting with an
//     uppercase letter is a variable; anything else is a constant;
//   * in fact context there are no variables: identifiers starting with
//     '_' are labeled nulls, everything else is a constant;
//   * a double-quoted string is always a constant ("Aspirin" lets an
//     uppercase-initial constant appear inside a rule).

#ifndef KBREPAIR_PARSER_DLGP_PARSER_H_
#define KBREPAIR_PARSER_DLGP_PARSER_H_

#include <string>

#include "rules/knowledge_base.h"
#include "util/status.h"

namespace kbrepair {

// Parses `text` into a fresh KnowledgeBase. Errors carry 1-based line
// numbers, plus the column for lexical and syntax errors; the first
// lexical error wins over any syntax error, which wins over any
// resolution error (e.g. an arity clash). The result is syntactically
// validated but Validate() (weak acyclicity etc.) is left to the caller.
StatusOr<KnowledgeBase> ParseDlgp(const std::string& text);

// Parses `text` and appends to an existing KnowledgeBase (same syntax).
// Statements are resolved into `kb` as they are read, so after an error
// `kb` may hold a prefix of the statements (and symbols interned by the
// statement that failed to resolve). ParseDlgp is unaffected: it
// discards its KB on error.
Status ParseDlgpInto(const std::string& text, KnowledgeBase& kb);

// Serializes a KnowledgeBase back to the syntax above. Round-trips with
// ParseDlgp (modulo whitespace).
std::string PrintDlgp(const KnowledgeBase& kb);

// Reads and parses a DLGP file. NotFound if the file cannot be read.
StatusOr<KnowledgeBase> LoadDlgpFile(const std::string& path);

// Serializes and writes a KnowledgeBase to a file.
Status SaveDlgpFile(const KnowledgeBase& kb, const std::string& path);

}  // namespace kbrepair

#endif  // KBREPAIR_PARSER_DLGP_PARSER_H_
