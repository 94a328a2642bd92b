#include "parser/dlgp_parser.h"

#include <array>
#include <cctype>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string_view>
#include <vector>

namespace kbrepair {

namespace {

enum class TokenKind {
  kIdentifier,
  kQuoted,
  kLeftParen,
  kRightParen,
  kLeftBracket,
  kRightBracket,
  kComma,
  kDot,
  kImplies,  // ":-"
  kBang,     // "!"
  kEquals,   // "="
  kEnd,
  kError,    // a lexical error; Scanner::error() holds it
};

// A token as a view into the input: identifiers as written, quoted
// strings without their quotes.
struct Token {
  TokenKind kind = TokenKind::kEnd;
  std::string_view text;
  int line = 0;
  int column = 0;
};

// Byte classes of the scanner, matching <cctype> in the "C" locale.
enum ByteClass : uint8_t {
  kSpace = 1,       // std::isspace, '\n' excepted
  kIdentStart = 2,  // std::isalnum or '_'
  kIdentRest = 4,   // kIdentStart, '-' or '/'
};

constexpr std::array<uint8_t, 256> MakeByteClasses() {
  std::array<uint8_t, 256> classes{};
  for (int c : {' ', '\t', '\v', '\f', '\r'}) classes[c] = kSpace;
  for (int c = 0; c < 256; ++c) {
    const bool alnum = (c >= '0' && c <= '9') || (c >= 'a' && c <= 'z') ||
                       (c >= 'A' && c <= 'Z');
    if (alnum || c == '_') classes[c] = kIdentStart | kIdentRest;
  }
  classes['-'] = kIdentRest;
  classes['/'] = kIdentRest;
  return classes;
}
constexpr std::array<uint8_t, 256> kByteClasses = MakeByteClasses();

bool HasClass(char c, ByteClass byte_class) {
  return (kByteClasses[static_cast<unsigned char>(c)] & byte_class) != 0;
}

// Renders one input byte for an error message: printable ASCII is shown
// quoted, anything else (control bytes, NUL, UTF-8 lead bytes) as hex so
// the message itself stays printable.
std::string DescribeByte(char c) {
  const unsigned char byte = static_cast<unsigned char>(c);
  if (byte >= 0x20 && byte < 0x7f) {
    return std::string("'") + c + "'";
  }
  static const char kHex[] = "0123456789abcdef";
  std::string out = "byte 0x";
  out += kHex[byte >> 4];
  out += kHex[byte & 0xf];
  return out;
}

std::string Located(int line, int column, const std::string& message) {
  return "line " + std::to_string(line) + ", column " +
         std::to_string(column) + ": " + message;
}

// Hands out tokens on demand, scanning the input in place.
class Scanner {
 public:
  explicit Scanner(std::string_view text) : text_(text) {}

  // The next token. At the first byte that cannot start a token, returns
  // kError from then on and keeps the lexical error in error().
  Token Next() {
    if (!error_.ok()) return Token{TokenKind::kError, {}, line_, Column()};
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      const int column = Column();
      switch (c) {
        case '\n':
          ++line_;
          ++pos_;
          line_start_ = pos_;
          continue;
        case '%':
          while (pos_ < text_.size() && text_[pos_] != '\n') ++pos_;
          continue;
        case '(':
          return Single(TokenKind::kLeftParen, column);
        case ')':
          return Single(TokenKind::kRightParen, column);
        case '[':
          return Single(TokenKind::kLeftBracket, column);
        case ']':
          return Single(TokenKind::kRightBracket, column);
        case ',':
          return Single(TokenKind::kComma, column);
        case '.':
          return Single(TokenKind::kDot, column);
        case '!':
          return Single(TokenKind::kBang, column);
        case '=':
          return Single(TokenKind::kEquals, column);
        case ':':
          if (pos_ + 1 < text_.size() && text_[pos_ + 1] == '-') {
            pos_ += 2;
            return Token{TokenKind::kImplies, text_.substr(pos_ - 2, 2), line_,
                         column};
          }
          return Fail("expected ':-'");
        case '"': {
          const size_t start = ++pos_;
          while (pos_ < text_.size() && text_[pos_] != '"') {
            if (text_[pos_] == '\n') return Fail("unterminated string");
            ++pos_;
          }
          if (pos_ >= text_.size()) return Fail("unterminated string");
          ++pos_;  // closing quote
          return Token{TokenKind::kQuoted,
                       text_.substr(start, pos_ - 1 - start), line_, column};
        }
        default:
          break;
      }
      if (HasClass(c, kSpace)) {
        ++pos_;
      } else if (HasClass(c, kIdentStart)) {
        const size_t start = pos_;
        while (pos_ < text_.size() && HasClass(text_[pos_], kIdentRest)) {
          ++pos_;
        }
        return Token{TokenKind::kIdentifier,
                     text_.substr(start, pos_ - start), line_, column};
      } else {
        return Fail("unexpected character " + DescribeByte(c));
      }
    }
    return Token{TokenKind::kEnd, {}, line_, Column()};
  }

  const Status& error() const { return error_; }

 private:
  int Column() const { return static_cast<int>(pos_ - line_start_) + 1; }

  Token Single(TokenKind kind, int column) {
    return Token{kind, text_.substr(pos_++, 1), line_, column};
  }

  Token Fail(const std::string& message) {
    error_ = Status::InvalidArgument(Located(line_, Column(), message));
    return Token{TokenKind::kError, {}, line_, Column()};
  }

  std::string_view text_;
  size_t pos_ = 0;
  size_t line_start_ = 0;
  int line_ = 1;
  Status error_ = Status::Ok();
};

// One term of a statement, as a view into the input.
struct PendingTerm {
  std::string_view text;
  bool quoted = false;
};

// One atom p(t1, ..., tn) or equality t1 = t2 of a statement; its terms
// are PendingTerms [first_term, first_term + num_terms).
struct PendingAtom {
  std::string_view predicate;  // empty for equalities
  size_t first_term = 0;
  size_t num_terms = 0;
  bool is_equality = false;
  int line = 0;
};

// Parses statement by statement and resolves each into the KB as soon
// as its '.' is read. A statement is held as views into the input until
// then, so nothing is interned for a statement that turns out malformed.
//
// Errors keep the precedence of a lexer, a parser and a resolver each
// run over the whole text: any lexical error beats any syntax error,
// which beats any resolution error. So after the first resolution error
// parsing goes on without resolving, and after the first syntax error
// scanning goes on to the end.
class Parser {
 public:
  Parser(std::string_view text, KnowledgeBase& kb)
      : scanner_(text), kb_(kb), symbols_(kb.symbols()) {
    Advance();
  }

  Status Run() {
    while (token_.kind != TokenKind::kEnd &&
           token_.kind != TokenKind::kError) {
      if (!ParseStatement()) {
        while (token_.kind != TokenKind::kEnd &&
               token_.kind != TokenKind::kError) {
          Advance();
        }
        break;
      }
      if (resolve_error_.ok()) resolve_error_ = ResolveStatement();
    }
    if (!scanner_.error().ok()) return scanner_.error();
    if (!syntax_error_.ok()) return syntax_error_;
    return resolve_error_;
  }

 private:
  enum class Kind { kFact, kTgd, kCdd };

  void Advance() { token_ = scanner_.Next(); }

  bool IsTerm() const {
    return token_.kind == TokenKind::kIdentifier ||
           token_.kind == TokenKind::kQuoted;
  }

  // Records a syntax error at the current token; always false.
  bool SyntaxError(const std::string& message) {
    syntax_error_ = Status::InvalidArgument(
        Located(token_.line, token_.column, message));
    return false;
  }

  bool ParseStatement() {
    atoms_.clear();
    terms_.clear();
    label_ = {};
    line_ = token_.line;
    if (token_.kind == TokenKind::kLeftBracket) {
      Advance();
      if (token_.kind != TokenKind::kIdentifier) {
        return SyntaxError("expected rule label after '['");
      }
      label_ = token_.text;
      Advance();
      if (token_.kind != TokenKind::kRightBracket) {
        return SyntaxError("expected ']' after rule label");
      }
      Advance();
    }
    if (token_.kind == TokenKind::kBang) {
      // CDD: ! :- body .
      Advance();
      if (token_.kind != TokenKind::kImplies) {
        return SyntaxError("expected ':-' after '!'");
      }
      Advance();
      kind_ = Kind::kCdd;
      head_end_ = 0;
      if (!ParseAtomList()) return false;
    } else {
      if (!ParseAtomList()) return false;
      head_end_ = atoms_.size();
      kind_ = Kind::kFact;
      if (token_.kind == TokenKind::kImplies) {
        Advance();
        kind_ = Kind::kTgd;
        if (!ParseAtomList()) return false;
      }
    }
    if (token_.kind != TokenKind::kDot) {
      return SyntaxError("expected '.' at end of statement");
    }
    Advance();
    return true;
  }

  bool ParseAtomList() {
    while (true) {
      if (!ParseAtomOrEquality()) return false;
      if (token_.kind != TokenKind::kComma) return true;
      Advance();
    }
  }

  void PushTerm(const Token& token) {
    terms_.push_back({token.text, token.kind == TokenKind::kQuoted});
  }

  bool ParseAtomOrEquality() {
    PendingAtom atom;
    atom.line = token_.line;
    atom.first_term = terms_.size();
    if (!IsTerm()) return SyntaxError("expected predicate or term");
    const Token first = token_;
    Advance();
    if (token_.kind == TokenKind::kEquals) {
      // Equality: term = term.
      Advance();
      if (!IsTerm()) return SyntaxError("expected term after '='");
      PushTerm(first);
      PushTerm(token_);
      Advance();
      atom.is_equality = true;
      atom.num_terms = 2;
      atoms_.push_back(atom);
      return true;
    }
    if (first.kind == TokenKind::kQuoted) {
      return SyntaxError("predicate names cannot be quoted");
    }
    atom.predicate = first.text;
    if (token_.kind != TokenKind::kLeftParen) {
      return SyntaxError("expected '(' after predicate " +
                         std::string(first.text));
    }
    Advance();
    while (true) {
      if (!IsTerm()) return SyntaxError("expected term");
      PushTerm(token_);
      Advance();
      if (token_.kind == TokenKind::kComma) {
        Advance();
        continue;
      }
      if (token_.kind == TokenKind::kRightParen) {
        Advance();
        break;
      }
      return SyntaxError("expected ',' or ')' in argument list");
    }
    atom.num_terms = terms_.size() - atom.first_term;
    atoms_.push_back(atom);
    return true;
  }

  static Status ErrorOnLine(int line, const std::string& message) {
    return Status::InvalidArgument("line " + std::to_string(line) + ": " +
                                   message);
  }

  // Rule context: an uppercase-initial identifier is a variable.
  TermId RuleTerm(const PendingTerm& term) {
    if (!term.quoted && !term.text.empty() &&
        std::isupper(static_cast<unsigned char>(term.text[0]))) {
      return symbols_.InternVariable(term.text);
    }
    return symbols_.InternConstant(term.text);
  }

  // Fact context: a '_'-initial identifier is a labeled null.
  TermId FactTerm(const PendingTerm& term) {
    if (!term.quoted && !term.text.empty() && term.text[0] == '_') {
      return symbols_.InternNull(term.text);
    }
    return symbols_.InternConstant(term.text);
  }

  StatusOr<Atom> ResolveAtom(const PendingAtom& pending, bool rule_context) {
    const int arity = static_cast<int>(pending.num_terms);
    const PredicateId pred =
        symbols_.FindOrInternPredicate(pending.predicate, arity);
    if (symbols_.predicate_arity(pred) != arity) {
      return ErrorOnLine(
          pending.line,
          "predicate " + std::string(pending.predicate) + " used with arity " +
              std::to_string(arity) + " but previously had arity " +
              std::to_string(symbols_.predicate_arity(pred)));
    }
    Atom atom;
    atom.predicate = pred;
    atom.args.reserve(pending.num_terms);
    for (size_t i = 0; i < pending.num_terms; ++i) {
      const PendingTerm& term = terms_[pending.first_term + i];
      atom.args.push_back(rule_context ? RuleTerm(term) : FactTerm(term));
    }
    return atom;
  }

  // Resolves atoms_[begin, end) of a TGD into `out`.
  Status ResolveRuleAtoms(size_t begin, size_t end, std::vector<Atom>& out) {
    out.reserve(end - begin);
    for (size_t i = begin; i < end; ++i) {
      if (atoms_[i].is_equality) {
        return ErrorOnLine(atoms_[i].line,
                           "equalities are only allowed in CDD bodies");
      }
      KBREPAIR_ASSIGN_OR_RETURN(Atom atom,
                                ResolveAtom(atoms_[i], /*rule_context=*/true));
      out.push_back(std::move(atom));
    }
    return Status::Ok();
  }

  // Interns the statement just parsed and adds it to the KB, in the
  // order that fixes every id: atom by atom, predicate before terms, a
  // TGD's head before its body.
  Status ResolveStatement() {
    switch (kind_) {
      case Kind::kFact: {
        if (!label_.empty()) {
          return ErrorOnLine(
              line_, "labels are only supported on rules and constraints");
        }
        for (const PendingAtom& pending : atoms_) {
          if (pending.is_equality) {
            return ErrorOnLine(pending.line,
                               "equalities are only allowed in CDD bodies");
          }
          KBREPAIR_ASSIGN_OR_RETURN(
              Atom atom, ResolveAtom(pending, /*rule_context=*/false));
          kb_.facts().Add(std::move(atom));
        }
        return Status::Ok();
      }
      case Kind::kTgd: {
        std::vector<Atom> head;
        std::vector<Atom> body;
        KBREPAIR_RETURN_IF_ERROR(ResolveRuleAtoms(0, head_end_, head));
        KBREPAIR_RETURN_IF_ERROR(
            ResolveRuleAtoms(head_end_, atoms_.size(), body));
        KBREPAIR_ASSIGN_OR_RETURN(
            Tgd tgd, Tgd::Create(std::move(body), std::move(head), symbols_));
        tgd.set_label(std::string(label_));
        kb_.tgds().push_back(std::move(tgd));
        return Status::Ok();
      }
      case Kind::kCdd: {
        std::vector<Atom> body;
        std::vector<TermEquality> equalities;
        for (const PendingAtom& pending : atoms_) {
          if (pending.is_equality) {
            TermEquality eq;
            eq.left = RuleTerm(terms_[pending.first_term]);
            eq.right = RuleTerm(terms_[pending.first_term + 1]);
            equalities.push_back(eq);
            continue;
          }
          KBREPAIR_ASSIGN_OR_RETURN(
              Atom atom, ResolveAtom(pending, /*rule_context=*/true));
          body.push_back(std::move(atom));
        }
        StatusOr<Cdd> cdd =
            Cdd::Create(std::move(body), symbols_, std::move(equalities));
        if (!cdd.ok()) return ErrorOnLine(line_, cdd.status().message());
        cdd->set_label(std::string(label_));
        kb_.cdds().push_back(std::move(cdd).value());
        return Status::Ok();
      }
    }
    return Status::Ok();
  }

  Scanner scanner_;
  KnowledgeBase& kb_;
  SymbolTable& symbols_;
  Token token_;  // the lookahead
  Status syntax_error_ = Status::Ok();
  Status resolve_error_ = Status::Ok();

  // The statement being parsed; buffers reused across statements.
  Kind kind_ = Kind::kFact;
  std::string_view label_;
  int line_ = 0;
  std::vector<PendingAtom> atoms_;
  size_t head_end_ = 0;  // atoms_[0, head_end_) is a TGD's head
  std::vector<PendingTerm> terms_;
};

}  // namespace

Status ParseDlgpInto(const std::string& text, KnowledgeBase& kb) {
  return Parser(text, kb).Run();
}

StatusOr<KnowledgeBase> ParseDlgp(const std::string& text) {
  KnowledgeBase kb;
  KBREPAIR_RETURN_IF_ERROR(ParseDlgpInto(text, kb));
  return kb;
}

namespace {

// True iff the scanner would read `name` back as one identifier token:
// alnum/underscore start, then alnum/underscore/dash/slash.
bool LexesAsIdentifier(const std::string& name) {
  if (name.empty() || !HasClass(name[0], kIdentStart)) return false;
  for (const char c : name) {
    if (!HasClass(c, kIdentRest)) return false;
  }
  return true;
}

// Quotes a term name if it would not re-parse with the same kind.
std::string PrintTerm(const SymbolTable& symbols, TermId term,
                      bool rule_context) {
  const std::string& name = symbols.term_name(term);
  switch (symbols.term_kind(term)) {
    case TermKind::kConstant: {
      const bool looks_variable =
          rule_context && !name.empty() &&
          std::isupper(static_cast<unsigned char>(name[0]));
      const bool looks_null = !name.empty() && name[0] == '_';
      if (looks_variable || looks_null || !LexesAsIdentifier(name)) {
        return '"' + name + '"';
      }
      return name;
    }
    case TermKind::kVariable:
      return name;  // rules only; names are uppercase-initial by intern
    case TermKind::kNull:
      return name;  // '_'-initial by convention
  }
  return name;
}

std::string PrintAtom(const SymbolTable& symbols, const Atom& atom,
                      bool rule_context) {
  std::string out = symbols.predicate_name(atom.predicate);
  out += '(';
  for (size_t i = 0; i < atom.args.size(); ++i) {
    if (i > 0) out += ", ";
    out += PrintTerm(symbols, atom.args[i], rule_context);
  }
  out += ')';
  return out;
}

std::string PrintConjunction(const SymbolTable& symbols,
                             const std::vector<Atom>& atoms,
                             bool rule_context) {
  std::string out;
  for (size_t i = 0; i < atoms.size(); ++i) {
    if (i > 0) out += ", ";
    out += PrintAtom(symbols, atoms[i], rule_context);
  }
  return out;
}

}  // namespace

StatusOr<KnowledgeBase> LoadDlgpFile(const std::string& path) {
  std::ifstream file(path);
  if (!file) {
    return Status::NotFound("cannot open " + path);
  }
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return ParseDlgp(buffer.str());
}

Status SaveDlgpFile(const KnowledgeBase& kb, const std::string& path) {
  std::ofstream file(path);
  if (!file) {
    return Status::NotFound("cannot open " + path + " for writing");
  }
  file << PrintDlgp(kb);
  if (!file.good()) {
    return Status::Internal("write to " + path + " failed");
  }
  return Status::Ok();
}

std::string PrintDlgp(const KnowledgeBase& kb) {
  const SymbolTable& symbols = kb.symbols();
  std::string out;
  out += "% facts\n";
  for (AtomId id = 0; id < kb.facts().size(); ++id) {
    out += PrintAtom(symbols, kb.facts().atom(id), /*rule_context=*/false);
    out += ".\n";
  }
  out += "% tgds\n";
  for (const Tgd& tgd : kb.tgds()) {
    if (!tgd.label().empty()) out += "[" + tgd.label() + "] ";
    out += PrintConjunction(symbols, tgd.head(), /*rule_context=*/true);
    out += " :- ";
    out += PrintConjunction(symbols, tgd.body(), /*rule_context=*/true);
    out += ".\n";
  }
  out += "% cdds\n";
  for (const Cdd& cdd : kb.cdds()) {
    if (!cdd.label().empty()) out += "[" + cdd.label() + "] ";
    out += "! :- ";
    out += PrintConjunction(symbols, cdd.body(), /*rule_context=*/true);
    out += ".\n";
  }
  return out;
}

}  // namespace kbrepair
