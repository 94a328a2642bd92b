// DLGP parser corpus support shared by the golden parser test and the
// DLGP fuzz target: a canonical dump of a parsed KB, token-level input
// mutations, and the reader/writer of the golden record file
// (tests/data/parser_golden.txt).
//
// Record format, line-oriented:
//
//   # comment
//   input <name>          one base input, then its expected outcome
//   | <escaped line>      ... the input, one escaped line per '|' line
//   outcome
//   | <escaped line>      ... "OK" plus the canonical dump, or the Status
//   end
//   mutant <base> <op> <a> <b> => <one-line outcome>
//
// Escaping keeps the file printable and makes physical line breaks
// meaningless: a logical newline is "\n", a backslash "\\", and any byte
// outside 0x20..0x7e is "\xHH". A mutant's outcome is "ok <digest>" (the
// 64-bit FNV-1a of the canonical dump, so ~500 mutants stay small) or
// "error <escaped Status::ToString()>".

#ifndef KBREPAIR_TESTS_DLGP_CORPUS_H_
#define KBREPAIR_TESTS_DLGP_CORPUS_H_

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "parser/dlgp_parser.h"
#include "util/rng.h"

namespace kbrepair::corpus {

// ---------------------------------------------------------------------
// Canonical dumps.

// `prefix` followed by `n` in decimal.
template <typename Int>
std::string Num(const char* prefix, Int n) {
  std::string out = prefix;
  out += std::to_string(n);
  return out;
}

inline const char* KindLetter(TermKind kind) {
  switch (kind) {
    case TermKind::kConstant:
      return "c";
    case TermKind::kVariable:
      return "v";
    case TermKind::kNull:
      return "n";
  }
  return "?";
}

inline std::string Escape(std::string_view text) {
  static const char kHex[] = "0123456789abcdef";
  std::string out;
  for (const char c : text) {
    const unsigned char byte = static_cast<unsigned char>(c);
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else if (byte >= 0x20 && byte < 0x7f) {
      out += c;
    } else {
      out += "\\x";
      out += kHex[byte >> 4];
      out += kHex[byte & 0xf];
    }
  }
  return out;
}

inline int HexValue(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  return -1;
}

inline std::string Unescape(std::string_view text) {
  std::string out;
  for (size_t i = 0; i < text.size(); ++i) {
    if (text[i] != '\\' || i + 1 >= text.size()) {
      out += text[i];
    } else if (text[i + 1] == '\\') {
      out += '\\';
      ++i;
    } else if (text[i + 1] == 'n') {
      out += '\n';
      ++i;
    } else if (text[i + 1] == 'x' && i + 3 < text.size() &&
               HexValue(text[i + 2]) >= 0 && HexValue(text[i + 3]) >= 0) {
      out += static_cast<char>(HexValue(text[i + 2]) * 16 +
                               HexValue(text[i + 3]));
      i += 3;
    } else {
      out += text[i];
    }
  }
  return out;
}

inline std::string IdAtom(const Atom& atom) {
  std::string out = Num("p", atom.predicate) + "(";
  for (size_t i = 0; i < atom.args.size(); ++i) {
    if (i > 0) out += ",";
    out += Num("t", atom.args[i]);
  }
  return out + ")";
}

inline std::string IdAtoms(const std::vector<Atom>& atoms) {
  std::string out;
  for (const Atom& atom : atoms) out.append(" ").append(IdAtom(atom));
  return out;
}

inline std::string IdTerms(const std::vector<TermId>& terms) {
  std::string out;
  for (TermId term : terms) out += Num(" t", term);
  return out;
}

// Every id the parser assigned: terms by id (kind, name), predicates by
// id (name, arity), facts in id order, then TGDs and CDDs in rule order
// with their labels and the variable sets Create() derived. CDD
// equalities are folded into the body by Cdd::Create, so the body shows
// them.
inline std::string CanonicalDump(const KnowledgeBase& kb) {
  const SymbolTable& symbols = kb.symbols();
  std::string out = Num("terms ", symbols.num_terms()) + "\n";
  for (size_t id = 0; id < symbols.num_terms(); ++id) {
    const TermId term = static_cast<TermId>(id);
    out += Num("t", id) + " " +
           KindLetter(symbols.term_kind(term)) + " \"" +
           Escape(symbols.term_name(term)) + "\"\n";
  }
  out += Num("predicates ", symbols.num_predicates()) + "\n";
  for (size_t id = 0; id < symbols.num_predicates(); ++id) {
    const PredicateId pred = static_cast<PredicateId>(id);
    out += Num("p", id) + " " +
           Escape(symbols.predicate_name(pred)) + "/" +
           std::to_string(symbols.predicate_arity(pred)) + "\n";
  }
  out += Num("facts ", kb.facts().size()) + "\n";
  for (AtomId id = 0; id < kb.facts().size(); ++id) {
    out += Num("a", id) + " " + IdAtom(kb.facts().atom(id)) +
           "\n";
  }
  out += Num("tgds ", kb.tgds().size()) + "\n";
  for (size_t i = 0; i < kb.tgds().size(); ++i) {
    const Tgd& tgd = kb.tgds()[i];
    out += Num("r", i) + " [" + Escape(tgd.label()) + "]" +
           " body" + IdAtoms(tgd.body()) + " ; head" + IdAtoms(tgd.head()) +
           " ; frontier" + IdTerms(tgd.frontier_variables()) +
           " ; existential" + IdTerms(tgd.existential_variables()) + "\n";
  }
  out += Num("cdds ", kb.cdds().size()) + "\n";
  for (size_t i = 0; i < kb.cdds().size(); ++i) {
    const Cdd& cdd = kb.cdds()[i];
    out += Num("c", i) + " [" + Escape(cdd.label()) + "]" +
           " body" + IdAtoms(cdd.body()) + " ; join" +
           IdTerms(cdd.join_variables()) + " ; resolving";
    for (size_t a = 0; a < cdd.body().size(); ++a) {
      out += Num(" ", a) + ":";
      for (size_t k = 0; k < cdd.resolving_positions(a).size(); ++k) {
        if (k > 0) out += ",";
        out += std::to_string(cdd.resolving_positions(a)[k]);
      }
    }
    out += "\n";
  }
  return out;
}

// The same content by name instead of by id: facts in order, then rules.
// Two KBs holding the same statements agree on it however their ids were
// numbered, which is what a print/re-parse round trip preserves.
inline std::string SymbolicDump(const KnowledgeBase& kb) {
  const SymbolTable& symbols = kb.symbols();
  auto atom_text = [&symbols](const Atom& atom) {
    std::string out = Escape(symbols.predicate_name(atom.predicate)) + "(";
    for (size_t i = 0; i < atom.args.size(); ++i) {
      if (i > 0) out += ",";
      out += std::string(KindLetter(symbols.term_kind(atom.args[i]))) +
             ":\"" + Escape(symbols.term_name(atom.args[i])) + "\"";
    }
    return out + ")";
  };
  auto atoms_text = [&atom_text](const std::vector<Atom>& atoms) {
    std::string out;
    for (const Atom& atom : atoms) out.append(" ").append(atom_text(atom));
    return out;
  };
  std::string out;
  for (AtomId id = 0; id < kb.facts().size(); ++id) {
    out.append("fact ").append(atom_text(kb.facts().atom(id))).append("\n");
  }
  for (const Tgd& tgd : kb.tgds()) {
    out.append("tgd [").append(Escape(tgd.label()));
    out.append("]").append(atoms_text(tgd.head()));
    out.append(" :-").append(atoms_text(tgd.body())).append("\n");
  }
  for (const Cdd& cdd : kb.cdds()) {
    out.append("cdd [").append(Escape(cdd.label()));
    out.append("]").append(atoms_text(cdd.body())).append("\n");
  }
  return out;
}

inline uint64_t Fnv1a64(std::string_view text) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

// "OK\n<canonical dump>" or the Status text.
inline std::string Outcome(const StatusOr<KnowledgeBase>& parsed) {
  if (!parsed.ok()) return parsed.status().ToString();
  return std::string("OK\n").append(CanonicalDump(*parsed));
}

// The one-line outcome recorded for a mutant.
inline std::string ShortOutcome(const StatusOr<KnowledgeBase>& parsed) {
  if (!parsed.ok()) {
    return std::string("error ").append(Escape(parsed.status().ToString()));
  }
  char digest[17];
  std::snprintf(digest, sizeof(digest), "%016llx",
                static_cast<unsigned long long>(
                    Fnv1a64(CanonicalDump(*parsed))));
  return std::string("ok ") + digest;
}

// ---------------------------------------------------------------------
// Token-level mutations.

// Byte spans of the significant tokens of `text`, split independently of
// the parser under test: identifier runs, quoted strings (to the closing
// quote or end of line), ":-", and any other single non-space byte.
// Whitespace and '%' comments separate tokens.
inline std::vector<std::pair<size_t, size_t>> TokenSpans(
    std::string_view text) {
  auto ident = [](char c) {
    const unsigned char byte = static_cast<unsigned char>(c);
    return (byte >= '0' && byte <= '9') || (byte >= 'a' && byte <= 'z') ||
           (byte >= 'A' && byte <= 'Z') || c == '_' || c == '-' || c == '/';
  };
  std::vector<std::pair<size_t, size_t>> spans;
  size_t i = 0;
  while (i < text.size()) {
    const char c = text[i];
    if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
      ++i;
    } else if (c == '%') {
      while (i < text.size() && text[i] != '\n') ++i;
    } else if (c == '"') {
      size_t end = i + 1;
      while (end < text.size() && text[end] != '"' && text[end] != '\n') {
        ++end;
      }
      if (end < text.size() && text[end] == '"') ++end;
      spans.emplace_back(i, end - i);
      i = end;
    } else if (c == ':' && i + 1 < text.size() && text[i + 1] == '-') {
      spans.emplace_back(i, 2);
      i += 2;
    } else if (ident(c)) {
      size_t end = i;
      while (end < text.size() && ident(text[end])) ++end;
      spans.emplace_back(i, end - i);
      i = end;
    } else {
      spans.emplace_back(i, 1);
      ++i;
    }
  }
  return spans;
}

// One edit. Token indices refer to TokenSpans() of the text the
// mutation applies to; byte offsets to the text itself.
struct Mutation {
  std::string op;  // drop | dup | swap | put | byte | trunc
  size_t a = 0;    // token index, or byte offset for byte/trunc
  size_t b = 0;    // second token (swap, put) or inserted byte (byte)
};

inline std::string FormatMutation(const Mutation& m) {
  return m.op + Num(" ", m.a) + Num(" ", m.b);
}

// Applies `m` to `text`. An index past the end leaves the text as is.
inline std::string ApplyMutation(const std::string& text,
                                 const Mutation& m) {
  const auto spans = TokenSpans(text);
  auto token = [&](size_t i) {
    return text.substr(spans[i].first, spans[i].second);
  };
  if (m.op == "byte") {
    if (m.a > text.size()) return text;
    std::string out = text;
    out.insert(out.begin() + static_cast<std::ptrdiff_t>(m.a),
               static_cast<char>(m.b & 0xff));
    return out;
  }
  if (m.op == "trunc") return text.substr(0, std::min(m.a, text.size()));
  if (m.a >= spans.size()) return text;
  if (m.op == "drop") {
    return text.substr(0, spans[m.a].first) +
           text.substr(spans[m.a].first + spans[m.a].second);
  }
  if (m.op == "dup") {
    const size_t end = spans[m.a].first + spans[m.a].second;
    return text.substr(0, end) + " " + token(m.a) + text.substr(end);
  }
  if (m.op == "put") {  // token a's text in place of token b
    if (m.b >= spans.size()) return text;
    return text.substr(0, spans[m.b].first) + token(m.a) +
           text.substr(spans[m.b].first + spans[m.b].second);
  }
  if (m.op == "swap") {
    if (m.b >= spans.size() || m.b == m.a) return text;
    const size_t lo = std::min(m.a, m.b);
    const size_t hi = std::max(m.a, m.b);
    const size_t lo_end = spans[lo].first + spans[lo].second;
    const size_t hi_end = spans[hi].first + spans[hi].second;
    return text.substr(0, spans[lo].first) + token(hi) +
           text.substr(lo_end, spans[hi].first - lo_end) + token(lo) +
           text.substr(hi_end);
  }
  return text;
}

// A seeded random edit of `text`. Stray bytes favour the DLGP
// punctuation and the bytes the scanner treats specially (quote, NUL,
// CR, high bytes).
inline Mutation RandomMutation(const std::string& text, Rng& rng) {
  static const unsigned char kStray[] = {'(', ')', ',', '.', ':', '-',
                                         '!', '=', '[', ']', '"', '%',
                                         '\n', ' ', 'X', '_', 0x00, 0x0d,
                                         0x7f, 0xc3, 0xff, '\\', '?'};
  const size_t tokens = TokenSpans(text).size();
  Mutation m;
  const int64_t kind = rng.UniformInt(0, 5);
  if (tokens == 0 || kind == 3) {
    m.op = "byte";
    m.a = rng.UniformIndex(text.size() + 1);
    m.b = kStray[rng.UniformIndex(sizeof(kStray))];
  } else if (kind == 4) {
    m.op = "trunc";
    m.a = rng.UniformIndex(text.size() + 1);
  } else if (kind == 0) {
    m.op = "drop";
    m.a = rng.UniformIndex(tokens);
  } else if (kind == 1) {
    m.op = "dup";
    m.a = rng.UniformIndex(tokens);
  } else if (kind == 5) {
    // Any token over any other: a predicate of another arity, a
    // variable in fact context, punctuation in a term's place.
    m.op = "put";
    m.a = rng.UniformIndex(tokens);
    m.b = rng.UniformIndex(tokens);
  } else {
    m.op = "swap";
    m.a = rng.UniformIndex(tokens);
    // Half of the swaps stay within a statement or two.
    const size_t reach =
        rng.Bernoulli(0.5) ? std::min<size_t>(tokens - 1, 8) : tokens - 1;
    m.b = std::min(tokens - 1, m.a + 1 + rng.UniformIndex(reach + 1));
  }
  return m;
}

// ---------------------------------------------------------------------
// The golden record.

// The whole file at `path`; empty when it cannot be read.
inline std::string ReadFile(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return buffer.str();
}

struct GoldenInput {
  std::string name;
  std::string text;
  std::string outcome;  // Outcome() at record time
};

struct GoldenMutant {
  std::string base;  // a GoldenInput name
  Mutation mutation;
  std::string outcome;  // ShortOutcome() at record time
};

struct GoldenRecord {
  std::vector<GoldenInput> inputs;
  std::vector<GoldenMutant> mutants;

  const GoldenInput* Find(const std::string& name) const {
    for (const GoldenInput& input : inputs) {
      if (input.name == name) return &input;
    }
    return nullptr;
  }
};

// Writes `text` as '|' lines, breaking after each logical newline.
inline void WriteBlock(std::ostringstream& out, const std::string& text) {
  size_t start = 0;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    end = end == std::string::npos ? text.size() : end + 1;
    std::string line =
        Escape(std::string_view(text).substr(start, end - start));
    // A trailing space would not survive editors that strip it.
    if (line.back() == ' ') line.replace(line.size() - 1, 1, "\\x20");
    out << "| " << line << "\n";
    start = end;
  }
}

inline std::string FormatRecord(const GoldenRecord& record,
                                const std::string& header) {
  std::ostringstream out;
  out << header;
  for (const GoldenInput& input : record.inputs) {
    out << "input " << input.name << "\n";
    WriteBlock(out, input.text);
    out << "outcome\n";
    WriteBlock(out, input.outcome);
    out << "end\n";
  }
  for (const GoldenMutant& mutant : record.mutants) {
    out << "mutant " << mutant.base << " " << FormatMutation(mutant.mutation)
        << " => " << mutant.outcome << "\n";
  }
  return out.str();
}

// Parses FormatRecord()'s output; false on a malformed record.
inline bool ParseRecord(const std::string& file, GoldenRecord* record) {
  std::istringstream in(file);
  std::string line;
  std::string* block = nullptr;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    if (line.rfind("| ", 0) == 0) {
      if (block == nullptr) return false;
      *block += Unescape(std::string_view(line).substr(2));
    } else if (line.rfind("input ", 0) == 0) {
      record->inputs.push_back({line.substr(6), "", ""});
      block = &record->inputs.back().text;
    } else if (line == "outcome") {
      if (record->inputs.empty()) return false;
      block = &record->inputs.back().outcome;
    } else if (line == "end") {
      block = nullptr;
    } else if (line.rfind("mutant ", 0) == 0) {
      const size_t arrow = line.find(" => ");
      if (arrow == std::string::npos) return false;
      std::istringstream fields(line.substr(7, arrow - 7));
      GoldenMutant mutant;
      if (!(fields >> mutant.base >> mutant.mutation.op >> mutant.mutation.a >>
            mutant.mutation.b)) {
        return false;
      }
      mutant.outcome = line.substr(arrow + 4);
      record->mutants.push_back(std::move(mutant));
    } else {
      return false;
    }
  }
  return true;
}

}  // namespace kbrepair::corpus

#endif  // KBREPAIR_TESTS_DLGP_CORPUS_H_
