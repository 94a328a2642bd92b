// DLGP parser fuzz target. Exports the libFuzzer entry point, so a clang
// build can link it with -fsanitize=fuzzer; dlgp_fuzz_driver.cc drives it
// from g++ with seeded token-level mutations.
//
// For every input:
//   * the parser returns (no crash, no sanitizer report);
//   * a rejection is InvalidArgument and carries its location: lexical
//     and syntax errors "line L, column C: ", resolution errors "line L: "
//     (their historical form). The one exception is Cdd::Create's
//     constant=constant equality error, which the parser passes on
//     without a location;
//   * an accepted input round-trips: printing it with PrintDlgp and
//     parsing that gives the same statements (SymbolicDump), and printing
//     again gives the same text.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <regex>
#include <string>

#include "dlgp_corpus.h"
#include "parser/dlgp_parser.h"

namespace {

[[noreturn]] void Die(const std::string& what, const std::string& input) {
  std::fprintf(stderr, "dlgp_fuzz: %s\ninput (escaped): %s\n", what.c_str(),
               kbrepair::corpus::Escape(input).c_str());
  std::abort();
}

bool Located(const std::string& message) {
  static const std::regex kLocation("^line [0-9]+(, column [0-9]+)?: ");
  return std::regex_search(message, kLocation);
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  using kbrepair::KnowledgeBase;
  using kbrepair::StatusOr;
  namespace corpus = kbrepair::corpus;
  const std::string input(reinterpret_cast<const char*>(data), size);
  StatusOr<KnowledgeBase> parsed = kbrepair::ParseDlgp(input);
  if (!parsed.ok()) {
    const kbrepair::Status& status = parsed.status();
    if (status.code() != kbrepair::StatusCode::kInvalidArgument) {
      Die("rejection is not InvalidArgument: " + status.ToString(), input);
    }
    if (!Located(status.message())) {
      Die("error without a location: " + status.ToString(), input);
    }
    return 0;
  }
  const std::string printed = kbrepair::PrintDlgp(*parsed);
  StatusOr<KnowledgeBase> reparsed = kbrepair::ParseDlgp(printed);
  if (!reparsed.ok()) {
    Die("printed form does not parse: " + reparsed.status().ToString(),
        input);
  }
  if (corpus::SymbolicDump(*reparsed) != corpus::SymbolicDump(*parsed)) {
    Die("print/parse changed the statements", input);
  }
  if (kbrepair::PrintDlgp(*reparsed) != printed) {
    Die("print/parse/print is not a fixpoint", input);
  }
  return 0;
}
