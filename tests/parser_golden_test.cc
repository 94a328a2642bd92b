// Golden record of the DLGP parser's observable behaviour: for every
// input in tests/data/parser_golden.txt — the data/*.dlgp files, one
// printed synthetic KB of each kbbench workload shape, hand-written edge
// cases, and ~500 seeded token-level mutations of those — the parser must
// produce exactly the recorded outcome: the same term, predicate and atom
// ids, rule order and labels on success (a canonical dump), the same
// Status code and message on failure. tests/parser_golden_record.cc
// wrote the record.

#include <string>

#include <gtest/gtest.h>

#include "dlgp_corpus.h"
#include "parser/dlgp_parser.h"

namespace kbrepair {
namespace {

using corpus::GoldenInput;
using corpus::GoldenMutant;
using corpus::GoldenRecord;

const char kGoldenPath[] = KBREPAIR_SOURCE_DIR "/tests/data/parser_golden.txt";

class ParserGoldenTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const std::string file = corpus::ReadFile(kGoldenPath);
    ASSERT_FALSE(file.empty()) << "cannot read " << kGoldenPath;
    ASSERT_TRUE(corpus::ParseRecord(file, &record_)) << "malformed record";
  }
  GoldenRecord record_;
};

TEST_F(ParserGoldenTest, RecordCoversEveryKindOfInput) {
  EXPECT_NE(record_.Find("data/durum_excerpt.dlgp"), nullptr);
  EXPECT_NE(record_.Find("data/hospital.dlgp"), nullptr);
  EXPECT_NE(record_.Find("shape/fig5-scratch"), nullptr);
  EXPECT_NE(record_.Find("shape/deep-chase-incremental"), nullptr);
  EXPECT_NE(record_.Find("shape/service-mixed"), nullptr);
  EXPECT_NE(record_.Find("features"), nullptr);
  EXPECT_GE(record_.mutants.size(), 500u);
  size_t accepted = 0;
  for (const GoldenMutant& mutant : record_.mutants) {
    accepted += mutant.outcome.rfind("ok ", 0) == 0 ? 1 : 0;
  }
  // Both sides of the parser are exercised by the mutants.
  EXPECT_GT(accepted, 20u);
  EXPECT_GT(record_.mutants.size() - accepted, 200u);
}

TEST_F(ParserGoldenTest, InputsMatchRecordedOutcomes) {
  for (const GoldenInput& input : record_.inputs) {
    EXPECT_EQ(corpus::Outcome(ParseDlgp(input.text)), input.outcome)
        << "input " << input.name;
  }
}

TEST_F(ParserGoldenTest, MutantsMatchRecordedOutcomes) {
  for (const GoldenMutant& mutant : record_.mutants) {
    const GoldenInput* base = record_.Find(mutant.base);
    ASSERT_NE(base, nullptr) << mutant.base;
    const std::string text = corpus::ApplyMutation(base->text, mutant.mutation);
    EXPECT_EQ(corpus::ShortOutcome(ParseDlgp(text)), mutant.outcome)
        << "mutant " << mutant.base << " "
        << corpus::FormatMutation(mutant.mutation) << "\ninput:\n"
        << text;
  }
}

}  // namespace
}  // namespace kbrepair
