// Golden record of full inquiry dialogues: every case of
// tests/dialogue_golden.h must reproduce the transcript digest recorded
// in tests/data/dialogue_golden.txt, which
// tests/dialogue_golden_record.cc wrote. The record pins the
// CHECKCONSISTENCY-OPT early stop, Algorithm 3, opti-prop's
// propagation, forked sessions and a non-empty initial Π on both
// conflict engines, so a refactor of the round path that moves any
// question, answer, census or engine counter fails here. Re-record only
// for an intended change of dialogue output.

#include <map>
#include <string>

#include <gtest/gtest.h>

#include "dialogue_golden.h"

namespace kbrepair {
namespace {

namespace golden = dialogue_golden;

const char kGoldenPath[] =
    KBREPAIR_SOURCE_DIR "/tests/data/dialogue_golden.txt";

// Empty when the file is missing or malformed.
const std::map<std::string, std::string>& Record() {
  static const std::map<std::string, std::string> record = [] {
    std::map<std::string, std::string> loaded;
    if (!golden::ReadRecord(kGoldenPath, &loaded)) loaded.clear();
    return loaded;
  }();
  return record;
}

TEST(DialogueGoldenTest, RecordMatchesTheCaseList) {
  const std::map<std::string, std::string>& record = Record();
  ASSERT_FALSE(record.empty()) << "cannot read " << kGoldenPath;
  size_t cases = 0;
  for (const golden::Case& c : golden::AllCases()) {
    EXPECT_EQ(record.count(golden::Key(c)), 1u) << golden::Key(c);
    ++cases;
  }
  EXPECT_EQ(record.size(), cases);
}

TEST(DialogueGoldenTest, TranscriptsMatchRecordedDigests) {
  const std::map<std::string, std::string>& record = Record();
  ASSERT_FALSE(record.empty()) << "cannot read " << kGoldenPath;
  for (const golden::Case& c : golden::AllCases()) {
    const std::string key = golden::Key(c);
    const auto it = record.find(key);
    ASSERT_NE(it, record.end()) << key;
    EXPECT_EQ(golden::Digest(golden::Transcript(c)), it->second) << key;
  }
}

}  // namespace
}  // namespace kbrepair
