// Behavioural tests for the questioning strategies (Section 5).

#include <gtest/gtest.h>

#include "gen/synthetic.h"
#include "repair/consistency.h"
#include "repair/inquiry.h"
#include "repair/user.h"
#include "util/stats.h"

namespace kbrepair {
namespace {

// Average question count over several (generator seed, user seed) pairs.
double AverageQuestions(const SyntheticKbOptions& gen_options,
                        Strategy strategy, int repetitions) {
  SampleStats stats;
  for (int rep = 0; rep < repetitions; ++rep) {
    SyntheticKbOptions options = gen_options;
    options.seed = gen_options.seed + static_cast<uint64_t>(rep);
    StatusOr<SyntheticKb> generated = GenerateSyntheticKb(options);
    EXPECT_TRUE(generated.ok()) << generated.status();
    RandomUser user(1000 + static_cast<uint64_t>(rep));
    InquiryOptions inquiry_options;
    inquiry_options.strategy = strategy;
    inquiry_options.seed = 2000 + static_cast<uint64_t>(rep);
    InquiryEngine engine(&generated->kb, inquiry_options);
    StatusOr<InquiryResult> result = engine.Run(user);
    EXPECT_TRUE(result.ok()) << result.status();
    stats.Add(static_cast<double>(result->num_questions()));

    // Every strategy must leave the KB consistent.
    ConsistencyChecker checker(&generated->kb.symbols(),
                               &generated->kb.tgds(),
                               &generated->kb.cdds());
    EXPECT_TRUE(checker.IsConsistentOpt(result->facts).value());
  }
  return stats.Mean();
}

SyntheticKbOptions OverlappyCddOnlyKb() {
  SyntheticKbOptions options;
  options.seed = 41;
  options.num_facts = 200;
  options.inconsistency_ratio = 0.25;
  options.num_cdds = 6;
  options.cdd_min_atoms = 2;
  options.cdd_max_atoms = 3;
  options.min_arity = 2;
  options.max_arity = 5;
  options.join_position_share = 0.25;
  options.min_multiplicity = 2;
  options.max_multiplicity = 3;
  return options;
}

TEST(StrategyTest, NamesParseBackAndUnknownNamesAreRejected) {
  for (const Strategy strategy :
       {Strategy::kRandom, Strategy::kOptiJoin, Strategy::kOptiProp,
        Strategy::kOptiMcd, Strategy::kOptiLearn}) {
    StatusOr<Strategy> parsed = ParseStrategy(StrategyName(strategy));
    ASSERT_TRUE(parsed.ok()) << StrategyName(strategy);
    EXPECT_EQ(*parsed, strategy);
  }
  for (const ConflictEngineKind engine :
       {ConflictEngineKind::kScratch, ConflictEngineKind::kIncremental}) {
    StatusOr<ConflictEngineKind> parsed =
        ParseConflictEngine(ConflictEngineName(engine));
    ASSERT_TRUE(parsed.ok()) << ConflictEngineName(engine);
    EXPECT_EQ(*parsed, engine);
  }
  // The service sends these messages over the wire.
  EXPECT_EQ(ParseStrategy("opti").status().ToString(),
            "InvalidArgument: unknown strategy 'opti'");
  EXPECT_EQ(ParseConflictEngine("delta").status().ToString(),
            "InvalidArgument: unknown engine 'delta' (expected 'scratch' or "
            "'incremental')");
  EXPECT_STREQ(StrategyName(static_cast<Strategy>(99)), "unknown");
}

TEST(StrategyTest, OptiMcdAsksFewerQuestionsThanRandom) {
  const SyntheticKbOptions options = OverlappyCddOnlyKb();
  const double random = AverageQuestions(options, Strategy::kRandom, 3);
  const double mcd = AverageQuestions(options, Strategy::kOptiMcd, 3);
  EXPECT_LT(mcd, random);
}

TEST(StrategyTest, OptiJoinBeatsRandomWhenJoinShareIsLow) {
  // With few join positions, random wastes questions on lone positions
  // that cannot resolve conflicts (Section 5 / Figure 3 discussion).
  SyntheticKbOptions options = OverlappyCddOnlyKb();
  options.max_arity = 6;  // more lone positions
  const double random = AverageQuestions(options, Strategy::kRandom, 3);
  const double join = AverageQuestions(options, Strategy::kOptiJoin, 3);
  EXPECT_LT(join, random);
}

TEST(StrategyTest, AllStrategiesHandleTgdWorkloads) {
  SyntheticKbOptions options;
  options.seed = 77;
  options.num_facts = 150;
  options.inconsistency_ratio = 0.2;
  options.num_cdds = 8;
  options.num_tgds = 8;
  options.conflict_depth = 2;
  options.routed_violation_share = 0.6;
  for (Strategy strategy :
       {Strategy::kRandom, Strategy::kOptiJoin, Strategy::kOptiProp,
        Strategy::kOptiMcd}) {
    StatusOr<SyntheticKb> generated = GenerateSyntheticKb(options);
    ASSERT_TRUE(generated.ok());
    RandomUser user(7);
    InquiryOptions inquiry_options;
    inquiry_options.strategy = strategy;
    inquiry_options.seed = 7;
    InquiryEngine engine(&generated->kb, inquiry_options);
    StatusOr<InquiryResult> result = engine.Run(user);
    ASSERT_TRUE(result.ok())
        << StrategyName(strategy) << ": " << result.status();
    ConsistencyChecker checker(&generated->kb.symbols(),
                               &generated->kb.tgds(),
                               &generated->kb.cdds());
    EXPECT_TRUE(checker.IsConsistentOpt(result->facts).value())
        << StrategyName(strategy);
  }
}

TEST(StrategyTest, OptiPropFreezesUninvolvedPositions) {
  // After answering a question from the only conflict, opti-prop freezes
  // the question's other positions; with one conflict, a second run of
  // the same question cannot reappear. Hard to observe directly, so we
  // check the observable consequence: opti-prop never asks more
  // questions than opti-join needs on a single-conflict KB, and both
  // finish in one question here.
  SyntheticKbOptions options;
  options.seed = 5;
  options.num_facts = 30;
  options.inconsistency_ratio = 0.1;
  options.num_cdds = 1;
  options.min_multiplicity = 1;
  options.max_multiplicity = 1;
  StatusOr<SyntheticKb> generated = GenerateSyntheticKb(options);
  ASSERT_TRUE(generated.ok());
  RandomUser user(3);
  InquiryOptions inquiry_options;
  inquiry_options.strategy = Strategy::kOptiProp;
  InquiryEngine engine(&generated->kb, inquiry_options);
  StatusOr<InquiryResult> result = engine.Run(user);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_GE(result->num_questions(), 1u);
}

TEST(StrategyTest, McdConvergenceIsMonotoneOnCddOnlyKb) {
  // Without TGDs the remaining-conflict series must never increase when
  // the user only picks fresh-null fixes (Figure 4a's shape). Note a
  // random user picking active-domain values may transiently create new
  // conflicts, so we drive the choice deterministically to nulls.
  SyntheticKbOptions options = OverlappyCddOnlyKb();
  StatusOr<SyntheticKb> generated = GenerateSyntheticKb(options);
  ASSERT_TRUE(generated.ok());
  KnowledgeBase& kb = generated->kb;
  CallbackUser null_user([&kb](const Question& question,
                               const InquiryView&)
                             -> std::optional<size_t> {
    for (size_t i = 0; i < question.fixes.size(); ++i) {
      if (kb.symbols().IsNull(question.fixes[i].value)) return i;
    }
    return 0;
  });
  InquiryOptions inquiry_options;
  inquiry_options.strategy = Strategy::kOptiMcd;
  inquiry_options.record_convergence =
      ConvergenceRecording::kTotalConflicts;
  InquiryEngine engine(&kb, inquiry_options);
  StatusOr<InquiryResult> result = engine.Run(null_user);
  ASSERT_TRUE(result.ok()) << result.status();
  size_t previous = result->initial_conflicts;
  for (const QuestionRecord& record : result->records) {
    EXPECT_LE(record.conflicts_remaining, previous);
    previous = record.conflicts_remaining;
  }
  EXPECT_EQ(previous, 0u);
}

TEST(StrategyTest, McdResolvesMoreConflictsPerQuestion) {
  const SyntheticKbOptions options = OverlappyCddOnlyKb();
  StatusOr<SyntheticKb> a = GenerateSyntheticKb(options);
  StatusOr<SyntheticKb> b = GenerateSyntheticKb(options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());

  RandomUser user_a(1);
  InquiryOptions mcd;
  mcd.strategy = Strategy::kOptiMcd;
  InquiryEngine engine_a(&a->kb, mcd);
  StatusOr<InquiryResult> result_mcd = engine_a.Run(user_a);
  ASSERT_TRUE(result_mcd.ok());

  RandomUser user_b(1);
  InquiryOptions random;
  random.strategy = Strategy::kRandom;
  InquiryEngine engine_b(&b->kb, random);
  StatusOr<InquiryResult> result_random = engine_b.Run(user_b);
  ASSERT_TRUE(result_random.ok());

  EXPECT_GT(result_mcd->ConflictsPerQuestion(),
            result_random->ConflictsPerQuestion());
}

}  // namespace
}  // namespace kbrepair
