// kbrepair-debug timeline harness over the 208-dialogue differential
// matrix: every WAL the matrix produces must (a) replay to a
// byte-identical transcript through both conflict engines, (b) report
// the exact conflict census the live session saw at any step reached by
// backward seeking, and (c) support what-if forks whose branch
// transcripts are themselves deterministic replayable sessions ending
// consistent. Plus: fsync-ghost skipping, base-fork rejection, and
// diff-engines pinpointing the first diverging step of tampered and
// failpoint-diverged recordings.

#include <gtest/gtest.h>
#include <unistd.h>

#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "debug/recorded_session.h"
#include "debug/timeline.h"
#include "repair/inquiry.h"
#include "repair/session_log.h"
#include "service/session.h"
#include "service/wal.h"
#include "util/failpoint.h"
#include "util/json.h"
#include "util/rng.h"

namespace kbrepair {
namespace debug {
namespace {

struct MatrixCase {
  uint64_t seed;
  Strategy strategy;
  bool two_phase;
  bool with_tgds;
};

// The same generator/engine surface the 208-dialogue differential
// harness uses (incremental_conflict_test), expressed as service create
// params so the WAL is a self-contained recipe.
JsonValue CreateParams(const MatrixCase& c) {
  JsonValue p = JsonValue::Object();
  p.Set("kb", JsonValue::String("synthetic"));
  p.Set("kb_seed", JsonValue::Number(static_cast<int64_t>(c.seed)));
  p.Set("num_facts",
        JsonValue::Number(static_cast<int64_t>(60 + (c.seed % 5) * 20)));
  p.Set("inconsistency_ratio", JsonValue::Number(0.25));
  p.Set("num_cdds", JsonValue::Number(int64_t{5}));
  p.Set("cdd_min_atoms", JsonValue::Number(int64_t{2}));
  p.Set("cdd_max_atoms", JsonValue::Number(int64_t{3}));
  p.Set("min_arity", JsonValue::Number(int64_t{2}));
  p.Set("max_arity", JsonValue::Number(int64_t{4}));
  p.Set("min_multiplicity", JsonValue::Number(int64_t{1}));
  p.Set("max_multiplicity", JsonValue::Number(int64_t{2}));
  if (c.with_tgds) {
    p.Set("num_tgds", JsonValue::Number(int64_t{6}));
    p.Set("conflict_depth", JsonValue::Number(int64_t{2}));
    p.Set("routed_violation_share", JsonValue::Number(0.5));
  }
  p.Set("strategy", JsonValue::String(StrategyName(c.strategy)));
  p.Set("two_phase", JsonValue::Bool(c.two_phase));
  p.Set("seed", JsonValue::Number(static_cast<int64_t>(c.seed * 17 + 3)));
  // Cross-engine replay equivalence needs the recorded convergence mode.
  p.Set("record_convergence", JsonValue::String("total"));
  // Older daemons wrote "chase_threads" into create records; replay
  // must accept and ignore it.
  p.Set("chase_threads", JsonValue::Number(int64_t{4}));
  return p;
}

// Engine-deterministic signature of a canonical census (cdd index,
// matched atoms, support atoms). Comparable between a live session and
// its replay cursor: both run the same engine kind over identically
// interned tables, so even inspection-chase atom ids coincide.
std::string CensusSignature(const std::vector<Conflict>& census) {
  std::ostringstream out;
  for (const Conflict& conflict : census) {
    out << conflict.cdd_index << ":m[";
    for (AtomId id : conflict.matched) out << id << ",";
    out << "]s[";
    for (AtomId id : conflict.support) out << id << ",";
    out << "];";
  }
  return out.str();
}

// A live dialogue driven exactly as the service would run it, capturing
// what the debugger must later reproduce: the transcript entries, the
// census after every answer (index k = census at position k), and the
// final content hash.
struct LiveRecording {
  JsonValue params = JsonValue::Null();
  std::vector<JsonValue> entries;
  std::vector<std::string> censuses;
  std::vector<int> phases;  // phase of each answered question
  uint64_t final_hash = 0;
};

StatusOr<LiveRecording> RecordDialogue(const JsonValue& params) {
  LiveRecording rec;
  rec.params = params;
  std::string label;
  KBREPAIR_ASSIGN_OR_RETURN(KnowledgeBase kb, BuildKbFromParams(params, &label));
  KBREPAIR_ASSIGN_OR_RETURN(InquiryOptions options,
                            InquiryOptionsFromParams(params));
  InquiryEngine engine(&kb, options);
  KBREPAIR_RETURN_IF_ERROR(engine.Begin());
  Rng chooser(static_cast<uint64_t>(params.Get("kb_seed").AsInt()) * 101 + 13);
  {
    KBREPAIR_ASSIGN_OR_RETURN(std::vector<Conflict> census,
                              engine.InspectCensus());
    rec.censuses.push_back(CensusSignature(census));
  }
  while (true) {
    KBREPAIR_ASSIGN_OR_RETURN(const Question* question, engine.NextQuestion());
    if (question == nullptr) break;
    const size_t choice = chooser.UniformIndex(question->fixes.size());
    rec.entries.push_back(SessionTranscript::EntryToJson(
        TranscriptEntry{*question, choice}, kb.symbols()));
    KBREPAIR_RETURN_IF_ERROR(engine.Answer(choice));
    rec.phases.push_back(engine.progress().records.back().phase);
    KBREPAIR_ASSIGN_OR_RETURN(std::vector<Conflict> census,
                              engine.InspectCensus());
    rec.censuses.push_back(CensusSignature(census));
  }
  rec.final_hash = engine.working_facts().ContentHash(kb.symbols());
  return rec;
}

std::string CaseName(const ::testing::TestParamInfo<MatrixCase>& info) {
  const MatrixCase& c = info.param;
  std::string name = StrategyName(c.strategy);
  for (char& ch : name) {
    if (ch == '-') ch = '_';
  }
  name += c.two_phase ? "_2ph" : "_basic";
  name += c.with_tgds ? "_tgd" : "_flat";
  name += "_s" + std::to_string(c.seed);
  return name;
}

class DebugTimelineMatrix : public ::testing::TestWithParam<MatrixCase> {};

TEST_P(DebugTimelineMatrix, ReplaysSeeksAndForks) {
  const MatrixCase& param = GetParam();
  const JsonValue params = CreateParams(param);
  StatusOr<LiveRecording> live = RecordDialogue(params);
  ASSERT_TRUE(live.ok()) << live.status();
  ASSERT_FALSE(live->entries.empty()) << "generator produced a consistent KB";

  // Round-trip through a real on-disk WAL so the coordinates the loader
  // reports are the file's actual ones.
  char dirbuf[] = "/tmp/kbrepair_debug_test_XXXXXX";
  ASSERT_NE(::mkdtemp(dirbuf), nullptr);
  const std::string dir = dirbuf;
  const std::string wal_path = dir + "/case.wal";
  {
    StatusOr<std::unique_ptr<SessionWal>> wal = SessionWal::Open(dir, "case");
    ASSERT_TRUE(wal.ok()) << wal.status();
    ASSERT_TRUE((*wal)->Append(SessionWal::CreateRecord(params)).ok());
    for (const JsonValue& entry : live->entries) {
      ASSERT_TRUE((*wal)->Append(SessionWal::AnswerRecord(entry)).ok());
    }
  }
  StatusOr<RecordedSession> recorded = LoadRecordedSession(wal_path);
  ::unlink(wal_path.c_str());
  ::rmdir(dir.c_str());
  ASSERT_TRUE(recorded.ok()) << recorded.status();
  EXPECT_EQ(recorded->session_id, "case");
  ASSERT_EQ(recorded->steps.size(), live->entries.size());
  for (size_t i = 0; i < recorded->steps.size(); ++i) {
    EXPECT_EQ(recorded->steps[i].entry.Dump(), live->entries[i].Dump())
        << "entry " << i;
    // Line 1 is the header, line 2 the create record.
    EXPECT_EQ(recorded->steps[i].record_index, i + 3) << "entry " << i;
    if (i > 0) {
      EXPECT_GT(recorded->steps[i].byte_offset,
                recorded->steps[i - 1].byte_offset)
          << "entry " << i;
    }
  }

  // Byte-identical replay, recorded engine.
  TimelineOptions options;
  options.checkpoint_every = 4;
  StatusOr<SessionTimeline> timeline =
      SessionTimeline::Create(*recorded, options);
  ASSERT_TRUE(timeline.ok()) << timeline.status();
  EXPECT_EQ(timeline->num_entries(), live->entries.size());
  EXPECT_EQ(timeline->num_questions(), live->entries.size());
  {
    const Status verified = timeline->ReplayVerify();
    ASSERT_TRUE(verified.ok()) << verified;
  }
  ASSERT_TRUE(timeline->SeekTo(timeline->num_entries()).ok());
  EXPECT_EQ(timeline->StateHash(), live->final_hash);
  {
    StatusOr<std::vector<Conflict>> census = timeline->Census();
    ASSERT_TRUE(census.ok()) << census.status();
    EXPECT_EQ(CensusSignature(*census), live->censuses.back());
    EXPECT_TRUE(census->empty());
  }

  // Backward seek to a random interior step: the census there must be
  // exactly what the live session reported.
  Rng rng(param.seed * 977 + static_cast<uint64_t>(param.strategy) * 31 +
          (param.two_phase ? 7 : 0) + (param.with_tgds ? 3 : 0));
  const size_t interior = rng.UniformIndex(timeline->num_entries());
  ASSERT_TRUE(timeline->SeekTo(interior).ok());
  EXPECT_EQ(timeline->position(), interior);
  {
    StatusOr<std::vector<Conflict>> census = timeline->Census();
    ASSERT_TRUE(census.ok()) << census.status();
    EXPECT_EQ(CensusSignature(*census), live->censuses[interior])
        << "census mismatch after backward seek to " << interior;
  }
  if (interior > 0) {
    ASSERT_TRUE(timeline->StepBack().ok());
    StatusOr<std::vector<Conflict>> census = timeline->Census();
    ASSERT_TRUE(census.ok()) << census.status();
    EXPECT_EQ(CensusSignature(*census), live->censuses[interior - 1]);
    ASSERT_TRUE(timeline->StepForward().ok());
    census = timeline->Census();
    ASSERT_TRUE(census.ok()) << census.status();
    EXPECT_EQ(CensusSignature(*census), live->censuses[interior]);
  }

  // The same WAL through the *other* engine: byte-identical transcript
  // and final state (the cross-engine replay envelope).
  {
    TimelineOptions cross;
    cross.engine_override = "incremental";
    cross.checkpoint_every = 0;
    StatusOr<SessionTimeline> other =
        SessionTimeline::Create(*recorded, cross);
    ASSERT_TRUE(other.ok()) << other.status();
    const Status verified = other->ReplayVerify();
    ASSERT_TRUE(verified.ok()) << verified;
    ASSERT_TRUE(other->SeekTo(other->num_entries()).ok());
    EXPECT_EQ(other->StateHash(), live->final_hash);
  }

  // Fork with a flipped answer at the interior step; the branch runs
  // through the real engine and its transcript must itself be a
  // deterministic replayable session ending consistent — on both
  // engines.
  const StepNote& note = timeline->note(interior);
  const size_t alt =
      note.num_fixes > 1 ? (note.chosen + 1) % note.num_fixes : 0;
  StatusOr<ForkBranch> branch =
      timeline->Fork(interior, alt, param.seed * 5 + 1);
  ASSERT_TRUE(branch.ok()) << branch.status();
  EXPECT_TRUE(branch->completed);
  EXPECT_GE(branch->num_questions, 1u);
  EXPECT_EQ(branch->entries.size(), interior + branch->num_questions);
  for (const char* engine : {"scratch", "incremental"}) {
    TimelineOptions branch_options;
    branch_options.engine_override = engine;
    branch_options.checkpoint_every = 0;
    StatusOr<SessionTimeline> verify = SessionTimeline::Create(
        RecordedSessionFromEntries(params, branch->entries), branch_options);
    ASSERT_TRUE(verify.ok()) << engine << ": " << verify.status();
    const Status verified = verify->ReplayVerify();
    ASSERT_TRUE(verified.ok()) << engine << ": " << verified;
    ASSERT_TRUE(verify->SeekTo(verify->num_entries()).ok());
    EXPECT_EQ(verify->StateHash(), branch->final_state_hash) << engine;
    StatusOr<std::vector<Conflict>> census = verify->Census();
    ASSERT_TRUE(census.ok()) << census.status();
    EXPECT_TRUE(census->empty()) << engine << ": branch ended inconsistent";
  }

  // The fork left the main cursor where it was.
  EXPECT_EQ(timeline->position(), interior);
}

std::vector<MatrixCase> MakeCases() {
  std::vector<MatrixCase> cases;
  const Strategy strategies[] = {Strategy::kRandom, Strategy::kOptiJoin,
                                 Strategy::kOptiProp, Strategy::kOptiMcd};
  for (const Strategy strategy : strategies) {
    for (const bool two_phase : {false, true}) {
      for (const bool with_tgds : {false, true}) {
        for (uint64_t seed = 1; seed <= 13; ++seed) {
          cases.push_back({seed, strategy, two_phase, with_tgds});
        }
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, DebugTimelineMatrix,
                         ::testing::ValuesIn(MakeCases()), CaseName);

class DebugTimelineTest : public ::testing::Test {
 protected:
  void TearDown() override { failpoint::Reset(); }

  static MatrixCase BaseCase() {
    return {3, Strategy::kOptiMcd, /*two_phase=*/true, /*with_tgds=*/true};
  }
};

// An fsync-ghost (exact duplicate record, question regenerates
// differently) is skipped by the timeline exactly as daemon recovery
// skips it.
TEST_F(DebugTimelineTest, GhostDuplicateEntryIsSkipped) {
  const JsonValue params = CreateParams(BaseCase());
  StatusOr<LiveRecording> live = RecordDialogue(params);
  ASSERT_TRUE(live.ok()) << live.status();
  ASSERT_GE(live->entries.size(), 2u);
  std::vector<JsonValue> entries = live->entries;
  const size_t dup_at = entries.size() / 2;
  entries.insert(entries.begin() + dup_at, entries[dup_at]);

  StatusOr<SessionTimeline> timeline = SessionTimeline::Create(
      RecordedSessionFromEntries(params, entries), TimelineOptions{});
  ASSERT_TRUE(timeline.ok()) << timeline.status();
  EXPECT_EQ(timeline->num_entries(), live->entries.size() + 1);
  EXPECT_EQ(timeline->num_questions(), live->entries.size());
  EXPECT_TRUE(timeline->note(dup_at + 1).ghost);
  const Status verified = timeline->ReplayVerify();
  ASSERT_TRUE(verified.ok()) << verified;
  ASSERT_TRUE(timeline->SeekTo(timeline->num_entries()).ok());
  EXPECT_EQ(timeline->StateHash(), live->final_hash);
}

// A recording that does not replay (tampered answer payload) fails
// Create with the WAL coordinates in the message.
TEST_F(DebugTimelineTest, NonReplayableRecordingNamesTheRecord) {
  const JsonValue params = CreateParams(BaseCase());
  StatusOr<LiveRecording> live = RecordDialogue(params);
  ASSERT_TRUE(live.ok()) << live.status();
  ASSERT_GE(live->entries.size(), 2u);
  std::vector<JsonValue> entries = live->entries;
  // Out-of-range chosen index: structurally invalid.
  entries[1].Set("chosen", JsonValue::Number(int64_t{999}));
  StatusOr<SessionTimeline> timeline = SessionTimeline::Create(
      RecordedSessionFromEntries(params, entries), TimelineOptions{});
  ASSERT_FALSE(timeline.ok());
  EXPECT_NE(timeline.status().message().find("entry 2"), std::string::npos)
      << timeline.status();
}

TEST_F(DebugTimelineTest, BaseForkedRecordingsAreRejected) {
  JsonValue params = CreateParams(BaseCase());
  params.Set("base", JsonValue::String("b-1"));
  RecordedSession recorded =
      RecordedSessionFromEntries(params, std::vector<JsonValue>());
  StatusOr<SessionTimeline> timeline =
      SessionTimeline::Create(std::move(recorded), TimelineOptions{});
  ASSERT_FALSE(timeline.ok());
  EXPECT_NE(timeline.status().message().find("base"), std::string::npos);
}

TEST_F(DebugTimelineTest, ForkAtConsistentEndIsRejected) {
  const JsonValue params = CreateParams(BaseCase());
  StatusOr<LiveRecording> live = RecordDialogue(params);
  ASSERT_TRUE(live.ok()) << live.status();
  StatusOr<SessionTimeline> timeline = SessionTimeline::Create(
      RecordedSessionFromEntries(params, live->entries), TimelineOptions{});
  ASSERT_TRUE(timeline.ok()) << timeline.status();
  StatusOr<ForkBranch> branch =
      timeline->Fork(timeline->num_entries(), 0, 1);
  ASSERT_FALSE(branch.ok());
  EXPECT_NE(branch.status().message().find("consistent"), std::string::npos);
}

// Two healthy engines agree on every step of a healthy recording.
TEST_F(DebugTimelineTest, DiffEnginesAgreeOnHealthyRecording) {
  const JsonValue params = CreateParams(BaseCase());
  StatusOr<LiveRecording> live = RecordDialogue(params);
  ASSERT_TRUE(live.ok()) << live.status();
  const RecordedSession recorded =
      RecordedSessionFromEntries(params, live->entries);
  StatusOr<EngineDivergence> result = DiffEngines(recorded);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_FALSE(result->diverged) << result->reason;
}

// Tampering a mid-recording answer makes the tail unreplayable for BOTH
// engines; diff-engines pinpoints the first step after the tamper.
TEST_F(DebugTimelineTest, DiffEnginesPinpointsTamperedStep) {
  const JsonValue params = CreateParams(BaseCase());
  StatusOr<LiveRecording> live = RecordDialogue(params);
  ASSERT_TRUE(live.ok()) << live.status();
  std::vector<JsonValue> entries = live->entries;
  // Find an interior step whose question offers an alternative.
  size_t tamper = entries.size();
  for (size_t i = 0; i + 1 < entries.size(); ++i) {
    const JsonValue& fixes = entries[i].Get("question").Get("fixes");
    if (fixes.is_array() && fixes.size() > 1) {
      tamper = i;
      break;
    }
  }
  ASSERT_LT(tamper, entries.size()) << "no multi-fix interior question";
  const size_t original =
      static_cast<size_t>(entries[tamper].Get("chosen").AsInt(0));
  const size_t flipped =
      (original + 1) % entries[tamper].Get("question").Get("fixes").size();
  entries[tamper].Set("chosen",
                      JsonValue::Number(static_cast<int64_t>(flipped)));

  const RecordedSession recorded = RecordedSessionFromEntries(params, entries);
  StatusOr<EngineDivergence> result = DiffEngines(recorded);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_TRUE(result->diverged);
  // The tampered entry itself still replays (the flipped fix is one of
  // the question's own), so the first divergence is strictly after it —
  // typically the next entry, later if the flipped answer happens not
  // to affect the immediately following questions.
  EXPECT_GE(result->step, tamper + 2) << result->reason;
  EXPECT_LE(result->step, entries.size()) << result->reason;
  EXPECT_NE(result->reason.find("both engines"), std::string::npos)
      << result->reason;
}

// With the delta census failpoint armed, the incremental engine's
// census silently loses a conflict while scratch keeps matching the
// recording: diff-engines must blame the incremental side.
TEST_F(DebugTimelineTest, DiffEnginesBlamesFailpointedIncrementalEngine) {
  // The drop only perturbs questions selected from the maintained
  // phase-two census, so hunt the matrix for a dialogue that ends in
  // phase two: its final answer resolves the last chased conflict,
  // which the failpointed incremental engine no longer sees.
  JsonValue params = JsonValue::Null();
  std::optional<LiveRecording> live;
  for (uint64_t seed = 1; seed <= 13 && !live; ++seed) {
    MatrixCase c{seed, Strategy::kOptiMcd, /*two_phase=*/true,
                 /*with_tgds=*/true};
    JsonValue candidate_params = CreateParams(c);
    StatusOr<LiveRecording> candidate = RecordDialogue(candidate_params);
    ASSERT_TRUE(candidate.ok()) << candidate.status();
    if (!candidate->phases.empty() && candidate->phases.back() == 2) {
      params = std::move(candidate_params);
      live.emplace(std::move(*candidate));
    }
  }
  ASSERT_TRUE(live.has_value()) << "no matrix dialogue ends in phase two";
  const RecordedSession recorded =
      RecordedSessionFromEntries(params, live->entries);

  failpoint::Arm("delta.census_drop", /*skip=*/0, /*fail=*/-1);
  StatusOr<EngineDivergence> result = DiffEngines(recorded);
  failpoint::Reset();
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_TRUE(result->diverged) << "census drop did not perturb the dialogue";
  EXPECT_NE(result->reason.find("incremental"), std::string::npos)
      << result->reason;
  EXPECT_NE(result->reason.find("scratch still matches"), std::string::npos)
      << result->reason;
}

}  // namespace
}  // namespace debug
}  // namespace kbrepair
