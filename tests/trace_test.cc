// Tests for util/trace: phase accounting, span-tree well-formedness,
// drain semantics, and the disabled-path cost contract.
//
// The recorder is process-global, so every test that enables it also
// disables it before returning; tests run sequentially in one process.

#include "util/trace.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <new>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "util/json.h"
#include "service_test_util.h"

// Counting global allocator for the zero-allocation contract below.
// Only the delta between two reads matters, so gtest's own allocations
// are harmless.
namespace {
std::atomic<size_t> g_allocation_count{0};
}  // namespace

void* operator new(size_t size) {
  g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  void* ptr = std::malloc(size);
  if (ptr == nullptr) throw std::bad_alloc();
  return ptr;
}

// std::stable_sort's temporary buffer allocates through the nothrow
// form; it must come from malloc too, or the free() below mismatches
// the toolchain's own allocator.
void* operator new(size_t size, const std::nothrow_t&) noexcept {
  g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}

void operator delete(void* ptr) noexcept { std::free(ptr); }
void operator delete(void* ptr, size_t) noexcept { std::free(ptr); }

namespace kbrepair {
namespace trace {
namespace {

// Spins (rather than sleeps) so the span is guaranteed a non-zero
// duration on coarse clocks without slowing the suite down.
void BusyWork() {
  const auto start = std::chrono::steady_clock::now();
  while (std::chrono::steady_clock::now() - start <
         std::chrono::microseconds(50)) {
  }
}

TEST(PhaseTotalsTest, SinceAndAddAreComponentWise) {
  PhaseTotals a;
  a.seconds[static_cast<size_t>(Phase::kChase)] = 2.0;
  a.seconds[static_cast<size_t>(Phase::kWalAppend)] = 0.5;
  PhaseTotals b = a;
  b.seconds[static_cast<size_t>(Phase::kChase)] = 3.0;
  const PhaseTotals delta = b.Since(a);
  EXPECT_DOUBLE_EQ(delta.seconds[static_cast<size_t>(Phase::kChase)], 1.0);
  EXPECT_DOUBLE_EQ(delta.seconds[static_cast<size_t>(Phase::kWalAppend)], 0.0);
  EXPECT_DOUBLE_EQ(delta.TotalSeconds(), 1.0);

  PhaseTotals sum;
  sum.Add(a);
  sum.Add(delta);
  EXPECT_DOUBLE_EQ(sum.seconds[static_cast<size_t>(Phase::kChase)], 3.0);
}

TEST(PhaseAccountingTest, ScopedSpanFeedsThreadAccumulatorWhenDisabled) {
  ASSERT_FALSE(Recorder::enabled());
  const PhaseTotals before = ThreadPhaseTotals();
  {
    ScopedSpan span("test.chase", Phase::kChase);
    BusyWork();
  }
  const PhaseTotals delta = ThreadPhaseTotals().Since(before);
  EXPECT_GT(delta.seconds[static_cast<size_t>(Phase::kChase)], 0.0);
  EXPECT_DOUBLE_EQ(delta.seconds[static_cast<size_t>(Phase::kWalAppend)], 0.0);
}

TEST(PhaseAccountingTest, NestedPhasesAttributeInclusively) {
  const PhaseTotals before = ThreadPhaseTotals();
  {
    ScopedSpan outer("test.question_gen", Phase::kQuestionGen);
    {
      ScopedSpan inner("test.chase", Phase::kChase);
      BusyWork();
    }
  }
  const PhaseTotals delta = ThreadPhaseTotals().Since(before);
  const double gen = delta.seconds[static_cast<size_t>(Phase::kQuestionGen)];
  const double chase = delta.seconds[static_cast<size_t>(Phase::kChase)];
  EXPECT_GT(chase, 0.0);
  // Inclusive attribution: the outer phase covers (at least) the time
  // spent in the nested chase.
  EXPECT_GE(gen, chase);
}

TEST(PhaseAccountingTest, KNoneSpansLeaveTheAccumulatorUntouched) {
  const PhaseTotals before = ThreadPhaseTotals();
  {
    ScopedSpan span("test.rpc");
    BusyWork();
  }
  EXPECT_DOUBLE_EQ(ThreadPhaseTotals().Since(before).TotalSeconds(), 0.0);
}

TEST(RecorderTest, DisabledDrainIsEmpty) {
  ASSERT_FALSE(Recorder::enabled());
  {
    ScopedSpan span("test.invisible", Phase::kChase);
    BusyWork();
  }
  EXPECT_TRUE(Recorder::Instance().Drain().empty());
}

TEST(RecorderTest, SpanTreeIsWellFormed) {
  Recorder::Instance().Enable("");
  {
    ScopedSpan root("test.root");
    {
      ScopedSpan child("test.child", Phase::kChase);
      { ScopedSpan grandchild("test.grandchild", Phase::kConflictScan); }
      BusyWork();
    }
    { ScopedSpan sibling("test.sibling", Phase::kWalAppend); }
  }
  std::vector<SpanRecord> spans = Recorder::Instance().Drain();
  Recorder::Instance().Disable();
  ASSERT_EQ(spans.size(), 4u);

  // Ids are creation-ordered, so every parent id is smaller than its
  // children's ids. (Drain order is start-time order at µs resolution;
  // same-microsecond spans may surface child-first, so resolve parents
  // against the full id set.)
  std::set<uint64_t> ids;
  uint64_t root_id = 0;
  for (const SpanRecord& span : spans) {
    EXPECT_TRUE(ids.insert(span.id).second) << "duplicate id " << span.id;
    if (span.parent == 0) root_id = span.id;
  }
  ASSERT_NE(root_id, 0u);
  for (const SpanRecord& span : spans) {
    if (span.parent != 0) {
      EXPECT_LT(span.parent, span.id);
      EXPECT_TRUE(ids.count(span.parent)) << span.name;
    }
  }

  for (const SpanRecord& span : spans) {
    if (std::string(span.name) == "test.root") {
      EXPECT_EQ(span.parent, 0u);
      EXPECT_EQ(span.phase, Phase::kNone);
    } else if (std::string(span.name) == "test.child" ||
               std::string(span.name) == "test.sibling") {
      EXPECT_EQ(span.parent, root_id);
    } else if (std::string(span.name) == "test.grandchild") {
      EXPECT_NE(span.parent, root_id);
      EXPECT_NE(span.parent, 0u);
    }
    // Every child interval nests inside its parent's.
    for (const SpanRecord& parent : spans) {
      if (parent.id != span.parent) continue;
      EXPECT_GE(span.start_us, parent.start_us);
      EXPECT_LE(span.start_us + span.duration_us,
                parent.start_us + parent.duration_us);
    }
  }

  // A second drain has nothing left.
  Recorder::Instance().Enable("");
  EXPECT_TRUE(Recorder::Instance().Drain().empty());
  Recorder::Instance().Disable();
}

TEST(RecorderTest, AnnotationsAndJsonRoundTrip) {
  Recorder::Instance().Enable("");
  {
    ScopedSpan span("test.annotated", Phase::kWalAppend);
    ASSERT_TRUE(span.recording());
    span.Annotate("session=s1");
    span.Annotate("bytes=42");
  }
  std::vector<SpanRecord> spans = Recorder::Instance().Drain();
  Recorder::Instance().Disable();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].detail, "session=s1 bytes=42");

  StatusOr<JsonValue> parsed = JsonValue::Parse(SpanToJsonLine(spans[0]));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->Get("name").AsString(), "test.annotated");
  EXPECT_EQ(parsed->Get("phase").AsString(), "wal_append");
  EXPECT_EQ(parsed->Get("detail").AsString(), "session=s1 bytes=42");
  EXPECT_EQ(parsed->Get("id").AsInt(), static_cast<int64_t>(spans[0].id));
  EXPECT_GE(parsed->Get("dur_us").AsInt(-1), 0);
}

TEST(RecorderTest, SpansFromExitedThreadsSurviveInOrphanBuffer) {
  Recorder::Instance().Enable("");
  std::thread worker([] {
    ScopedSpan span("test.worker", Phase::kDeltaChase);
    BusyWork();
  });
  worker.join();  // thread destructor moves its buffer to orphans
  std::vector<SpanRecord> spans = Recorder::Instance().Drain();
  Recorder::Instance().Disable();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_STREQ(spans[0].name, "test.worker");
  EXPECT_GT(spans[0].thread, 0u);
}

TEST(RecorderTest, SpanOpenAcrossDisableIsDropped) {
  Recorder::Instance().Enable("");
  std::optional<ScopedSpan> span;
  span.emplace("test.straddler", Phase::kChase);
  ASSERT_TRUE(span->recording());
  Recorder::Instance().Disable();
  span.reset();  // closes after Disable: must not be buffered
  Recorder::Instance().Enable("");
  EXPECT_TRUE(Recorder::Instance().Drain().empty());
  Recorder::Instance().Disable();
}

TEST(RecorderTest, DrainToFileWritesParseableJsonLines) {
  TempDir dir;
  Recorder::Instance().Enable(dir.path);
  ASSERT_TRUE(Recorder::Instance().has_sink());
  {
    ScopedSpan outer("test.file_outer");
    ScopedSpan inner("test.file_inner", Phase::kChase);
    BusyWork();
  }
  std::vector<SpanRecord> drained;
  StatusOr<std::string> path = Recorder::Instance().DrainToFile(&drained);
  Recorder::Instance().Disable();
  ASSERT_TRUE(path.ok()) << path.status();
  EXPECT_EQ(drained.size(), 2u);

  std::ifstream file(*path);
  ASSERT_TRUE(file.good()) << "cannot open " << *path;
  size_t lines = 0;
  std::string line;
  while (std::getline(file, line)) {
    if (line.empty()) continue;
    ++lines;
    StatusOr<JsonValue> parsed = JsonValue::Parse(line);
    ASSERT_TRUE(parsed.ok()) << parsed.status() << " line: " << line;
    EXPECT_FALSE(parsed->Get("name").AsString().empty());
  }
  EXPECT_EQ(lines, 2u);
}

TEST(RecorderTest, DrainToFileWithoutSinkIsInvalidArgument) {
  Recorder::Instance().Enable("");
  StatusOr<std::string> path = Recorder::Instance().DrainToFile();
  Recorder::Instance().Disable();
  EXPECT_FALSE(path.ok());
}

TEST(RecorderTest, DisabledSpansAllocateNothing) {
  ASSERT_FALSE(Recorder::enabled());
  // Pre-build the annotation outside the measured window; the contract
  // is that a disabled span site — guard included — costs no
  // allocations, which is what the < 2% delta_chase budget rests on.
  const std::string detail = "session=precomputed";
  const size_t before = g_allocation_count.load(std::memory_order_relaxed);
  for (int i = 0; i < 100; ++i) {
    ScopedSpan span("test.disabled", Phase::kChase);
    if (span.recording()) span.Annotate(detail);
  }
  const size_t after = g_allocation_count.load(std::memory_order_relaxed);
  EXPECT_EQ(after, before);
}

}  // namespace
}  // namespace trace
}  // namespace kbrepair
