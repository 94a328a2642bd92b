// Tests for the benchmark's own statistics: raw-sample quantiles and the
// p99 sample rule, span self time, and the SLO ladder rule and search.
// Plain asserts, no framework: `kbbench_test` exits 0 when all pass.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "slo.h"
#include "spans.h"
#include "stats.h"

namespace {

int failures = 0;

#define EXPECT(cond)                                              \
  do {                                                            \
    if (!(cond)) {                                                \
      std::fprintf(stderr, "%s:%d: FAILED %s\n", __FILE__, __LINE__, \
                   #cond);                                        \
      ++failures;                                                 \
    }                                                             \
  } while (0)

using kbbench::Samples;
using kbbench::Span;

Samples OneToN(int n) {
  Samples samples;
  for (int i = n; i >= 1; --i) samples.Add(i);  // unsorted on purpose
  return samples;
}

void TestNearestRank() {
  const Samples s = OneToN(10);
  EXPECT(s.Quantile(0.5) == 5);
  EXPECT(s.Quantile(0.0) == 1);
  EXPECT(s.Quantile(1.0) == 10);
  EXPECT(s.Quantile(0.91) == 10);
  EXPECT(s.Quantile(0.9) == 9);
  // Not snapped to a power of two, not interpolated.
  Samples odd;
  for (double v : {6.2, 3.0, 9.7}) odd.Add(v);
  EXPECT(odd.Quantile(0.5) == 6.2);
}

void TestP99NeedsTenBeyond() {
  // 999 samples: rank ceil(989.01) = 990, so 9 samples lie beyond.
  EXPECT(OneToN(999).CountBeyond(0.99) == 9);
  EXPECT(!OneToN(999).TailQuantile(0.99).has_value());
  // 1000 samples: rank 990, exactly 10 beyond.
  const Samples s = OneToN(1000);
  EXPECT(s.CountBeyond(0.99) == 10);
  EXPECT(s.TailQuantile(0.99).has_value());
  EXPECT(*s.TailQuantile(0.99) == 990);
  // The median is defined from a single sample.
  EXPECT(OneToN(1).TailQuantile(0.5) == std::nullopt);
  EXPECT(OneToN(21).TailQuantile(0.5).value_or(-1) == 11);
}

void TestSelfTimeNested() {
  // root [0,100) with children [10,30) and [50,60); grandchild [12,20).
  const std::vector<Span> spans = {
      {1, 0, "root", 0, 100, ""},
      {2, 1, "a", 10, 20, ""},
      {3, 1, "b", 50, 10, ""},
      {4, 2, "c", 12, 8, ""},
  };
  const std::vector<int64_t> self = kbbench::SelfTimesUs(spans);
  EXPECT(self[0] == 70);
  EXPECT(self[1] == 12);
  EXPECT(self[2] == 10);
  EXPECT(self[3] == 8);
}

void TestSelfTimeOverlappingChildren() {
  // Children [10,40) and [30,60) overlap on [30,40): covered is 50, not
  // 60. A child running past its parent's end is clipped.
  const std::vector<Span> spans = {
      {1, 0, "root", 0, 100, ""},
      {2, 1, "a", 10, 30, ""},
      {3, 1, "b", 30, 30, ""},
      {4, 1, "late", 90, 50, ""},
  };
  const std::vector<int64_t> self = kbbench::SelfTimesUs(spans);
  EXPECT(self[0] == 100 - 50 - 10);
  // Fully overlapping children never make self time negative.
  const std::vector<Span> same = {
      {1, 0, "root", 0, 10, ""},
      {2, 1, "a", 0, 10, ""},
      {3, 1, "b", 0, 10, ""},
  };
  EXPECT(kbbench::SelfTimesUs(same)[0] == 0);

  kbbench::SelfTotals totals;
  totals.Add(spans);
  EXPECT(totals.SelfUs("root") == 40);
  EXPECT(totals.SelfUs("missing") == 0);
}

void TestDetailValue() {
  EXPECT(kbbench::DetailValue("session=s-3 step=7", "step") == "7");
  EXPECT(kbbench::DetailValue("session=s-3 step=7", "session") == "s-3");
  EXPECT(kbbench::DetailValue("session=s-3", "step").empty());
}

void TestLadderRungs() {
  const std::vector<double> rungs = kbbench::GeometricLadder(10, 20, 1.05);
  EXPECT(rungs.front() == 10);
  EXPECT(rungs.back() >= 20);
  EXPECT(rungs[rungs.size() - 2] < 20);
  for (size_t i = 1; i < rungs.size(); ++i) {
    EXPECT(rungs[i] / rungs[i - 1] <= kbbench::kMaxRungRatio + 1e-12);
  }
  EXPECT(kbbench::GeometricLadder(10, 20, 1.06).empty());
}

kbbench::RungResult Rung(double rate, double p99, double mid, double end,
                         size_t refused = 0) {
  kbbench::RungResult rung;
  rung.rate = rate;
  rung.turn_p99_ms = p99;
  rung.backlog_mid = mid;
  rung.backlog_end = end;
  rung.refused = refused;
  return rung;
}

void TestRungRule() {
  EXPECT(kbbench::MeetsSlo(Rung(10, 49.0, 5, 5), 50));
  EXPECT(kbbench::MeetsSlo(Rung(10, 50.0, 5, 5), 50));
  EXPECT(!kbbench::MeetsSlo(Rung(10, 50.1, 5, 5), 50));
  // A refused request misses the SLO.
  EXPECT(!kbbench::MeetsSlo(Rung(10, 1.0, 5, 5, /*refused=*/1), 50));
  // No p99 (too few samples beyond it) is not a pass.
  kbbench::RungResult thin = Rung(10, 1.0, 5, 5);
  thin.turn_p99_ms.reset();
  EXPECT(!kbbench::MeetsSlo(thin, 50));
  // Backlog: +1 session of jitter is not growth; doubling is.
  EXPECT(!kbbench::BacklogGrows(1.0, 2.0));
  EXPECT(!kbbench::BacklogGrows(10.0, 12.0));
  EXPECT(kbbench::BacklogGrows(10.0, 20.0));
  EXPECT(!kbbench::MeetsSlo(Rung(10, 1.0, 10, 20), 50));
}

void TestLadderSearch() {
  const std::vector<double> rungs = kbbench::GeometricLadder(1, 100, 1.05);
  // Capacity at 37 sessions/s: the search must report the highest rung
  // <= 37, probe O(log n) rungs and never report a failing rung.
  auto probe = [](double rate) {
    return rate <= 37.0 ? Rung(rate, 10, 5, 5) : Rung(rate, 10, 5, 50);
  };
  const kbbench::LadderOutcome outcome =
      kbbench::SearchLadder(rungs, 50, probe);
  EXPECT(outcome.best.has_value());
  EXPECT(rungs[*outcome.best] <= 37.0);
  EXPECT(rungs[*outcome.best + 1] > 37.0);
  EXPECT(outcome.probes.size() <=
         static_cast<size_t>(std::ceil(std::log2(rungs.size() + 1))));

  // Everything passes: the top rung. Nothing passes: no capacity.
  const auto all = kbbench::SearchLadder(
      rungs, 50, [](double rate) { return Rung(rate, 1, 1, 1); });
  EXPECT(all.best == rungs.size() - 1);
  const auto none = kbbench::SearchLadder(
      rungs, 50, [](double rate) { return Rung(rate, 99, 1, 1); });
  EXPECT(!none.best.has_value());
  EXPECT(none.probes.back().rate == rungs.front());
}

}  // namespace

int main() {
  TestNearestRank();
  TestP99NeedsTenBeyond();
  TestSelfTimeNested();
  TestSelfTimeOverlappingChildren();
  TestDetailValue();
  TestLadderRungs();
  TestRungRule();
  TestLadderSearch();
  if (failures != 0) {
    std::fprintf(stderr, "%d check(s) failed\n", failures);
    return EXIT_FAILURE;
  }
  std::printf("kbbench_test: all checks passed\n");
  return EXIT_SUCCESS;
}
