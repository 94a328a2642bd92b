// End-to-end tracing smoke test (the CTest half of the ISSUE 4
// acceptance criterion): an in-process SessionManager with a trace sink
// drives three sessions through create/ask/answer/close; the `trace`
// command must return a well-formed span tree covering scheduler →
// session → inquiry → chase → WAL, the sink file must hold the same
// spans as parseable JSON lines, and `metrics` must report the
// random/scratch label pair with coherent phase histograms.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdlib>
#include <fstream>
#include <string>

#include "service/daemon_client.h"
#include "service/session_manager.h"
#include "util/json.h"
#include "util/trace.h"
#include "service_test_util.h"

namespace kbrepair {
namespace {

// Drives one session for up to `turns` questions and closes it.
void DriveSession(SessionManager& manager, uint64_t seed, int turns) {
  StatusOr<JsonValue> created =
      manager.Execute(MakeRequest(SyntheticCreate(seed, 40)));
  ASSERT_TRUE(created.ok()) << created.status();
  const std::string session = created->Get("session").AsString();
  for (int turn = 0; turn < turns; ++turn) {
    StatusOr<JsonValue> asked =
        manager.Execute(SessionCommand("ask", session));
    ASSERT_TRUE(asked.ok()) << asked.status();
    if (asked->Get("done").AsBool(false)) break;
    ASSERT_GE(asked->Get("question").Get("num_fixes").AsInt(0), 1);
    ASSERT_TRUE(manager.Execute(AnswerCommand(session, 0)).ok());
  }
  ASSERT_TRUE(manager.Execute(SessionCommand("close", session)).ok());
}

void ExpectQuantilesCoherent(const JsonValue& histogram) {
  ASSERT_TRUE(histogram.is_object());
  EXPECT_GE(histogram.Get("count").AsInt(0), 1);
  const double p50 = histogram.Get("p50_ms").AsDouble(-1.0);
  const double p95 = histogram.Get("p95_ms").AsDouble(-1.0);
  const double max = histogram.Get("max_ms").AsDouble(-1.0);
  const double min = histogram.Get("min_ms").AsDouble(-1.0);
  EXPECT_GE(min, 0.0);
  EXPECT_LE(min, p50);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, max);
}

TEST(TraceServiceTest, ThreeSessionRunYieldsSpanTreeAndLabeledMetrics) {
  TempDir trace_dir;
  TempDir wal_dir;
  ServiceConfig config;
  config.num_workers = 2;
  config.trace_dir = trace_dir.path;
  config.wal_dir = wal_dir.path;
  SessionManager manager(config);
  ASSERT_TRUE(trace::Recorder::enabled());

  for (uint64_t seed : {101u, 202u, 303u}) {
    DriveSession(manager, seed, /*turns=*/4);
  }

  // --- the `trace` wire command drains to the sink and echoes spans.
  JsonValue trace_params = JsonValue::Object();
  trace_params.Set("command", JsonValue::String("trace"));
  trace_params.Set("limit", JsonValue::Number(static_cast<int64_t>(1 << 20)));
  StatusOr<JsonValue> traced = manager.Execute(MakeRequest(trace_params));
  ASSERT_TRUE(traced.ok()) << traced.status();
  EXPECT_TRUE(traced->Get("enabled").AsBool(false));
  EXPECT_EQ(traced->Get("dropped").AsInt(-1), 0);
  const std::string file = traced->Get("file").AsString();
  ASSERT_FALSE(file.empty()) << "trace response carries no sink file";

  const JsonValue& spans = traced->Get("spans");
  ASSERT_TRUE(spans.is_array());
  EXPECT_EQ(static_cast<int64_t>(spans.size()),
            traced->Get("total_spans").AsInt(-1));
  EXPECT_EQ(ValidateSpanTree(spans, /*expect_wal=*/true), "");

  // --- the sink file holds the same spans, one JSON object per line.
  std::ifstream sink(file);
  ASSERT_TRUE(sink.good()) << "cannot open " << file;
  JsonValue file_spans = JsonValue::Array();
  std::string line;
  while (std::getline(sink, line)) {
    if (line.empty()) continue;
    StatusOr<JsonValue> parsed = JsonValue::Parse(line);
    ASSERT_TRUE(parsed.ok()) << parsed.status() << " line: " << line;
    file_spans.Append(std::move(*parsed));
  }
  EXPECT_EQ(file_spans.size(), spans.size());
  EXPECT_EQ(ValidateSpanTree(file_spans, /*expect_wal=*/true), "");

  // --- metrics: the random/scratch pair saw all three sessions, and
  // its phase histograms report coherent quantiles.
  JsonValue metrics_params = JsonValue::Object();
  metrics_params.Set("command", JsonValue::String("metrics"));
  StatusOr<JsonValue> metrics = manager.Execute(MakeRequest(metrics_params));
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  EXPECT_GE(metrics->Get("queue_wait").Get("count").AsInt(0), 1);

  const JsonValue& labeled =
      metrics->Get("by_strategy_engine").Get("random/scratch");
  ASSERT_TRUE(labeled.is_object())
      << "metrics: " << metrics->Dump();
  EXPECT_EQ(labeled.Get("sessions").AsInt(-1), 3);
  EXPECT_GE(labeled.Get("questions").AsInt(0), 3);
  EXPECT_GE(labeled.Get("answers").AsInt(0), 3);
  ExpectQuantilesCoherent(labeled.Get("turn_delay"));
  // The random/scratch sessions must have spent attributable time in
  // the chase and conflict scan at least.
  ExpectQuantilesCoherent(labeled.Get("phase_chase"));
  ExpectQuantilesCoherent(labeled.Get("phase_conflict_scan"));
  ExpectQuantilesCoherent(labeled.Get("phase_wal_append"));

  manager.Shutdown();
  trace::Recorder::Instance().Disable();
}

TEST(TraceServiceTest, TraceCommandReportsDisabledWithoutSink) {
  ServiceConfig config;
  config.num_workers = 1;
  SessionManager manager(config);
  ASSERT_FALSE(trace::Recorder::enabled());
  JsonValue params = JsonValue::Object();
  params.Set("command", JsonValue::String("trace"));
  StatusOr<JsonValue> traced = manager.Execute(MakeRequest(params));
  ASSERT_TRUE(traced.ok()) << traced.status();
  EXPECT_FALSE(traced->Get("enabled").AsBool(true));
  EXPECT_TRUE(traced->Get("spans").is_array());
  EXPECT_EQ(traced->Get("spans").size(), 0u);
}

}  // namespace
}  // namespace kbrepair
