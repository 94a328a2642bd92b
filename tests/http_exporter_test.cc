// HTTP exporter tests: the four observability endpoints served live
// against a real SessionManager. The headline checks: /metrics stays a
// valid Prometheus 0.0.4 exposition under concurrent scrapes while 16
// sessions are being driven, the histogram `_count` series equals the
// JSON `metrics` command's count (both render from one
// CumulativeBuckets() snapshot, so a drift here is a real bug), and
// /readyz degrades with a cause on an injected WAL-fsync failure and on
// shutdown. Protocol edges: 400 / 404 / 405 / 413, plus the
// http.accept / http.write failpoints.

#include "service/http_exporter.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "service/daemon_client.h"
#include "service/metrics.h"
#include "service/session_manager.h"
#include "util/failpoint.h"
#include "util/json.h"
#include "service_test_util.h"

namespace kbrepair {
namespace {

// Requests go through HttpExchange, which shares no code with the
// exporter's own parsing, so a bug can't hide on both sides. The GETs
// carry no Connection header: HttpExchange reads to EOF, so each one
// also checks that the exporter closes after a response unasked.
std::string BareGet(const std::string& path) {
  return "GET " + path + " HTTP/1.1\r\nHost: x\r\n\r\n";
}

// Drives one synthetic session to consistency and closes it.
void DriveSession(SessionManager* manager, uint64_t seed) {
  const JsonValue create = SyntheticCreate(seed);
  StatusOr<size_t> answered = DriveRandomDialogue(
      [&](JsonValue params) {
        return manager->Execute(MakeRequest(std::move(params)));
      },
      create, create, seed);
  ASSERT_TRUE(answered.ok()) << answered.status();
}

class HttpExporterTest : public ::testing::Test {
 protected:
  void TearDown() override { failpoint::Reset(); }

  std::unique_ptr<HttpExporter> StartExporter(SessionManager* manager,
                                              HttpExporter::Options options =
                                                  HttpExporter::Options()) {
    HttpExporter::Hooks hooks;
    hooks.append_metrics = [manager](std::string* out) {
      AppendPrometheusText(manager->metrics(), out);
    };
    hooks.readiness_causes = [manager] { return manager->ReadinessCauses(); };
    hooks.statusz = [manager] { return manager->StatuszJson(); };
    auto exporter =
        std::make_unique<HttpExporter>(std::move(options), std::move(hooks));
    const Status started = exporter->Start();
    EXPECT_TRUE(started.ok()) << started.ToString();
    if (!started.ok()) return nullptr;
    return exporter;
  }
};

TEST_F(HttpExporterTest, ConcurrentScrapesDuringLoadStayValidAndMatchJson) {
  ServiceConfig config;
  config.num_workers = 4;
  SessionManager manager(config);
  auto exporter = StartExporter(&manager);
  ASSERT_NE(exporter, nullptr);
  const int port = exporter->port();

  // Scraper thread: hammer /metrics while the drivers run; every
  // response must be a complete, valid exposition.
  std::atomic<bool> stop{false};
  std::atomic<int> scrapes{0};
  std::thread scraper([&] {
    while (!stop.load()) {
      const StatusOr<HttpResponse> response =
          HttpExchange("127.0.0.1", port, BareGet("/metrics"));
      ASSERT_TRUE(response.ok()) << response.status();
      EXPECT_EQ(response->status, 200);
      EXPECT_NE(response->head.find("version=0.0.4"), std::string::npos);
      std::map<std::string, double> series;
      EXPECT_EQ(ParseExposition(response->body, &series), "");
      scrapes.fetch_add(1);
    }
  });

  constexpr int kDrivers = 4;
  constexpr int kSessionsPerDriver = 4;  // 16 sessions total
  std::vector<std::thread> drivers;
  for (int d = 0; d < kDrivers; ++d) {
    drivers.emplace_back([&, d] {
      for (int i = 0; i < kSessionsPerDriver; ++i) {
        DriveSession(&manager,
                     1000 + static_cast<uint64_t>(d * kSessionsPerDriver + i));
      }
    });
  }
  for (std::thread& driver : drivers) driver.join();
  stop.store(true);
  scraper.join();
  EXPECT_GT(scrapes.load(), 0);

  // Quiescent now: the scrape and the JSON `metrics` command must agree
  // exactly — both sides render from the same histogram snapshot path.
  JsonValue metrics_params = JsonValue::Object();
  metrics_params.Set("command", JsonValue::String("metrics"));
  StatusOr<JsonValue> json = manager.Execute(MakeRequest(metrics_params));
  ASSERT_TRUE(json.ok()) << json.status();

  const StatusOr<HttpResponse> response =
      HttpExchange("127.0.0.1", port, BareGet("/metrics"));
  ASSERT_TRUE(response.ok()) << response.status();
  std::map<std::string, double> series;
  ASSERT_EQ(ParseExposition(response->body, &series), "");

  const double turn_count = series.at("kbrepair_turn_delay_seconds_count");
  EXPECT_EQ(turn_count, json->Get("turn_delay").Get("count").AsDouble(-1));
  EXPECT_GT(turn_count, 0);
  EXPECT_EQ(series.at("kbrepair_sessions_opened_total"),
            json->Get("sessions").Get("opened").AsDouble(-1));
  EXPECT_EQ(series.at("kbrepair_questions_served_total"),
            json->Get("traffic").Get("questions_served").AsDouble(-1));
  EXPECT_EQ(series.at("kbrepair_sessions_opened_total"),
            static_cast<double>(kDrivers * kSessionsPerDriver));
  // The histogram's +Inf bucket is its _count by construction.
  EXPECT_EQ(
      series.at("kbrepair_turn_delay_seconds_bucket{le=\"+Inf\"}"),
      turn_count);
  // _sum agrees with the JSON mean (both in seconds vs mean in ms).
  const double sum = series.at("kbrepair_turn_delay_seconds_sum");
  const double mean_ms = json->Get("turn_delay").Get("mean_ms").AsDouble(0);
  EXPECT_NEAR(sum, mean_ms * turn_count / 1e3,
              1e-6 * std::max(1.0, sum));
  // Labeled per-(strategy, engine) sessions roll up to the total.
  const std::string labeled_prefix = "kbrepair_strategy_sessions_total{";
  double labeled_sessions = 0;
  for (const auto& [key, value] : series) {
    if (key.compare(0, labeled_prefix.size(), labeled_prefix) == 0) {
      labeled_sessions += value;
    }
  }
  EXPECT_EQ(labeled_sessions, series.at("kbrepair_sessions_opened_total"));
}

TEST_F(HttpExporterTest, HealthzStatuszAndPortFile) {
  char port_file[] = "/tmp/kbrepair-http-test-XXXXXX";
  const int fd = ::mkstemp(port_file);
  ASSERT_GE(fd, 0);
  ::close(fd);

  ServiceConfig config;
  config.num_workers = 1;
  SessionManager manager(config);
  HttpExporter::Options options;
  options.port_file = port_file;
  auto exporter = StartExporter(&manager, options);
  ASSERT_NE(exporter, nullptr);

  std::ifstream in(port_file);
  int written_port = -1;
  in >> written_port;
  EXPECT_EQ(written_port, exporter->port());

  const StatusOr<HttpResponse> health =
      HttpExchange("127.0.0.1", exporter->port(), BareGet("/healthz"));
  ASSERT_TRUE(health.ok()) << health.status();
  EXPECT_EQ(health->status, 200);
  EXPECT_EQ(health->body, "ok\n");
  // HttpGet's request, which asks for "Connection: close", is served too.
  const StatusOr<HttpResponse> asked_close =
      HttpGet("127.0.0.1", exporter->port(), "/healthz");
  ASSERT_TRUE(asked_close.ok()) << asked_close.status();
  EXPECT_EQ(asked_close->status, 200);
  EXPECT_EQ(asked_close->body, "ok\n");

  const StatusOr<HttpResponse> ready =
      HttpExchange("127.0.0.1", exporter->port(), BareGet("/readyz"));
  ASSERT_TRUE(ready.ok()) << ready.status();
  EXPECT_EQ(ready->status, 200);
  EXPECT_EQ(ready->body, "ready\n");

  const StatusOr<HttpResponse> statusz =
      HttpExchange("127.0.0.1", exporter->port(), BareGet("/statusz"));
  ASSERT_TRUE(statusz.ok()) << statusz.status();
  EXPECT_EQ(statusz->status, 200);
  EXPECT_NE(statusz->head.find("application/json"), std::string::npos);
  StatusOr<JsonValue> parsed = JsonValue::Parse(statusz->body);
  ASSERT_TRUE(parsed.ok()) << statusz->body;
  EXPECT_TRUE(parsed->is_object());
  EXPECT_EQ(parsed->Get("sessions_active").AsInt(-1), 0);
  EXPECT_GE(parsed->Get("uptime_s").AsDouble(-1), 0);
  EXPECT_TRUE(parsed->Get("readiness_causes").is_array());
  EXPECT_EQ(parsed->Get("readiness_causes").size(), 0u);

  ::unlink(port_file);
}

TEST_F(HttpExporterTest, ReadyzDegradesOnWalFsyncFailureWithCause) {
  TempDir wal_dir;

  ServiceConfig config;
  config.num_workers = 1;
  config.wal_dir = wal_dir.path;
  SessionManager manager(config);
  auto exporter = StartExporter(&manager);
  ASSERT_NE(exporter, nullptr);

  const StatusOr<HttpResponse> ready_before =
      HttpExchange("127.0.0.1", exporter->port(), BareGet("/readyz"));
  ASSERT_TRUE(ready_before.ok()) << ready_before.status();
  EXPECT_EQ(ready_before->status, 200);

  failpoint::Arm("wal.fsync", /*skip=*/0, /*fail=*/1);
  StatusOr<JsonValue> created =
      manager.Execute(MakeRequest(SyntheticCreate(7)));
  EXPECT_FALSE(created.ok());  // durability failed -> create rejected

  const StatusOr<HttpResponse> ready =
      HttpExchange("127.0.0.1", exporter->port(), BareGet("/readyz"));
  ASSERT_TRUE(ready.ok()) << ready.status();
  EXPECT_EQ(ready->status, 503);
  EXPECT_NE(ready->body.find("not ready"), std::string::npos);
  EXPECT_NE(ready->body.find("recent-wal-fsync-failure"), std::string::npos);
  EXPECT_GE(exporter->errors_served(), 1u);

  // /statusz reports the same causes.
  const StatusOr<HttpResponse> statusz =
      HttpExchange("127.0.0.1", exporter->port(), BareGet("/statusz"));
  ASSERT_TRUE(statusz.ok()) << statusz.status();
  StatusOr<JsonValue> parsed = JsonValue::Parse(statusz->body);
  ASSERT_TRUE(parsed.ok());
  ASSERT_GE(parsed->Get("readiness_causes").size(), 1u);
  EXPECT_EQ(parsed->Get("readiness_causes").at(0).AsString(),
            "recent-wal-fsync-failure");
}

TEST_F(HttpExporterTest, ReadyzDegradesOnShutdown) {
  ServiceConfig config;
  config.num_workers = 1;
  SessionManager manager(config);
  auto exporter = StartExporter(&manager);
  ASSERT_NE(exporter, nullptr);

  const StatusOr<HttpResponse> ready_before =
      HttpExchange("127.0.0.1", exporter->port(), BareGet("/readyz"));
  ASSERT_TRUE(ready_before.ok()) << ready_before.status();
  EXPECT_EQ(ready_before->status, 200);
  manager.Shutdown();
  const StatusOr<HttpResponse> ready =
      HttpExchange("127.0.0.1", exporter->port(), BareGet("/readyz"));
  ASSERT_TRUE(ready.ok()) << ready.status();
  EXPECT_EQ(ready->status, 503);
  EXPECT_NE(ready->body.find("shutdown-in-progress"), std::string::npos);
  // Liveness is the exporter's own business and stays green.
  const StatusOr<HttpResponse> health =
      HttpExchange("127.0.0.1", exporter->port(), BareGet("/healthz"));
  ASSERT_TRUE(health.ok()) << health.status();
  EXPECT_EQ(health->status, 200);
}

TEST_F(HttpExporterTest, ProtocolEdgesGet400To413) {
  ServiceConfig config;
  config.num_workers = 1;
  SessionManager manager(config);
  HttpExporter::Options options;
  options.max_request_bytes = 512;
  auto exporter = StartExporter(&manager, options);
  ASSERT_NE(exporter, nullptr);
  const int port = exporter->port();

  const StatusOr<HttpResponse> garbage =
      HttpExchange("127.0.0.1", port, "GARBAGE\r\n\r\n");
  ASSERT_TRUE(garbage.ok()) << garbage.status();
  EXPECT_EQ(garbage->status, 400);

  const StatusOr<HttpResponse> bad_proto =
      HttpExchange("127.0.0.1", port, "GET /metrics SPDY/9\r\n\r\n");
  ASSERT_TRUE(bad_proto.ok()) << bad_proto.status();
  EXPECT_EQ(bad_proto->status, 400);

  const StatusOr<HttpResponse> post =
      HttpExchange("127.0.0.1", port,
                   "POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
  ASSERT_TRUE(post.ok()) << post.status();
  EXPECT_EQ(post->status, 405);

  const StatusOr<HttpResponse> missing =
      HttpExchange("127.0.0.1", port, BareGet("/nope"));
  ASSERT_TRUE(missing.ok()) << missing.status();
  EXPECT_EQ(missing->status, 404);

  const StatusOr<HttpResponse> oversized = HttpExchange(
      "127.0.0.1", port,
      "GET /metrics HTTP/1.1\r\nX-Pad: " + std::string(1024, 'x') + "\r\n\r\n");
  ASSERT_TRUE(oversized.ok()) << oversized.status();
  EXPECT_EQ(oversized->status, 413);

  EXPECT_GE(exporter->errors_served(), 5u);
  // Query strings are stripped, not 404'd.
  const StatusOr<HttpResponse> probe =
      HttpExchange("127.0.0.1", port, BareGet("/healthz?probe=1"));
  ASSERT_TRUE(probe.ok()) << probe.status();
  EXPECT_EQ(probe->status, 200);
}

TEST_F(HttpExporterTest, AcceptAndWriteFailpointsDropOneScrapeEach) {
  ServiceConfig config;
  config.num_workers = 1;
  SessionManager manager(config);
  auto exporter = StartExporter(&manager);
  ASSERT_NE(exporter, nullptr);
  const int port = exporter->port();

  failpoint::Arm("http.accept", /*skip=*/0, /*fail=*/1);
  const StatusOr<HttpResponse> dropped =
      HttpExchange("127.0.0.1", port, BareGet("/healthz"));
  EXPECT_FALSE(dropped.ok());  // connection closed before any response
  EXPECT_GE(exporter->errors_served(), 1u);

  failpoint::Arm("http.write", /*skip=*/0, /*fail=*/1);
  const StatusOr<HttpResponse> unwritten =
      HttpExchange("127.0.0.1", port, BareGet("/healthz"));
  EXPECT_FALSE(unwritten.ok());

  // The exporter survives both and keeps serving.
  const StatusOr<HttpResponse> after =
      HttpExchange("127.0.0.1", port, BareGet("/healthz"));
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_EQ(after->status, 200);
}

}  // namespace
}  // namespace kbrepair
