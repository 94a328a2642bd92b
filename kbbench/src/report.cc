#include "report.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

namespace kbbench {

using kbrepair::JsonValue;

const std::vector<MetricSpec> kEndToEndMetrics = {
    {"setup_s", "s"},
    {"questions_per_dialogue", "count"},
    {"peak_rss_mb", "MiB"},
};

const std::vector<MetricSpec> kReportedMetrics = {
    {"question_delay_p50_ms", "ms"},
    {"question_delay_p99_ms", "ms"},
    {"turn_p50_ms", "ms"},
    {"turn_p99_ms", "ms"},
    {"questions_per_s", "1/s"},
    {"first_question_p50_ms", "ms"},
};

const std::vector<MetricSpec> kPerLayerMetrics = {
    {"parser.parse_ms", "ms"},
    {"kb.copy_ms", "ms"},
    {"kb.working_atoms", "count"},
    {"chase.run_ms", "ms"},
    {"chase.derived_atoms", "count"},
    {"chase.saturate_self_ms", "ms"},
    {"chase.delta_saturate_self_ms", "ms"},
    {"repair.question_gen_self_ms", "ms"},
    {"repair.next_question_self_ms", "ms"},
    {"repair.repairability_self_ms", "ms"},
    {"repair.repairability_calls", "count"},
    {"repair.repopt_fast_path_ratio", "ratio"},
    {"repair.candidate_keep_ratio", "ratio"},
    {"repair.conflict_scan_self_ms", "ms"},
    {"repair.delta_enumerate_self_ms", "ms"},
    {"repair.apply_answer_self_ms", "ms"},
    {"repair.all_conflicts_ms", "ms"},
    {"repair.is_pi_repairable_ms", "ms"},
    {"repair.begin_ms", "ms"},
    {"repair.engine_fallbacks", "count"},
    {"repair.timed_call_ms", "ms"},
    {"repair.unattributed_ms", "ms"},
    {"service.rtt_ask_p50_ms", "ms"},
    {"service.rtt_ask_p99_ms", "ms"},
    {"service.rtt_answer_p50_ms", "ms"},
    {"service.rtt_answer_p99_ms", "ms"},
    {"service.rpc_self_ms", "ms"},
    {"service.session_ask_self_ms", "ms"},
    {"service.session_answer_self_ms", "ms"},
    {"service.transport_ms", "ms"},
    {"service.protocol_parse_us", "us"},
    {"service.protocol_serialize_us", "us"},
    {"service.wal_append_self_ms", "ms"},
    {"service.wal_appends", "count"},
    {"service.queue_wait_mean_ms", "ms"},
    {"service.fork_create_ms", "ms"},
    {"service.private_create_ms", "ms"},
    {"service.rss_per_session_kb", "KiB"},
    {"service.retries", "count"},
    {"service.rejected", "count"},
    {"loadgen.late_p99_ms", "ms"},
    {"trace.overhead_pct", "%"},
    {"trace.dropped_spans", "count"},
};

namespace {

// Unit of a metric named in either list; "" when unknown.
const char* UnitOf(const std::string& name) {
  for (const auto* list :
       {&kEndToEndMetrics, &kReportedMetrics, &kPerLayerMetrics}) {
    for (const MetricSpec& spec : *list) {
      if (name == spec.name) return spec.unit;
    }
  }
  return "";
}

}  // namespace

void RunOutcome::Set(const std::string& name, double value, size_t samples) {
  JsonValue metric = JsonValue::Object();
  metric.Set("value", JsonValue::Number(value));
  metric.Set("unit", JsonValue::String(UnitOf(name)));
  metric.Set("samples", JsonValue::Number(static_cast<uint64_t>(samples)));
  metrics_.Set(name, std::move(metric));
}

void RunOutcome::SetP99(const std::string& name, const Samples& samples) {
  const std::optional<double> p99 = samples.TailQuantile(0.99);
  if (p99) Set(name, *p99, samples.count());
}

void RunOutcome::Fail(const std::string& why) { failures_.push_back(why); }

std::string RunOutcome::ReportLine() const {
  JsonValue report = JsonValue::Object();
  JsonValue failures = JsonValue::Array();
  for (const std::string& why : failures_) {
    failures.Append(JsonValue::String(why));
  }
  report.Set("metrics", metrics_);
  report.Set("check_failures", std::move(failures));
  report.Set("attempted", JsonValue::Number(attempted_));
  report.Set("failed", JsonValue::Number(failed_));
  report.Set("failed_ratio",
             JsonValue::Number(attempted_ == 0
                                   ? 0.0
                                   : static_cast<double>(failed_) /
                                         static_cast<double>(attempted_)));
  report.Set("detail", detail_);
  JsonValue line = JsonValue::Object();
  line.Set("kbbench_report", std::move(report));
  return line.Dump();
}

std::string RunOutcome::ResultLine(const std::vector<MetricSpec>& specs) {
  JsonValue metrics = JsonValue::Object();
  for (const MetricSpec& spec : specs) {
    const JsonValue* metric = metrics_.Find(spec.name);
    if (metric == nullptr) {
      Fail(std::string("metric not measured: ") + spec.name);
      continue;
    }
    JsonValue out = JsonValue::Object();
    out.Set("value", metric->Get("value"));
    out.Set("unit", JsonValue::String(spec.unit));
    metrics.Set(spec.name, std::move(out));
  }
  JsonValue line = JsonValue::Object();
  line.Set("correct", JsonValue::Bool(correct()));
  line.Set("attempted", JsonValue::Number(attempted_ == 0 ? 1 : attempted_));
  line.Set("failed", JsonValue::Number(failed_));
  line.Set("metrics", std::move(metrics));
  return line.Dump();
}

uint64_t MixSeed(uint64_t seed, uint64_t stream) {
  // splitmix64 over the pair.
  uint64_t z = seed * 0x9E3779B97F4A7C15ULL + stream + 0x632BE59BD9B4E019ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

JsonValue TailDetail(
    const std::vector<std::pair<const char*, const Samples*>>& sets) {
  JsonValue out = JsonValue::Object();
  for (const auto& [name, samples] : sets) {
    for (const double q : {0.9, 0.95, 0.99}) {
      const std::optional<double> v = samples->TailQuantile(q);
      out.Set(std::string(name) + "_p" + std::to_string(int(q * 100 + 0.5)),
              v ? JsonValue::Number(*v) : JsonValue::Null());
    }
  }
  return out;
}

namespace {

// A "Key:   1234 kB" line of /proc/<pid>/status, in KiB.
double ProcStatusKb(int pid, const char* key) {
  std::ifstream status("/proc/" + (pid == 0 ? std::string("self")
                                            : std::to_string(pid)) +
                       "/status");
  std::string line;
  const size_t key_len = std::strlen(key);
  while (std::getline(status, line)) {
    if (line.compare(0, key_len, key) == 0 && line.size() > key_len &&
        line[key_len] == ':') {
      return std::strtod(line.c_str() + key_len + 1, nullptr);
    }
  }
  return 0.0;
}

}  // namespace

double PeakRssMb(int pid) { return ProcStatusKb(pid, "VmHWM") / 1024.0; }
double RssKb(int pid) { return ProcStatusKb(pid, "VmRSS"); }

}  // namespace kbbench
