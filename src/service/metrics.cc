#include "service/metrics.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "repair/inquiry.h"

namespace kbrepair {

size_t LatencyHistogram::BucketForMicros(uint64_t micros) {
  size_t bucket = 0;
  while ((uint64_t{1} << (bucket + 1)) <= micros &&
         bucket + 1 < kNumBuckets) {
    ++bucket;
  }
  return bucket;
}

uint64_t LatencyHistogram::BucketUpperBoundMicros(size_t bucket) {
  if (bucket + 1 >= kNumBuckets) return UINT64_MAX;  // tail bucket
  return uint64_t{1} << (bucket + 1);
}

void LatencyHistogram::Observe(double seconds) {
  if (seconds < 0.0) seconds = 0.0;
  // Round to the nearest microsecond: truncation biased sum_micros_
  // (and so the mean) low by half a microsecond per observation, which
  // is material for the sub-microsecond deltas the phase histograms see.
  const uint64_t micros = static_cast<uint64_t>(std::llround(seconds * 1e6));
  buckets_[BucketForMicros(micros)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_micros_.fetch_add(micros, std::memory_order_relaxed);
  uint64_t seen = max_micros_.load(std::memory_order_relaxed);
  while (micros > seen &&
         !max_micros_.compare_exchange_weak(seen, micros,
                                            std::memory_order_relaxed)) {
  }
  seen = min_micros_.load(std::memory_order_relaxed);
  while (micros < seen &&
         !min_micros_.compare_exchange_weak(seen, micros,
                                            std::memory_order_relaxed)) {
  }
}

double LatencyHistogram::MeanSeconds() const {
  const uint64_t n = count_.load(std::memory_order_relaxed);
  if (n == 0) return 0.0;
  return static_cast<double>(sum_micros_.load(std::memory_order_relaxed)) /
         static_cast<double>(n) / 1e6;
}

double LatencyHistogram::QuantileSeconds(double q) const {
  const uint64_t n = count_.load(std::memory_order_relaxed);
  if (n == 0) return 0.0;
  if (q <= 0.0) return MinSeconds();
  if (q >= 1.0) return MaxSeconds();
  // Rank of the q-th sample, at least 1: with target 0 the very first
  // (possibly empty) bucket would satisfy `seen >= target` and q→0
  // would report ~2 µs regardless of the data.
  const uint64_t target = std::max<uint64_t>(
      1, static_cast<uint64_t>(std::ceil(q * static_cast<double>(n))));
  uint64_t seen = 0;
  for (size_t i = 0; i < kNumBuckets; ++i) {
    seen += buckets_[i].load(std::memory_order_relaxed);
    if (seen >= target) {
      // The bucket only brackets the sample: its upper bound can exceed
      // the largest observation (the old p95 > max bug) and its lower
      // bound can undershoot the smallest. Clamp into the observed
      // range so quantiles are monotone and never contradict min/max.
      const double upper = static_cast<double>(uint64_t{1} << (i + 1)) / 1e6;
      return std::min(std::max(upper, MinSeconds()), MaxSeconds());
    }
  }
  return MaxSeconds();
}

double LatencyHistogram::SumSeconds() const {
  return static_cast<double>(sum_micros_.load(std::memory_order_relaxed)) /
         1e6;
}

double LatencyHistogram::MinSeconds() const {
  const uint64_t micros = min_micros_.load(std::memory_order_relaxed);
  if (micros == UINT64_MAX) return 0.0;  // no observations yet
  return static_cast<double>(micros) / 1e6;
}

double LatencyHistogram::MaxSeconds() const {
  return static_cast<double>(max_micros_.load(std::memory_order_relaxed)) /
         1e6;
}

std::array<uint64_t, LatencyHistogram::kNumBuckets>
LatencyHistogram::BucketCounts() const {
  std::array<uint64_t, kNumBuckets> counts{};
  for (size_t i = 0; i < kNumBuckets; ++i) {
    counts[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return counts;
}

std::vector<LatencyHistogram::CumulativeBucket>
LatencyHistogram::CumulativeBuckets() const {
  const std::array<uint64_t, kNumBuckets> counts = BucketCounts();
  size_t last_nonzero = 0;
  uint64_t total = 0;
  for (size_t i = 0; i < kNumBuckets; ++i) {
    total += counts[i];
    if (counts[i] != 0) last_nonzero = i;
  }
  std::vector<CumulativeBucket> out;
  if (total == 0) {
    out.push_back(CumulativeBucket{0.0, true, 0});
    return out;
  }
  // Emit bounded buckets through the last non-empty one (trailing empty
  // buckets carry no information), then the +Inf bucket. The +Inf count
  // is the sum of THIS snapshot, not count_, so the cumulative series
  // is internally consistent even while observations race the read.
  uint64_t running = 0;
  for (size_t i = 0; i <= last_nonzero && i + 1 < kNumBuckets; ++i) {
    running += counts[i];
    out.push_back(CumulativeBucket{
        static_cast<double>(BucketUpperBoundMicros(i)) / 1e6, false,
        running});
  }
  out.push_back(CumulativeBucket{0.0, true, total});
  return out;
}

void LatencyHistogram::MergeFrom(const LatencyHistogram& other) {
  for (size_t i = 0; i < kNumBuckets; ++i) {
    const uint64_t n = other.buckets_[i].load(std::memory_order_relaxed);
    if (n != 0) buckets_[i].fetch_add(n, std::memory_order_relaxed);
  }
  count_.fetch_add(other.count_.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
  sum_micros_.fetch_add(other.sum_micros_.load(std::memory_order_relaxed),
                        std::memory_order_relaxed);
  const uint64_t other_max = other.max_micros_.load(std::memory_order_relaxed);
  uint64_t seen = max_micros_.load(std::memory_order_relaxed);
  while (other_max > seen &&
         !max_micros_.compare_exchange_weak(seen, other_max,
                                            std::memory_order_relaxed)) {
  }
  const uint64_t other_min = other.min_micros_.load(std::memory_order_relaxed);
  seen = min_micros_.load(std::memory_order_relaxed);
  while (other_min < seen &&
         !min_micros_.compare_exchange_weak(seen, other_min,
                                            std::memory_order_relaxed)) {
  }
}

JsonValue LatencyHistogram::ToJson() const {
  JsonValue out = JsonValue::Object();
  out.Set("count", JsonValue::Number(count()));
  out.Set("mean_ms", JsonValue::Number(MeanSeconds() * 1e3));
  out.Set("p50_ms", JsonValue::Number(QuantileSeconds(0.5) * 1e3));
  out.Set("p95_ms", JsonValue::Number(QuantileSeconds(0.95) * 1e3));
  out.Set("min_ms", JsonValue::Number(MinSeconds() * 1e3));
  out.Set("max_ms", JsonValue::Number(MaxSeconds() * 1e3));
  JsonValue buckets = JsonValue::Array();
  for (const CumulativeBucket& bucket : CumulativeBuckets()) {
    JsonValue entry = JsonValue::Object();
    entry.Set("le_ms", bucket.infinite
                           ? JsonValue::String("+Inf")
                           : JsonValue::Number(bucket.le_seconds * 1e3));
    entry.Set("count", JsonValue::Number(bucket.cumulative_count));
    buckets.Append(std::move(entry));
  }
  out.Set("buckets", std::move(buckets));
  return out;
}

const char* StrategyLabelName(size_t index) {
  return StrategyName(static_cast<Strategy>(index));
}

const char* EngineLabelName(size_t index) {
  return ConflictEngineName(static_cast<ConflictEngineKind>(index));
}

bool LabeledMetrics::Touched() const {
  if (sessions.load(std::memory_order_relaxed) != 0) return true;
  if (questions.load(std::memory_order_relaxed) != 0) return true;
  if (answers.load(std::memory_order_relaxed) != 0) return true;
  return turn_delay.count() != 0;
}

void LabeledMetrics::MergeFrom(const LabeledMetrics& other) {
  sessions.fetch_add(other.sessions.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
  questions.fetch_add(other.questions.load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
  answers.fetch_add(other.answers.load(std::memory_order_relaxed),
                    std::memory_order_relaxed);
  turn_delay.MergeFrom(other.turn_delay);
  for (size_t p = 0; p < trace::kNumPhases; ++p) {
    phases[p].MergeFrom(other.phases[p]);
  }
}

JsonValue LabeledMetrics::ToJson() const {
  JsonValue out = JsonValue::Object();
  out.Set("sessions",
          JsonValue::Number(sessions.load(std::memory_order_relaxed)));
  out.Set("questions",
          JsonValue::Number(questions.load(std::memory_order_relaxed)));
  out.Set("answers",
          JsonValue::Number(answers.load(std::memory_order_relaxed)));
  out.Set("turn_delay", turn_delay.ToJson());
  for (size_t p = 0; p < trace::kNumPhases; ++p) {
    if (phases[p].count() == 0) continue;
    out.Set(std::string("phase_") +
                trace::PhaseName(static_cast<trace::Phase>(p)),
            phases[p].ToJson());
  }
  return out;
}

JsonValue ServiceMetrics::ToJson() const {
  JsonValue sessions = JsonValue::Object();
  sessions.Set("opened",
               JsonValue::Number(sessions_opened.load(std::memory_order_relaxed)));
  sessions.Set("completed",
               JsonValue::Number(sessions_completed.load(std::memory_order_relaxed)));
  sessions.Set("evicted",
               JsonValue::Number(sessions_evicted.load(std::memory_order_relaxed)));
  sessions.Set("failed",
               JsonValue::Number(sessions_failed.load(std::memory_order_relaxed)));
  sessions.Set("active",
               JsonValue::Number(sessions_active.load(std::memory_order_relaxed)));

  JsonValue traffic = JsonValue::Object();
  traffic.Set("questions_served",
              JsonValue::Number(questions_served.load(std::memory_order_relaxed)));
  traffic.Set("answers_applied",
              JsonValue::Number(answers_applied.load(std::memory_order_relaxed)));
  traffic.Set("requests_total",
              JsonValue::Number(requests_total.load(std::memory_order_relaxed)));
  traffic.Set("errors_total",
              JsonValue::Number(errors_total.load(std::memory_order_relaxed)));
  traffic.Set("rejected_overload",
              JsonValue::Number(rejected_overload.load(std::memory_order_relaxed)));
  traffic.Set("rejected_commands",
              JsonValue::Number(rejected_commands.load(std::memory_order_relaxed)));
  traffic.Set("deadline_exceeded",
              JsonValue::Number(deadline_exceeded.load(std::memory_order_relaxed)));

  JsonValue durability = JsonValue::Object();
  durability.Set("wal_appends",
                 JsonValue::Number(wal_appends.load(std::memory_order_relaxed)));
  durability.Set("wal_fsync_failures",
                 JsonValue::Number(wal_fsync_failures.load(std::memory_order_relaxed)));
  durability.Set("wal_compactions",
                 JsonValue::Number(wal_compactions.load(std::memory_order_relaxed)));
  durability.Set("transcript_write_failures",
                 JsonValue::Number(
                     transcript_write_failures.load(std::memory_order_relaxed)));
  durability.Set("sessions_recovered",
                 JsonValue::Number(sessions_recovered.load(std::memory_order_relaxed)));
  durability.Set("engine_fallbacks",
                 JsonValue::Number(engine_fallbacks.load(std::memory_order_relaxed)));
  durability.Set("worker_stalls",
                 JsonValue::Number(worker_stalls.load(std::memory_order_relaxed)));
  durability.Set("wal_disk_full_failures",
                 JsonValue::Number(
                     wal_disk_full_failures.load(std::memory_order_relaxed)));
  durability.Set("rejected_degraded",
                 JsonValue::Number(rejected_degraded.load(std::memory_order_relaxed)));
  durability.Set("wal_degraded",
                 JsonValue::Number(wal_degraded.load(std::memory_order_relaxed)));

  JsonValue resources = JsonValue::Object();
  resources.Set("mem_estimated_bytes",
                JsonValue::Number(
                    mem_estimated_bytes.load(std::memory_order_relaxed)));
  resources.Set("mem_budget_bytes",
                JsonValue::Number(mem_budget_bytes.load(std::memory_order_relaxed)));
  resources.Set("mem_pressure",
                JsonValue::Number(mem_pressure.load(std::memory_order_relaxed)));
  resources.Set("rejected_pressure",
                JsonValue::Number(rejected_pressure.load(std::memory_order_relaxed)));
  resources.Set("pressure_evictions",
                JsonValue::Number(
                    pressure_evictions.load(std::memory_order_relaxed)));

  JsonValue bases = JsonValue::Object();
  bases.Set("registered",
            JsonValue::Number(bases_registered.load(std::memory_order_relaxed)));
  bases.Set("rss_bytes",
            JsonValue::Number(base_rss_bytes.load(std::memory_order_relaxed)));
  bases.Set("forks",
            JsonValue::Number(base_forks.load(std::memory_order_relaxed)));
  bases.Set("fork_latency", base_fork_latency.ToJson());

  JsonValue by_strategy_engine = JsonValue::Object();
  for (size_t s = 0; s < kNumStrategyLabels; ++s) {
    for (size_t e = 0; e < kNumEngineLabels; ++e) {
      const LabeledMetrics& labeled = by_label[s][e];
      if (!labeled.Touched()) continue;
      by_strategy_engine.Set(std::string(StrategyLabelName(s)) + "/" +
                                 EngineLabelName(e),
                             labeled.ToJson());
    }
  }

  JsonValue out = JsonValue::Object();
  out.Set("sessions", std::move(sessions));
  out.Set("traffic", std::move(traffic));
  out.Set("durability", std::move(durability));
  out.Set("resources", std::move(resources));
  out.Set("bases", std::move(bases));
  out.Set("turn_delay", turn_delay.ToJson());
  out.Set("request_latency", request_latency.ToJson());
  out.Set("queue_wait", queue_wait.ToJson());
  out.Set("by_strategy_engine", std::move(by_strategy_engine));
  return out;
}

void ServiceMetrics::MergeFrom(const ServiceMetrics& other) {
  const auto add = [](std::atomic<uint64_t>& into,
                      const std::atomic<uint64_t>& from) {
    into.fetch_add(from.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
  };
  add(sessions_opened, other.sessions_opened);
  add(sessions_completed, other.sessions_completed);
  add(sessions_evicted, other.sessions_evicted);
  add(sessions_failed, other.sessions_failed);
  sessions_active.fetch_add(
      other.sessions_active.load(std::memory_order_relaxed),
      std::memory_order_relaxed);
  add(questions_served, other.questions_served);
  add(answers_applied, other.answers_applied);
  add(requests_total, other.requests_total);
  add(errors_total, other.errors_total);
  add(rejected_overload, other.rejected_overload);
  add(rejected_commands, other.rejected_commands);
  add(deadline_exceeded, other.deadline_exceeded);
  add(wal_appends, other.wal_appends);
  add(wal_fsync_failures, other.wal_fsync_failures);
  add(wal_compactions, other.wal_compactions);
  add(transcript_write_failures, other.transcript_write_failures);
  add(sessions_recovered, other.sessions_recovered);
  add(engine_fallbacks, other.engine_fallbacks);
  add(worker_stalls, other.worker_stalls);
  add(wal_disk_full_failures, other.wal_disk_full_failures);
  add(rejected_degraded, other.rejected_degraded);
  add(rejected_pressure, other.rejected_pressure);
  add(pressure_evictions, other.pressure_evictions);
  // Per-shard 0/1 flag: the aggregate counts degraded shards.
  wal_degraded.fetch_add(other.wal_degraded.load(std::memory_order_relaxed),
                         std::memory_order_relaxed);
  // Governor gauges live on exactly one shard's metrics (like the
  // registry gauges below), so summing is the correct aggregation.
  mem_estimated_bytes.fetch_add(
      other.mem_estimated_bytes.load(std::memory_order_relaxed),
      std::memory_order_relaxed);
  mem_budget_bytes.fetch_add(
      other.mem_budget_bytes.load(std::memory_order_relaxed),
      std::memory_order_relaxed);
  mem_pressure.fetch_add(other.mem_pressure.load(std::memory_order_relaxed),
                         std::memory_order_relaxed);
  add(base_forks, other.base_forks);
  // Registry gauges live on exactly one shard's metrics, so summing is
  // the correct aggregation.
  bases_registered.fetch_add(
      other.bases_registered.load(std::memory_order_relaxed),
      std::memory_order_relaxed);
  base_rss_bytes.fetch_add(
      other.base_rss_bytes.load(std::memory_order_relaxed),
      std::memory_order_relaxed);
  base_fork_latency.MergeFrom(other.base_fork_latency);
  const auto take_latest = [](std::atomic<int64_t>& into,
                              const std::atomic<int64_t>& from) {
    const int64_t candidate = from.load(std::memory_order_relaxed);
    int64_t seen = into.load(std::memory_order_relaxed);
    while (candidate > seen &&
           !into.compare_exchange_weak(seen, candidate,
                                       std::memory_order_relaxed)) {
    }
  };
  take_latest(last_wal_fsync_failure_ns, other.last_wal_fsync_failure_ns);
  take_latest(last_engine_demotion_ns, other.last_engine_demotion_ns);
  take_latest(last_wal_disk_full_ns, other.last_wal_disk_full_ns);
  turn_delay.MergeFrom(other.turn_delay);
  request_latency.MergeFrom(other.request_latency);
  queue_wait.MergeFrom(other.queue_wait);
  for (size_t s = 0; s < kNumStrategyLabels; ++s) {
    for (size_t e = 0; e < kNumEngineLabels; ++e) {
      by_label[s][e].MergeFrom(other.by_label[s][e]);
    }
  }
}

int64_t MonotonicNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

// --- Prometheus text exposition (format 0.0.4) -------------------------

std::string FormatDoubleCompact(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.9g", value);
  return buffer;
}

std::string EscapeLabelValue(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    if (c == '\\' || c == '"') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

// {strategy="opti-mcd",engine="scratch"} — empty for no labels.
std::string LabelSet(
    const std::vector<std::pair<std::string, std::string>>& labels) {
  if (labels.empty()) return "";
  std::string out = "{";
  for (size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) out += ",";
    out += labels[i].first + "=\"" + EscapeLabelValue(labels[i].second) +
           "\"";
  }
  out += "}";
  return out;
}

// Same, with an extra `le` label appended (histogram bucket lines).
std::string LabelSetWithLe(
    const std::vector<std::pair<std::string, std::string>>& labels,
    const std::string& le) {
  std::string out = "{";
  for (const auto& [key, value] : labels) {
    out += key + "=\"" + EscapeLabelValue(value) + "\",";
  }
  out += "le=\"" + le + "\"}";
  return out;
}

void AppendHelpType(std::string* out, const std::string& name,
                    const std::string& help, const char* type) {
  *out += "# HELP " + name + " " + help + "\n";
  *out += "# TYPE " + name + " " + std::string(type) + "\n";
}

void AppendCounter(std::string* out, const std::string& name,
                   const std::string& help, uint64_t value) {
  AppendHelpType(out, name, help, "counter");
  *out += name + " " + std::to_string(value) + "\n";
}

void AppendGauge(std::string* out, const std::string& name,
                 const std::string& help, int64_t value) {
  AppendHelpType(out, name, help, "gauge");
  *out += name + " " + std::to_string(value) + "\n";
}

// One histogram's cumulative series under an optional label set. The
// bucket lines come from LatencyHistogram::CumulativeBuckets() — the
// same snapshot path the JSON `metrics` command renders — so the two
// surfaces agree by construction.
void AppendHistogramSeries(
    std::string* out, const std::string& name,
    const std::vector<std::pair<std::string, std::string>>& labels,
    const LatencyHistogram& histogram) {
  uint64_t total = 0;
  for (const LatencyHistogram::CumulativeBucket& bucket :
       histogram.CumulativeBuckets()) {
    const std::string le = bucket.infinite
                               ? std::string("+Inf")
                               : FormatDoubleCompact(bucket.le_seconds);
    *out += name + "_bucket" + LabelSetWithLe(labels, le) + " " +
            std::to_string(bucket.cumulative_count) + "\n";
    total = bucket.cumulative_count;
  }
  *out += name + "_sum" + LabelSet(labels) + " " +
          FormatDoubleCompact(histogram.SumSeconds()) + "\n";
  // _count must equal the +Inf bucket; derive it from the same snapshot
  // rather than re-reading the (racing) count_ counter.
  *out += name + "_count" + LabelSet(labels) + " " + std::to_string(total) +
          "\n";
}

void AppendHistogram(std::string* out, const std::string& name,
                     const std::string& help,
                     const LatencyHistogram& histogram) {
  AppendHelpType(out, name, help, "histogram");
  AppendHistogramSeries(out, name, {}, histogram);
}

}  // namespace

void AppendPrometheusText(const ServiceMetrics& metrics, std::string* out) {
  const auto load = [](const std::atomic<uint64_t>& counter) {
    return counter.load(std::memory_order_relaxed);
  };

  AppendCounter(out, "kbrepair_sessions_opened_total",
                "Sessions created (including recovered ones).",
                load(metrics.sessions_opened));
  AppendCounter(out, "kbrepair_sessions_completed_total",
                "Sessions closed via the close command.",
                load(metrics.sessions_completed));
  AppendCounter(out, "kbrepair_sessions_evicted_total",
                "Sessions reaped by the idle TTL.",
                load(metrics.sessions_evicted));
  AppendCounter(out, "kbrepair_sessions_failed_total",
                "Session create/step/recovery failures.",
                load(metrics.sessions_failed));
  AppendGauge(out, "kbrepair_sessions_active",
              "Sessions currently registered and not closed.",
              metrics.sessions_active.load(std::memory_order_relaxed));
  AppendCounter(out, "kbrepair_questions_served_total",
                "Questions handed to clients.",
                load(metrics.questions_served));
  AppendCounter(out, "kbrepair_answers_applied_total",
                "Answers applied to a session's dialogue.",
                load(metrics.answers_applied));
  AppendCounter(out, "kbrepair_requests_total",
                "Wire commands received (including rejected ones).",
                load(metrics.requests_total));
  AppendCounter(out, "kbrepair_errors_total",
                "Wire commands answered with an error envelope.",
                load(metrics.errors_total));
  AppendCounter(out, "kbrepair_rejected_overload_total",
                "Commands rejected because the ready queue was full.",
                load(metrics.rejected_overload));
  AppendCounter(out, "kbrepair_rejected_commands_total",
                "Commands refused at admission (overload, shutdown, WAL "
                "append failure).",
                load(metrics.rejected_commands));
  AppendCounter(out, "kbrepair_deadline_exceeded_total",
                "Commands cut off by the per-command deadline.",
                load(metrics.deadline_exceeded));
  AppendCounter(out, "kbrepair_wal_appends_total",
                "Durable WAL appends (fsync'd before execution).",
                load(metrics.wal_appends));
  AppendCounter(out, "kbrepair_wal_fsync_failures_total",
                "WAL appends whose fsync failed (command rejected).",
                load(metrics.wal_fsync_failures));
  AppendCounter(out, "kbrepair_wal_compactions_total",
                "Session WALs snapshot-compacted.",
                load(metrics.wal_compactions));
  AppendCounter(out, "kbrepair_transcript_write_failures_total",
                "Transcript flushes that failed.",
                load(metrics.transcript_write_failures));
  AppendCounter(out, "kbrepair_sessions_recovered_total",
                "Sessions rebuilt from their WAL at startup.",
                load(metrics.sessions_recovered));
  AppendCounter(out, "kbrepair_engine_fallbacks_total",
                "Incremental-engine demotions to the scratch engine.",
                load(metrics.engine_fallbacks));
  AppendCounter(out, "kbrepair_worker_stalls_total",
                "Commands the watchdog flagged as stalling a worker.",
                load(metrics.worker_stalls));
  AppendCounter(out, "kbrepair_wal_disk_full_failures_total",
                "WAL appends that hit ENOSPC/EIO (shard entered degraded "
                "mode).",
                load(metrics.wal_disk_full_failures));
  AppendCounter(out, "kbrepair_rejected_degraded_total",
                "Commands rejected ResourceExhausted while the owning shard "
                "was disk-degraded.",
                load(metrics.rejected_degraded));
  AppendGauge(out, "kbrepair_wal_degraded",
              "Shards currently in disk-degraded read-only mode.",
              metrics.wal_degraded.load(std::memory_order_relaxed));
  AppendGauge(out, "kbrepair_mem_estimated_bytes",
              "Governor estimate of session + base memory in use.",
              metrics.mem_estimated_bytes.load(std::memory_order_relaxed));
  AppendGauge(out, "kbrepair_mem_budget_bytes",
              "Configured memory budget (--mem-budget; 0 = unlimited).",
              metrics.mem_budget_bytes.load(std::memory_order_relaxed));
  AppendGauge(out, "kbrepair_mem_pressure",
              "1 while the governor is shedding new sessions.",
              metrics.mem_pressure.load(std::memory_order_relaxed));
  AppendCounter(out, "kbrepair_rejected_pressure_total",
                "Creates shed by the memory governor.",
                load(metrics.rejected_pressure));
  AppendCounter(out, "kbrepair_pressure_evictions_total",
                "Idle sessions evicted early to relieve memory pressure.",
                load(metrics.pressure_evictions));
  AppendGauge(out, "kbrepair_bases_registered",
              "Shared base KBs currently registered.",
              metrics.bases_registered.load(std::memory_order_relaxed));
  AppendGauge(out, "kbrepair_base_rss_bytes",
              "Approximate resident bytes of the shared base segments.",
              metrics.base_rss_bytes.load(std::memory_order_relaxed));
  AppendCounter(out, "kbrepair_base_forks_total",
                "Sessions forked from a shared base.",
                load(metrics.base_forks));

  AppendHistogram(out, "kbrepair_turn_delay_seconds",
                  "Engine compute delay producing each question "
                  "(Prop. 4.10's measured bound).",
                  metrics.turn_delay);
  AppendHistogram(out, "kbrepair_request_latency_seconds",
                  "End-to-end per-command service time (submission to "
                  "completion).",
                  metrics.request_latency);
  AppendHistogram(out, "kbrepair_queue_wait_seconds",
                  "Time a command waited in the ready queue before a "
                  "worker picked it up.",
                  metrics.queue_wait);
  AppendHistogram(out, "kbrepair_base_fork_latency_seconds",
                  "Time to fork a session from a shared base (KB fork + "
                  "census adoption).",
                  metrics.base_fork_latency);

  // Per-strategy / per-engine breakdown. HELP/TYPE once per metric
  // name, then one labeled series per touched label pair.
  AppendHelpType(out, "kbrepair_strategy_sessions_total",
                 "Sessions opened, by strategy and active engine.",
                 "counter");
  AppendHelpType(out, "kbrepair_strategy_questions_total",
                 "Questions served, by strategy and active engine.",
                 "counter");
  AppendHelpType(out, "kbrepair_strategy_answers_total",
                 "Answers applied, by strategy and active engine.",
                 "counter");
  std::string labeled_histograms;
  AppendHelpType(&labeled_histograms, "kbrepair_strategy_turn_delay_seconds",
                 "Per-question engine delay, by strategy and active engine.",
                 "histogram");
  std::string phase_histograms;
  AppendHelpType(&phase_histograms, "kbrepair_phase_seconds",
                 "Per-command time attributed to each pipeline phase, by "
                 "strategy and active engine.",
                 "histogram");
  bool any_phase = false;
  for (size_t s = 0; s < kNumStrategyLabels; ++s) {
    for (size_t e = 0; e < kNumEngineLabels; ++e) {
      const LabeledMetrics& labeled = metrics.by_label[s][e];
      if (!labeled.Touched()) continue;
      const std::vector<std::pair<std::string, std::string>> labels = {
          {"strategy", StrategyLabelName(s)}, {"engine", EngineLabelName(e)}};
      *out += "kbrepair_strategy_sessions_total" + LabelSet(labels) + " " +
              std::to_string(load(labeled.sessions)) + "\n";
      *out += "kbrepair_strategy_questions_total" + LabelSet(labels) + " " +
              std::to_string(load(labeled.questions)) + "\n";
      *out += "kbrepair_strategy_answers_total" + LabelSet(labels) + " " +
              std::to_string(load(labeled.answers)) + "\n";
      AppendHistogramSeries(&labeled_histograms,
                            "kbrepair_strategy_turn_delay_seconds", labels,
                            labeled.turn_delay);
      for (size_t p = 0; p < trace::kNumPhases; ++p) {
        if (labeled.phases[p].count() == 0) continue;
        any_phase = true;
        auto phase_labels = labels;
        phase_labels.emplace_back(
            "phase", trace::PhaseName(static_cast<trace::Phase>(p)));
        AppendHistogramSeries(&phase_histograms, "kbrepair_phase_seconds",
                              phase_labels, labeled.phases[p]);
      }
    }
  }
  *out += labeled_histograms;
  if (any_phase) *out += phase_histograms;
}

void AppendShardPrometheusText(
    const std::vector<const ServiceMetrics*>& shards, std::string* out) {
  const auto load = [](const std::atomic<uint64_t>& counter) {
    return counter.load(std::memory_order_relaxed);
  };
  struct CounterRow {
    const char* name;
    const char* help;
    std::atomic<uint64_t> ServiceMetrics::* field;
  };
  static constexpr CounterRow kRows[] = {
      {"kbrepair_shard_sessions_opened_total",
       "Sessions created on this shard.", &ServiceMetrics::sessions_opened},
      {"kbrepair_shard_sessions_completed_total",
       "Sessions closed via the close command on this shard.",
       &ServiceMetrics::sessions_completed},
      {"kbrepair_shard_sessions_evicted_total",
       "Sessions reaped by the idle TTL on this shard.",
       &ServiceMetrics::sessions_evicted},
      {"kbrepair_shard_sessions_failed_total",
       "Session failures on this shard.", &ServiceMetrics::sessions_failed},
      {"kbrepair_shard_requests_total",
       "Wire commands routed to this shard.", &ServiceMetrics::requests_total},
      {"kbrepair_shard_errors_total",
       "Commands this shard answered with an error envelope.",
       &ServiceMetrics::errors_total},
      {"kbrepair_shard_rejected_commands_total",
       "Commands this shard refused at admission.",
       &ServiceMetrics::rejected_commands},
      {"kbrepair_shard_wal_appends_total",
       "Durable WAL appends on this shard.", &ServiceMetrics::wal_appends},
  };
  // HELP/TYPE once per metric name, then one `shard="i"` line per shard
  // — interleaving the comments per shard would be an invalid
  // exposition.
  for (const CounterRow& row : kRows) {
    AppendHelpType(out, row.name, row.help, "counter");
    for (size_t i = 0; i < shards.size(); ++i) {
      *out += std::string(row.name) +
              LabelSet({{"shard", std::to_string(i)}}) + " " +
              std::to_string(load(shards[i]->*(row.field))) + "\n";
    }
  }
  AppendHelpType(out, "kbrepair_shard_sessions_active",
                 "Sessions currently registered on this shard.", "gauge");
  for (size_t i = 0; i < shards.size(); ++i) {
    *out += "kbrepair_shard_sessions_active" +
            LabelSet({{"shard", std::to_string(i)}}) + " " +
            std::to_string(
                shards[i]->sessions_active.load(std::memory_order_relaxed)) +
            "\n";
  }
  AppendHelpType(out, "kbrepair_shard_wal_degraded",
                 "1 while this shard is in disk-degraded read-only mode.",
                 "gauge");
  for (size_t i = 0; i < shards.size(); ++i) {
    *out += "kbrepair_shard_wal_degraded" +
            LabelSet({{"shard", std::to_string(i)}}) + " " +
            std::to_string(
                shards[i]->wal_degraded.load(std::memory_order_relaxed)) +
            "\n";
  }
  AppendHelpType(out, "kbrepair_shard_turn_delay_seconds",
                 "Per-question engine delay on this shard.", "histogram");
  for (size_t i = 0; i < shards.size(); ++i) {
    AppendHistogramSeries(out, "kbrepair_shard_turn_delay_seconds",
                          {{"shard", std::to_string(i)}},
                          shards[i]->turn_delay);
  }
}

}  // namespace kbrepair
