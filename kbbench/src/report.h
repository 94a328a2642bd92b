// What one benchmark run reports, and the workload entry points.
//
// A run fills a RunOutcome: every metric it measured (value, unit and
// the number of raw samples behind it), the operations it attempted and
// the ones that failed, and any failed output check. main.cc prints the
// full outcome as a report line, then the result line the benchmark's
// contract asks for: {"correct","attempted","failed","metrics"} with
// exactly the end-to-end metrics (untraced run) or the per-layer
// metrics (traced run).

#ifndef KBBENCH_REPORT_H_
#define KBBENCH_REPORT_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "stats.h"
#include "util/json.h"

namespace kbbench {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// The metric lists of BENCHMARK.json, in its order.
extern const std::vector<MetricSpec> kEndToEndMetrics;
extern const std::vector<MetricSpec> kPerLayerMetrics;
// End-to-end metrics the untraced run measures and prints in its report
// line but that BENCHMARK.json does not bound: the timings. Their spread
// from run to run, on the 4-vCPU VM the benchmark was tuned on, came
// close to or above the largest bound the benchmark may set (see
// README.md).
extern const std::vector<MetricSpec> kReportedMetrics;

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;     // scratch directory inside the checkout
};

class RunOutcome {
 public:
  // Records a metric; the unit must match its MetricSpec.
  void Set(const std::string& name, double value, size_t samples);
  // Records the p99 of `samples` when at least kMinBeyond samples lie
  // beyond it; otherwise leaves the metric out of the report.
  void SetP99(const std::string& name, const Samples& samples);

  // A failed output check: the run is not correct and exits non-zero.
  void Fail(const std::string& why);

  void CountAttempt(uint64_t n = 1) { attempted_ += n; }
  void CountFailure(uint64_t n = 1) { failed_ += n; }

  // Free-form context for the report line (sample counts, provenance,
  // dominant layer, SLO ladder probes, ...).
  kbrepair::JsonValue& detail() { return detail_; }

  bool correct() const { return failures_.empty(); }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  const std::vector<std::string>& failures() const { return failures_; }

  // The report line: every metric with unit and sample count, checks,
  // and detail.
  std::string ReportLine() const;
  // The contract's result line over `specs`. A metric in `specs` the run
  // did not set is itself a failed check.
  std::string ResultLine(const std::vector<MetricSpec>& specs);

 private:
  kbrepair::JsonValue metrics_ = kbrepair::JsonValue::Object();
  kbrepair::JsonValue detail_ = kbrepair::JsonValue::Object();
  std::vector<std::string> failures_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

// Milliseconds between two steady-clock points.
inline double MsBetween(std::chrono::steady_clock::time_point a,
                        std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// A well-mixed 64-bit value from a seed and a stream index, so every
// dialogue, KB and user draws from its own stream of the workload seed.
uint64_t MixSeed(uint64_t seed, uint64_t stream);

// Peak resident set (VmHWM) of a process in MiB; 0 when unreadable.
double PeakRssMb(int pid);
// Current resident set (VmRSS) of a process in KiB; 0 when unreadable.
double RssKb(int pid);

// p90/p95/p99 of named sample sets, for the report line; null where
// fewer than kMinBeyond samples lie beyond.
kbrepair::JsonValue TailDetail(
    const std::vector<std::pair<const char*, const Samples*>>& sets);

// The workloads. Each fills `outcome` and never throws.
void RunInProcess(const RunOptions& options, RunOutcome* outcome);
void RunServiceMixed(const RunOptions& options, RunOutcome* outcome);

}  // namespace kbbench

#endif  // KBBENCH_REPORT_H_
