// kbbench: the kbrepair benchmark.
//
//   kbbench --workload NAME --seed N --seconds S --trace 0|1
//           [--work-dir DIR] [--commit SHA]
//
// Workloads: fig5-scratch, deep-chase-incremental (in process) and
// service-mixed (kbrepaird over a Unix socket). Prints a report line
// with every metric, its unit and sample count, then as the last line
// the result object {"correct","attempted","failed","metrics"}: the
// end-to-end metrics with --trace 0, the per-layer metrics with
// --trace 1. Exits 1 when any output check failed, 2 on bad usage or a
// build that is not an optimised Release build.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "report.h"
#include "util/json.h"

#ifndef KBBENCH_BUILD_TYPE
#define KBBENCH_BUILD_TYPE "unknown"
#endif

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: kbbench --workload fig5-scratch|deep-chase-incremental|"
               "service-mixed --seed N --seconds S --trace 0|1 "
               "[--work-dir DIR] [--commit SHA]\n");
  return 2;
}

bool IsOptimisedRelease() {
#ifdef NDEBUG
  return std::string(KBBENCH_BUILD_TYPE) == "Release";
#else
  return false;
#endif
}

}  // namespace

int main(int argc, char** argv) {
  using kbrepair::JsonValue;
  kbbench::RunOptions options;
  options.work_dir = ".bench_build/work";
  std::string commit = "unknown";
  bool have_seed = false;
  bool have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value == "1";
      have_trace = value == "0" || value == "1";
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else if (flag == "--commit") {
      commit = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 == 0 || options.workload.empty() || !have_seed ||
      !have_trace || !(options.seconds > 0)) {
    return Usage();
  }
  if (!IsOptimisedRelease()) {
    std::fprintf(stderr,
                 "kbbench: refusing to measure a %s build; configure with "
                 "-DCMAKE_BUILD_TYPE=Release\n",
                 KBBENCH_BUILD_TYPE);
    return 2;
  }

  kbbench::RunOutcome outcome;
  JsonValue provenance = JsonValue::Object();
  provenance.Set("workload", JsonValue::String(options.workload));
  provenance.Set("seed", JsonValue::Number(options.seed));
  provenance.Set("seconds", JsonValue::Number(options.seconds));
  provenance.Set("trace", JsonValue::Bool(options.trace));
  provenance.Set("nproc", JsonValue::Number(static_cast<int64_t>(
                              sysconf(_SC_NPROCESSORS_ONLN))));
  provenance.Set("build_type", JsonValue::String(KBBENCH_BUILD_TYPE));
  provenance.Set("commit", JsonValue::String(commit));
  outcome.detail().Set("provenance", std::move(provenance));

  if (options.workload == "service-mixed") {
    kbbench::RunServiceMixed(options, &outcome);
  } else if (options.workload == "fig5-scratch" ||
             options.workload == "deep-chase-incremental") {
    kbbench::RunInProcess(options, &outcome);
  } else {
    return Usage();
  }

  const std::string result = outcome.ResultLine(
      options.trace ? kbbench::kPerLayerMetrics : kbbench::kEndToEndMetrics);
  std::printf("%s\n", outcome.ReportLine().c_str());
  for (const std::string& why : outcome.failures()) {
    std::fprintf(stderr, "kbbench: check failed: %s\n", why.c_str());
  }
  std::printf("%s\n", result.c_str());
  std::fflush(stdout);
  return outcome.correct() ? 0 : 1;
}
