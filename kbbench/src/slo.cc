#include "slo.h"

namespace kbbench {

std::vector<double> GeometricLadder(double lo, double hi, double ratio) {
  std::vector<double> rungs;
  if (!(lo > 0.0 && lo < hi && ratio > 1.0 && ratio <= kMaxRungRatio)) {
    return rungs;
  }
  for (double rate = lo;; rate *= ratio) {
    rungs.push_back(rate);
    if (rate >= hi) break;
  }
  return rungs;
}

bool BacklogGrows(double mid, double end) {
  return end > 1.25 * mid && end > mid + 1.0;
}

bool MeetsSlo(const RungResult& rung, double turn_p99_limit_ms) {
  return rung.refused == 0 && rung.turn_p99_ms.has_value() &&
         *rung.turn_p99_ms <= turn_p99_limit_ms &&
         !BacklogGrows(rung.backlog_mid, rung.backlog_end);
}

LadderOutcome SearchLadder(const std::vector<double>& rungs,
                           double turn_p99_limit_ms,
                           const std::function<RungResult(double)>& probe) {
  LadderOutcome outcome;
  // Invariant: every rung < pass_below is known to pass (or is none),
  // every rung >= fail_from is known to fail (or is past the top).
  size_t pass_below = 0;
  size_t fail_from = rungs.size();
  while (pass_below < fail_from) {
    const size_t mid = pass_below + (fail_from - pass_below) / 2;
    outcome.probes.push_back(probe(rungs[mid]));
    if (MeetsSlo(outcome.probes.back(), turn_p99_limit_ms)) {
      pass_below = mid + 1;
    } else {
      fail_from = mid;
    }
  }
  if (pass_below > 0) outcome.best = pass_below - 1;
  return outcome;
}

}  // namespace kbbench
