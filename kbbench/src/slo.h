// The service SLO ladder.
//
// Offered session rates form a fixed geometric ladder whose rungs are at
// most 5% apart. A rung meets the SLO when no request was refused, the
// turn p99 is defined (enough samples beyond it) and at most the limit,
// and the open-session backlog did not grow across the probe window.
// The reported capacity is the highest rung that meets the SLO, found by
// bisection over rung indices: the lowest rung is never assumed to pass
// and the top rung never assumed to fail, so the search stops exactly
// where a passing rung sits directly below a failing one (or at an end
// of the ladder).

#ifndef KBBENCH_SLO_H_
#define KBBENCH_SLO_H_

#include <cstddef>
#include <functional>
#include <optional>
#include <vector>

namespace kbbench {

inline constexpr double kMaxRungRatio = 1.05;

// Rungs lo, lo*ratio, lo*ratio^2, ... up to and including the first rung
// >= hi. Requires 0 < lo < hi and 1 < ratio <= kMaxRungRatio.
std::vector<double> GeometricLadder(double lo, double hi, double ratio);

// What one probe at one rung measured.
struct RungResult {
  double rate = 0.0;                     // offered sessions per second
  std::optional<double> turn_p99_ms;     // nullopt: too few samples
  size_t refused = 0;                    // requests refused or failed
  // Mean number of open sessions over two spans of the probe's arrival
  // window, after the ramp-up: [40%, 70%) and [70%, 100%).
  double backlog_mid = 0.0;
  double backlog_end = 0.0;
};

// The open-session backlog grows when the end of the window holds
// clearly more open sessions than its middle: more than 25% more, and
// more than one session more (tiny backlogs jitter by one).
bool BacklogGrows(double mid, double end);

// The rung rule above.
bool MeetsSlo(const RungResult& rung, double turn_p99_limit_ms);

struct LadderOutcome {
  // Index of the highest rung found to meet the SLO; nullopt when even
  // the lowest rung failed.
  std::optional<size_t> best;
  std::vector<RungResult> probes;  // in the order they were run
};

// Bisection over `rungs` with `probe` run at the chosen rates.
LadderOutcome SearchLadder(const std::vector<double>& rungs,
                           double turn_p99_limit_ms,
                           const std::function<RungResult(double)>& probe);

}  // namespace kbbench

#endif  // KBBENCH_SLO_H_
