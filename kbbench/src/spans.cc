#include "spans.h"

#include <algorithm>
#include <sstream>
#include <unordered_map>
#include <utility>

namespace kbbench {

std::vector<int64_t> SelfTimesUs(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, size_t> index;
  for (size_t i = 0; i < spans.size(); ++i) index.emplace(spans[i].id, i);

  // Child intervals per parent, clipped to the parent's interval.
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& span : spans) {
    const auto it = index.find(span.parent);
    if (span.parent == 0 || it == index.end()) continue;
    const Span& parent = spans[it->second];
    const int64_t lo = std::max(span.start_us, parent.start_us);
    const int64_t hi = std::min(span.start_us + span.dur_us,
                                parent.start_us + parent.dur_us);
    if (hi > lo) children[it->second].emplace_back(lo, hi);
  }

  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& intervals = children[i];
    std::sort(intervals.begin(), intervals.end());
    int64_t covered = 0;
    int64_t run_lo = 0;
    int64_t run_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : intervals) {
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) covered += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) covered += run_hi - run_lo;
    self[i] = spans[i].dur_us - covered;
  }
  return self;
}

std::string DetailValue(const std::string& detail, const std::string& key) {
  std::istringstream tokens(detail);
  std::string token;
  const std::string prefix = key + "=";
  while (tokens >> token) {
    if (token.rfind(prefix, 0) == 0) return token.substr(prefix.size());
  }
  return "";
}

void SelfTotals::Add(const std::vector<Span>& spans) {
  const std::vector<int64_t> self = SelfTimesUs(spans);
  for (size_t i = 0; i < spans.size(); ++i) {
    self_us[spans[i].name] += self[i];
  }
}

int64_t SelfTotals::SelfUs(const std::string& name) const {
  const auto it = self_us.find(name);
  return it == self_us.end() ? 0 : it->second;
}

int64_t SelfTotals::TotalSelfUs() const {
  int64_t total = 0;
  for (const auto& [name, us] : self_us) total += us;
  return total;
}

}  // namespace kbbench
