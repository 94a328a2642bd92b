// Self time of trace spans.
//
// A span's self time is its duration minus the part of its interval
// that its child spans cover. Children are clipped to the parent and
// their overlaps counted once, so overlapping children (parallel work
// under one parent) never drive a self time below zero.

#ifndef KBBENCH_SPANS_H_
#define KBBENCH_SPANS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace kbbench {

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = root
  std::string name;
  int64_t start_us = 0;
  int64_t dur_us = 0;
  std::string detail;  // "k=v ..." annotation, may be empty
};

// Self time in microseconds of each span, aligned with `spans`. A
// child is any span of the list whose parent is that span's id.
std::vector<int64_t> SelfTimesUs(const std::vector<Span>& spans);

// Value of key `key` in a "k=v k=v" annotation, or "" when absent.
std::string DetailValue(const std::string& detail, const std::string& key);

// Sums self time (microseconds) per span name.
struct SelfTotals {
  std::map<std::string, int64_t> self_us;

  void Add(const std::vector<Span>& spans);
  int64_t SelfUs(const std::string& name) const;
  int64_t TotalSelfUs() const;
};

}  // namespace kbbench

#endif  // KBBENCH_SPANS_H_
