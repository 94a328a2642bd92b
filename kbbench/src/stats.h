// Quantiles from raw samples.
//
// Every quantile the benchmark reports is an exact order statistic of
// the raw samples it was given (nearest rank, no interpolation, no
// histogram buckets), and travels with its sample count. A tail
// quantile is only defined when at least kMinBeyond samples lie beyond
// it: a p99 needs about a thousand samples.

#ifndef KBBENCH_STATS_H_
#define KBBENCH_STATS_H_

#include <cstddef>
#include <optional>
#include <vector>

namespace kbbench {

inline constexpr size_t kMinBeyond = 10;

// Raw samples of one timing, in the order they were taken.
class Samples {
 public:
  void Add(double value) { values_.push_back(value); }
  void Append(const Samples& other);

  size_t count() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  double Sum() const;
  double Mean() const;  // 0 when empty

  // The nearest-rank q-quantile: the ceil(q * n)-th smallest sample
  // (q = 0 gives the minimum). Requires a non-empty set and q in [0,1].
  double Quantile(double q) const;

  // Quantile(q) when at least kMinBeyond samples are strictly after its
  // rank, nullopt otherwise.
  std::optional<double> TailQuantile(double q) const;

  // Samples that come after the nearest rank of q.
  size_t CountBeyond(double q) const;

 private:
  const std::vector<double>& Sorted() const;

  std::vector<double> values_;
  mutable std::vector<double> sorted_;
};

}  // namespace kbbench

#endif  // KBBENCH_STATS_H_
