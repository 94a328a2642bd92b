#include "stats.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace kbbench {

namespace {

// 0-based index of the nearest-rank q-quantile among n sorted samples.
size_t RankIndex(double q, size_t n) {
  const double rank = std::ceil(q * static_cast<double>(n));
  if (rank <= 1.0) return 0;
  return std::min(n, static_cast<size_t>(rank)) - 1;
}

}  // namespace

void Samples::Append(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  sorted_.clear();
}

double Samples::Sum() const {
  return std::accumulate(values_.begin(), values_.end(), 0.0);
}

double Samples::Mean() const {
  return values_.empty() ? 0.0 : Sum() / static_cast<double>(values_.size());
}

const std::vector<double>& Samples::Sorted() const {
  if (sorted_.size() != values_.size()) {
    sorted_ = values_;
    std::sort(sorted_.begin(), sorted_.end());
  }
  return sorted_;
}

double Samples::Quantile(double q) const {
  const std::vector<double>& sorted = Sorted();
  return sorted[RankIndex(q, sorted.size())];
}

size_t Samples::CountBeyond(double q) const {
  if (values_.empty()) return 0;
  return values_.size() - 1 - RankIndex(q, values_.size());
}

std::optional<double> Samples::TailQuantile(double q) const {
  if (CountBeyond(q) < kMinBeyond) return std::nullopt;
  return Quantile(q);
}

}  // namespace kbbench
