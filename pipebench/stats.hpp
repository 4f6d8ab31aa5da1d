// Order statistics over benchmark samples.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace pipebench {

/// Nearest-rank quantile (q in [0, 1]); reorders `v`. 0 for no samples.
template <typename T>
double quantile(std::vector<T>& v, double q) {
  if (v.empty()) return 0.0;
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * v.size()));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  std::nth_element(v.begin(), v.begin() + (rank - 1), v.end());
  return static_cast<double>(v[rank - 1]);
}

/// Samples strictly beyond quantile q: what a tail percentile rests on.
inline std::size_t beyond(std::size_t n, double q) {
  const std::size_t rank = static_cast<std::size_t>(std::ceil(q * n));
  return n > rank ? n - rank : 0;
}

}  // namespace pipebench
