#ifndef DLSYS_BENCH_NEAREST_RANK_H_
#define DLSYS_BENCH_NEAREST_RANK_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace dlsys {

/// Exact \p q quantile (nearest rank) of the ascending \p sorted samples:
/// an observed sample, never a histogram bucket edge.
inline double NearestRank(const std::vector<double>& sorted, double q) {
  const size_t n = sorted.size();
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  return sorted[rank - 1];
}

}  // namespace dlsys

#endif  // DLSYS_BENCH_NEAREST_RANK_H_
