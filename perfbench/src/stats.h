#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile of `sorted` (ascending, non-empty): the value at
/// index ceil(p/100 * n) - 1.
inline size_t NearestRankIndex(size_t n, int percentile) {
  size_t rank = static_cast<size_t>(
      std::ceil(static_cast<double>(percentile) / 100.0 *
                static_cast<double>(n)));
  return rank == 0 ? 0 : rank - 1;
}

/// A tail percentile as reported: the percentile actually used, its value,
/// and the sample count behind it.
struct TailPercentile {
  double value = 0;
  int percentile = 0;  ///< the one reported (may be below the one asked for)
  size_t samples = 0;
  bool fell_back = false;  ///< `percentile` is below the one asked for
  bool resolved = true;    ///< even p50 lacks ten samples beyond it
};

/// Samples strictly above the nearest-rank index of `percentile`.
inline size_t SamplesBeyond(size_t n, int percentile) {
  return n == 0 ? 0 : n - 1 - NearestRankIndex(n, percentile);
}

/// The highest whole percentile <= `wanted` that has at least ten samples
/// beyond it, so a p99 is only claimed from >= 1000 samples. Falls back
/// one point at a time down to p50; below that (fewer than 20 samples)
/// the p50 is reported and marked unresolved.
inline TailPercentile Tail(std::vector<double> samples, int wanted) {
  TailPercentile out;
  out.samples = samples.size();
  if (samples.empty()) {
    out.resolved = false;
    return out;
  }
  std::sort(samples.begin(), samples.end());
  int p = wanted;
  while (p > 50 && SamplesBeyond(samples.size(), p) < 10) --p;
  out.percentile = p;
  out.fell_back = p != wanted;
  out.resolved = SamplesBeyond(samples.size(), p) >= 10;
  out.value = samples[NearestRankIndex(samples.size(), p)];
  return out;
}

/// Median (mean of the two middle values for an even count); 0 when empty.
inline double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

inline double Sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
