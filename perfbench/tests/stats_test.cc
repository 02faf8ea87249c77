// Checks the percentile rule the benchmark reports by: a tail percentile
// needs at least ten samples beyond it, else the highest one that has
// them is reported instead, and says so.

#include <cstdio>
#include <vector>

#include "stats.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

std::vector<double> Ramp(size_t n) {
  std::vector<double> v;
  for (size_t i = 0; i < n; ++i) v.push_back(static_cast<double>(n - i));
  return v;  // descending, so Tail must sort
}

}  // namespace

int main() {
  using perfbench::Tail;

  // 1000 samples: p99 is the 990th value, with exactly ten beyond it.
  perfbench::TailPercentile p99 = Tail(Ramp(1000), 99);
  Expect(p99.percentile == 99 && !p99.fell_back, "p99 kept at n=1000");
  Expect(p99.value == 990.0, "p99 of 1..1000 is 990");
  Expect(perfbench::SamplesBeyond(1000, 99) == 10, "ten beyond p99");

  // 999 samples: only nine beyond p99, so p98 is reported.
  perfbench::TailPercentile short99 = Tail(Ramp(999), 99);
  Expect(short99.percentile == 98 && short99.fell_back,
         "p99 falls back to p98 at n=999");
  Expect(perfbench::SamplesBeyond(999, 98) >= 10, "ten beyond p98");

  // 100 samples: p90 has ten beyond; p99 falls back to p90.
  Expect(Tail(Ramp(100), 90).percentile == 90, "p90 kept at n=100");
  Expect(Tail(Ramp(100), 99).percentile == 90, "p99 -> p90 at n=100");
  Expect(Tail(Ramp(99), 90).percentile == 89, "p90 -> p89 at n=99");

  // Below 20 samples not even p50 has ten beyond: p50, unresolved.
  perfbench::TailPercentile tiny = Tail(Ramp(19), 99);
  Expect(tiny.percentile == 50 && !tiny.resolved, "n=19 is unresolved");
  Expect(Tail(Ramp(20), 99).resolved, "n=20 resolves at p50");
  Expect(Tail({}, 99).samples == 0 && !Tail({}, 99).resolved, "empty");

  Expect(perfbench::Median({3, 1, 2}) == 2.0, "odd median");
  Expect(perfbench::Median({4, 1, 3, 2}) == 2.5, "even median");

  if (failures == 0) std::printf("perfbench_stats_test: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
