// perfbench_host_ref: times fixed work that involves none of eep's code,
// so a steadiness report can tell a host that got slower from a benchmark
// that got noisier. `run.py --report` runs it before every benchmark run
// and prints its figures next to the run's metrics.
//
// Prints one JSON object: the median of 5 sorts of the same 2M seeded
// doubles (sort_ms, cache- and branch-bound like a lookup) and of 5 sums
// over a 256 MiB array (stream_gbps, memory-bound like a cold publish).
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "perf_stats.h"

int main() {
  constexpr int kReps = 5;
  perfbench::SplitMix64 rng(7);
  std::vector<double> keys(2'000'000);
  for (double& k : keys) k = static_cast<double>(rng.Next());
  std::vector<uint64_t> stream(32 * 1024 * 1024, 1);  // 256 MiB.

  std::vector<double> sort_ms, stream_gbps;
  uint64_t sink = 0;
  for (int rep = 0; rep < kReps; ++rep) {
    std::vector<double> v = keys;
    int64_t t0 = perfbench::NowNs();
    std::sort(v.begin(), v.end());
    sort_ms.push_back(static_cast<double>(perfbench::NowNs() - t0) / 1e6);
    sink += static_cast<uint64_t>(v[v.size() / 2]) & 1;

    t0 = perfbench::NowNs();
    uint64_t sum = 0;
    for (uint64_t x : stream) sum += x;
    const double s = static_cast<double>(perfbench::NowNs() - t0) / 1e9;
    stream_gbps.push_back(static_cast<double>(stream.size() * 8) / s / 1e9);
    sink += sum;
  }
  std::printf("{\"sort_ms\": %.6f, \"stream_gbps\": %.6f, \"sink\": %llu}\n",
              perfbench::Median(sort_ms), perfbench::Median(stream_gbps),
              static_cast<unsigned long long>(sink));
  return 0;
}
