// The blessed patterns: atomics for shared counters, annotated disjoint
// slot writes for shared buffers.
#include <atomic>
#include <cstddef>
#include <functional>
#include <vector>

namespace fixture {

void RunWorkers(int threads, const std::function<void(int)>& fn);

std::vector<int> CollectDisjoint(int threads) {
  std::vector<int> results(static_cast<size_t>(threads));
  std::atomic<int> started{0};
  // eep-lint: disjoint-writes -- worker w writes results[w] only; slots
  // partition the output vector.
  RunWorkers(threads, [&](int w) {
    started.fetch_add(1, std::memory_order_relaxed);
    results[static_cast<size_t>(w)] = w;
  });
  return results;
}

}  // namespace fixture
