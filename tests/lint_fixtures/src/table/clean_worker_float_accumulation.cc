// The blessed pattern: per-worker partials accumulated locally, stored to
// a disjoint slot, merged serially in a fixed order after the join.
#include <cstddef>
#include <functional>
#include <vector>

namespace fixture {

void RunWorkers(int threads, const std::function<void(int)>& fn);

double SumDeterministic(const std::vector<double>& values, int threads) {
  std::vector<double> partials(static_cast<size_t>(threads), 0.0);
  const size_t block = (values.size() + static_cast<size_t>(threads) - 1) /
                       static_cast<size_t>(threads);
  // eep-lint: disjoint-writes -- worker w writes partials[w] only, from a
  // body-local accumulator.
  RunWorkers(threads, [&](int w) {
    const size_t begin = static_cast<size_t>(w) * block;
    const size_t end =
        begin + block < values.size() ? begin + block : values.size();
    double acc = 0.0;
    for (size_t i = begin; i < end; ++i) acc += values[i];
    partials[static_cast<size_t>(w)] = acc;
  });
  double total = 0.0;
  // The serial merge runs outside the parallel region, in worker-index
  // order, so it needs no blessed-merge annotation: the sum is a pure
  // function of the partials.
  for (double partial : partials) total += partial;
  return total;
}

}  // namespace fixture
