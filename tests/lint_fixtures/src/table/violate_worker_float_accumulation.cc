// Workers accumulate into one shared double: besides the race, FP addition
// is not associative, so the merge order would leak into released values.
#include <functional>

namespace fixture {

void RunWorkers(int threads, const std::function<void(int)>& fn);

double SumRacy(const double* values, int threads) {
  double total = 0.0;
  RunWorkers(threads, [&](int w) {
    total += values[w];
  });
  return total;
}

}  // namespace fixture
