// Workers push into one shared vector: a data race, and the element order
// depends on scheduling.
#include <functional>
#include <vector>

namespace fixture {

void RunWorkers(int threads, const std::function<void(int)>& fn);

std::vector<int> CollectRacy(int threads) {
  std::vector<int> results;
  RunWorkers(threads, [&](int w) {
    results.push_back(w);
  });
  return results;
}

}  // namespace fixture
