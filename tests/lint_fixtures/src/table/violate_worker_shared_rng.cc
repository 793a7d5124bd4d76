// Workers draw from ONE shared Rng: a data race, and the draw order (and
// therefore every released value) depends on thread scheduling.
#include <cstdint>
#include <functional>

namespace fixture {

class Rng {
 public:
  explicit Rng(uint64_t seed);
  double Uniform();
  Rng Substream(uint64_t stream) const;
};

void RunWorkers(int threads, const std::function<void(int)>& fn);

double RacyNoise(Rng& rng, int shards) {
  RunWorkers(shards, [&](int w) {
    double draw = rng.Uniform();
    (void)w;
    (void)draw;
  });
  return 0.0;
}

}  // namespace fixture
