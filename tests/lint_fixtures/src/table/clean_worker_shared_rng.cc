// The blessed pattern: shard k derives its own stream with the const
// .Substream(k) and mutates only the private child.
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

void ShardedNoise(const Rng& root, double* out, int shards) {
  // eep-lint: disjoint-writes -- worker w writes out[w] only.
  RunWorkers(shards, [&](int w) {
    Rng shard_rng = root.Substream(static_cast<uint64_t>(w));
    out[w] = shard_rng.Uniform();
  });
}

}  // namespace fixture
