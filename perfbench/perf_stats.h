// The benchmark's own statistics, input stream and span bookkeeping. Pure
// functions and small value types with no dependency on the program under
// test, so perf_stats_test.cc can pin them without building a dataset.
#ifndef EEP_PERFBENCH_PERF_STATS_H_
#define EEP_PERFBENCH_PERF_STATS_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace perfbench {

/// SplitMix64: the benchmark's own generator, so the request stream a seed
/// produces never changes when the program's Rng does.
class SplitMix64 {
 public:
  explicit SplitMix64(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double NextDouble() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

/// Derives an independent seed for stream `index` of a run seeded `seed`.
inline uint64_t DeriveSeed(uint64_t seed, uint64_t index) {
  SplitMix64 mix(seed ^ (0xD1B54A32D192ED03ULL * (index + 1)));
  return mix.Next();
}

inline double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

/// The highest percentile of a sample set that still has at least
/// `min_beyond` samples strictly above it.
struct Tail {
  double value = 0.0;
  /// Share of the samples at or below `value`, in percent.
  double percentile = 0.0;
  /// Samples strictly above `value` (>= min_beyond).
  size_t beyond = 0;
};

/// Empty when fewer than `min_beyond` samples lie above every candidate
/// (too few samples, or the top of the distribution is one tied value).
inline std::optional<Tail> TailPercentile(std::vector<double> samples,
                                          size_t min_beyond = 10) {
  const size_t n = samples.size();
  if (n <= min_beyond) return std::nullopt;
  std::sort(samples.begin(), samples.end());
  // Walk down from the (n - min_beyond)-th order statistic until enough
  // samples are strictly greater: ties with the candidate are not beyond.
  for (size_t idx = n - min_beyond; idx-- > 0;) {
    const size_t above = static_cast<size_t>(
        samples.end() -
        std::upper_bound(samples.begin(), samples.end(), samples[idx]));
    if (above >= min_beyond) {
      Tail tail;
      tail.value = samples[idx];
      tail.beyond = above;
      tail.percentile = 100.0 * static_cast<double>(n - above) /
                        static_cast<double>(n);
      return tail;
    }
  }
  return std::nullopt;
}

/// The tail of a long run of samples: split them, in order, into
/// max(1, n / batch) runs of consecutive samples of near-equal size (each
/// at least `batch` long when n >= batch), take each run's TailPercentile,
/// and return the median of those. Empty when no run has a tail.
inline std::optional<double> BatchedTail(const std::vector<double>& samples,
                                         size_t batch) {
  const size_t n = samples.size();
  const size_t batches = std::max<size_t>(1, n / batch);
  std::vector<double> tails;
  for (size_t k = 0; k < batches; ++k) {
    const auto tail = TailPercentile(std::vector<double>(
        samples.begin() + static_cast<long>(k * n / batches),
        samples.begin() + static_cast<long>((k + 1) * n / batches)));
    if (tail) tails.push_back(tail->value);
  }
  if (tails.empty()) return std::nullopt;
  return Median(tails);
}

/// One request of the serving workloads' key stream.
struct KeyDraw {
  size_t cell = 0;     ///< Index into the flattened released cells.
  bool miss = false;   ///< Ask for a key outside the released domain.
  bool topk = false;   ///< A TopKRequest on the cell's table instead.
};

/// A seeded, Zipf-skewed stream over `num_cells` released cells. Rank r is
/// drawn with weight 1 / (r + 1)^exponent and mapped to a cell through a
/// seeded permutation, so the hot cells are spread over the tables rather
/// than being the first rows of the first table.
class ZipfKeyStream {
 public:
  ZipfKeyStream(size_t num_cells, double exponent, double miss_share,
                double topk_share, uint64_t seed)
      : rng_(seed), miss_share_(miss_share), topk_share_(topk_share) {
    cdf_.reserve(num_cells);
    double total = 0.0;
    for (size_t r = 0; r < num_cells; ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), exponent);
      cdf_.push_back(total);
    }
    rank_to_cell_.resize(num_cells);
    for (size_t i = 0; i < num_cells; ++i) rank_to_cell_[i] = i;
    for (size_t i = num_cells; i > 1; --i) {
      std::swap(rank_to_cell_[i - 1], rank_to_cell_[rng_.Next() % i]);
    }
  }

  KeyDraw Next() {
    KeyDraw draw;
    const double u = rng_.NextDouble() * cdf_.back();
    const size_t rank = std::min(
        cdf_.size() - 1,
        static_cast<size_t>(std::upper_bound(cdf_.begin(), cdf_.end(), u) -
                            cdf_.begin()));
    draw.cell = rank_to_cell_[rank];
    draw.topk = rng_.NextDouble() < topk_share_;
    draw.miss = !draw.topk && rng_.NextDouble() < miss_share_;
    return draw;
  }

 private:
  SplitMix64 rng_;
  double miss_share_;
  double topk_share_;
  std::vector<double> cdf_;
  std::vector<size_t> rank_to_cell_;
};

/// One completed span: a call into a layer's public function.
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;   ///< 0 for a root span.
  uint64_t request = 0;  ///< Spans of one request share this.
  const char* name = "";  ///< "<layer>.<call>", a string literal.
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint32_t thread = 0;
};

/// Self time of every span, in input order: its duration minus the part of
/// its interval that its children cover. Overlapping children (concurrent
/// calls under one parent) are merged, so covered time is never counted
/// twice, and child time outside the parent's interval is ignored.
inline std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans) {
  std::map<uint64_t, std::vector<std::pair<int64_t, int64_t>>> children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  std::vector<int64_t> self;
  self.reserve(spans.size());
  for (const Span& s : spans) {
    int64_t covered = 0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      std::vector<std::pair<int64_t, int64_t>> iv = it->second;
      for (auto& [b, e] : iv) {
        b = std::max(b, s.start_ns);
        e = std::min(e, s.end_ns);
      }
      std::sort(iv.begin(), iv.end());
      int64_t cur_b = 0, cur_e = 0;
      bool open = false;
      for (const auto& [b, e] : iv) {
        if (e <= b) continue;
        if (open && b <= cur_e) {
          cur_e = std::max(cur_e, e);
          continue;
        }
        if (open) covered += cur_e - cur_b;
        cur_b = b;
        cur_e = e;
        open = true;
      }
      if (open) covered += cur_e - cur_b;
    }
    self.push_back(s.end_ns - s.start_ns - covered);
  }
  return self;
}

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// In-memory span store. Disabled, it records nothing and hands out id 0,
/// so untraced runs pay one branch per call site.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }
  uint64_t NewId() { return next_id_.fetch_add(1) + 1; }
  void Record(Span span) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(std::move(span));
  }
  std::vector<Span> spans() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

 private:
  const bool enabled_;
  std::atomic<uint64_t> next_id_{0};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Records one span from construction to destruction (or End()).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, uint64_t parent = 0,
             uint64_t request = 0)
      : tracer_(tracer != nullptr && tracer->enabled() ? tracer : nullptr) {
    if (tracer_ == nullptr) return;
    span_.id = tracer_->NewId();
    span_.parent = parent;
    span_.request = request;
    span_.name = name;
    span_.thread = static_cast<uint32_t>(
        std::hash<std::thread::id>()(std::this_thread::get_id()) & 0xFFFF);
    span_.start_ns = NowNs();
  }
  ~ScopedSpan() { End(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return span_.id; }
  void End() {
    if (tracer_ == nullptr) return;
    span_.end_ns = NowNs();
    tracer_->Record(std::move(span_));
    tracer_ = nullptr;
  }

 private:
  Tracer* tracer_;
  Span span_;
};

/// Chrome trace-event JSON ("X" complete events, microseconds), loadable
/// in chrome://tracing or Perfetto.
inline bool WriteChromeTrace(const std::vector<Span>& spans,
                             const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  for (const Span& s : spans) origin = std::min(origin, s.start_ns);
  std::fprintf(f, "{\"traceEvents\":[");
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const std::string name = s.name;
    const std::string layer = name.substr(0, name.find('.'));
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                 "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u,"
                 "\"args\":{\"id\":%llu,\"parent\":%llu,\"request\":%llu}}",
                 i == 0 ? "" : ",", s.name, layer.c_str(),
                 static_cast<double>(s.start_ns - origin) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.thread,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request));
  }
  std::fprintf(f, "\n],\"displayTimeUnit\":\"ms\"}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench

#endif  // EEP_PERFBENCH_PERF_STATS_H_
