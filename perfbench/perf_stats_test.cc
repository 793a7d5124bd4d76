// Self-tests of the benchmark's statistics code (perf_stats.h). Run with
// `python3 perfbench/run.py --selftest`; exits non-zero on any failure.
#include <cstdio>
#include <set>
#include <vector>

#include "perf_stats.h"

namespace {

int failures = 0;

#define EXPECT(cond)                                                   \
  do {                                                                 \
    if (!(cond)) {                                                     \
      std::fprintf(stderr, "%s:%d: expected %s\n", __FILE__, __LINE__, \
                   #cond);                                             \
      ++failures;                                                      \
    }                                                                  \
  } while (0)

using perfbench::Span;

void TestTailNeedsTenBeyond() {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted input
  const auto tail = perfbench::TailPercentile(v);
  EXPECT(tail.has_value());
  EXPECT(tail->value == 90.0);
  EXPECT(tail->beyond == 10);
  EXPECT(tail->percentile == 90.0);

  // Exactly eleven samples: the smallest one has ten beyond it.
  std::vector<double> eleven = {5, 1, 9, 3, 7, 2, 8, 4, 6, 10, 11};
  const auto t11 = perfbench::TailPercentile(eleven);
  EXPECT(t11.has_value() && t11->value == 1.0 && t11->beyond == 10);

  // Ten samples cannot have ten beyond any of them.
  EXPECT(!perfbench::TailPercentile({1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
              .has_value());
}

void TestTailSkipsTies() {
  // 20 samples: 1..9, then eleven copies of 50. Only values below 50 have
  // ten samples strictly beyond them, so the tail is 9, not 50.
  std::vector<double> v;
  for (int i = 1; i <= 9; ++i) v.push_back(i);
  for (int i = 0; i < 11; ++i) v.push_back(50);
  const auto tail = perfbench::TailPercentile(v);
  EXPECT(tail.has_value());
  EXPECT(tail->value == 9.0);
  EXPECT(tail->beyond == 11);
  EXPECT(tail->percentile == 45.0);

  std::vector<double> all_tied(30, 4.0);
  EXPECT(!perfbench::TailPercentile(all_tied).has_value());
}

void TestBatchedTail() {
  // 250 samples: two batches of 125, each with its own p92 (10 beyond).
  std::vector<double> v;
  for (int i = 1; i <= 125; ++i) v.push_back(i);
  for (int i = 1; i <= 125; ++i) v.push_back(1000 + i);
  const auto tail = perfbench::BatchedTail(v, 100);
  EXPECT(tail.has_value() && *tail == 0.5 * (115.0 + 1115.0));

  // Fewer samples than a batch: one batch, the plain tail.
  std::vector<double> few;
  for (int i = 1; i <= 40; ++i) few.push_back(i);
  EXPECT(perfbench::BatchedTail(few, 100) == 30.0);

  // Too few for any tail.
  EXPECT(!perfbench::BatchedTail({1, 2, 3}, 100).has_value());
}

void TestMedian() {
  EXPECT(perfbench::Median({3, 1, 2}) == 2.0);
  EXPECT(perfbench::Median({4, 1, 3, 2}) == 2.5);
  EXPECT(perfbench::Median({}) == 0.0);
}

Span MakeSpan(uint64_t id, uint64_t parent, int64_t start, int64_t end) {
  Span s;
  s.id = id;
  s.parent = parent;
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

void TestSelfTimeSubtractsOverlappingChildren() {
  // Parent [0, 100); children [10, 40) and [30, 60) overlap on [30, 40),
  // so they cover 50 ns, not 60; a grandchild does not count against the
  // parent, only against its own parent.
  const std::vector<Span> spans = {
      MakeSpan(1, 0, 0, 100), MakeSpan(2, 1, 10, 40), MakeSpan(3, 1, 30, 60),
      MakeSpan(4, 2, 15, 25)};
  const std::vector<int64_t> self = perfbench::SelfTimesNs(spans);
  EXPECT(self.size() == 4);
  EXPECT(self[0] == 50);
  EXPECT(self[1] == 20);
  EXPECT(self[2] == 30);
  EXPECT(self[3] == 10);
}

void TestSelfTimeClipsChildrenToParent() {
  // A child that outlives its parent (a handoff to another thread) only
  // covers the parent's own interval; disjoint children add up.
  const std::vector<Span> spans = {MakeSpan(1, 0, 100, 200),
                                   MakeSpan(2, 1, 150, 260),
                                   MakeSpan(3, 1, 110, 120)};
  const std::vector<int64_t> self = perfbench::SelfTimesNs(spans);
  EXPECT(self[0] == 40);
  EXPECT(self[1] == 110);
}

void TestKeyStreamIsDeterministic() {
  perfbench::ZipfKeyStream a(5000, 1.0, 0.05, 0.10, 42);
  perfbench::ZipfKeyStream b(5000, 1.0, 0.05, 0.10, 42);
  perfbench::ZipfKeyStream c(5000, 1.0, 0.05, 0.10, 43);
  bool same = true, differs = false;
  size_t misses = 0, topks = 0;
  std::vector<size_t> hits(5000, 0);
  const size_t n = 200000;
  for (size_t i = 0; i < n; ++i) {
    const perfbench::KeyDraw x = a.Next(), y = b.Next(), z = c.Next();
    same = same && x.cell == y.cell && x.miss == y.miss && x.topk == y.topk;
    differs = differs || x.cell != z.cell;
    EXPECT(x.cell < 5000);
    misses += x.miss;
    topks += x.topk;
    ++hits[x.cell];
  }
  EXPECT(same);
  EXPECT(differs);
  // 10% top-k, and 5% of the rest are misses.
  EXPECT(topks > n * 9 / 100 && topks < n * 11 / 100);
  EXPECT(misses > n * 4 / 100 && misses < n * 5 / 100);
  // Zipf skew: the hottest cell takes ~1/H(5000) ≈ 11% of the draws, far
  // above the uniform 0.02%.
  size_t hottest = 0;
  for (size_t h : hits) hottest = std::max(hottest, h);
  EXPECT(hottest > n / 20);
}

}  // namespace

int main() {
  TestTailNeedsTenBeyond();
  TestTailSkipsTies();
  TestBatchedTail();
  TestMedian();
  TestSelfTimeSubtractsOverlappingChildren();
  TestSelfTimeClipsChildrenToParent();
  TestKeyStreamIsDeterministic();
  if (failures != 0) {
    std::fprintf(stderr, "%d expectation(s) failed\n", failures);
    return 1;
  }
  std::printf("perfbench_stats_test: all passed\n");
  return 0;
}
