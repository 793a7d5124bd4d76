// Fuzz tests: the group-by engine and marginal layer checked against a
// naive reference implementation on randomly generated tables, swept over
// sizes and seeds with parameterized gtest.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "common/random.h"
#include "table/group_by.h"
#include "table/partitioned_group_by.h"
#include "table/table.h"

namespace eep::table {
namespace {

struct FuzzCase {
  uint64_t seed;
  size_t num_rows;
  uint32_t radix_a;
  uint32_t radix_b;
  int num_estabs;
};

class GroupByFuzzTest : public ::testing::TestWithParam<FuzzCase> {};

std::vector<std::string> MakeValues(uint32_t n, const std::string& prefix) {
  std::vector<std::string> values;
  for (uint32_t i = 0; i < n; ++i) {
    values.push_back(prefix + std::to_string(i));
  }
  return values;
}

TEST_P(GroupByFuzzTest, MatchesNaiveReference) {
  const FuzzCase fuzz = GetParam();
  Rng rng(fuzz.seed);

  auto dict_a = Dictionary::Create(MakeValues(fuzz.radix_a, "a")).value();
  auto dict_b = Dictionary::Create(MakeValues(fuzz.radix_b, "b")).value();
  auto schema = Schema::Create({{"estab", DataType::kInt64, nullptr},
                                {"attr_a", DataType::kCategory, dict_a},
                                {"attr_b", DataType::kCategory, dict_b}})
                    .value();

  std::vector<int64_t> estabs(fuzz.num_rows);
  std::vector<uint32_t> as(fuzz.num_rows), bs(fuzz.num_rows);
  for (size_t i = 0; i < fuzz.num_rows; ++i) {
    estabs[i] = rng.UniformInt(1, fuzz.num_estabs);
    as[i] = static_cast<uint32_t>(rng.UniformInt(0, fuzz.radix_a - 1));
    bs[i] = static_cast<uint32_t>(rng.UniformInt(0, fuzz.radix_b - 1));
  }
  auto t = Table::Create(schema, {Column::OfInt64(estabs),
                                  Column::OfCategory(as),
                                  Column::OfCategory(bs)})
               .value();

  auto grouped =
      GroupCountByEstablishment(t, {"attr_a", "attr_b"}, "estab").value();

  // Naive reference: nested maps.
  std::map<std::pair<uint32_t, uint32_t>, int64_t> ref_counts;
  std::map<std::pair<uint32_t, uint32_t>, std::map<int64_t, int64_t>>
      ref_contribs;
  for (size_t i = 0; i < fuzz.num_rows; ++i) {
    ++ref_counts[{as[i], bs[i]}];
    ++ref_contribs[{as[i], bs[i]}][estabs[i]];
  }

  ASSERT_EQ(grouped.cells.size(), ref_counts.size());
  for (const auto& [ab, count] : ref_counts) {
    const uint64_t key = grouped.codec.Pack({ab.first, ab.second});
    const GroupedCell* cell = grouped.Find(key);
    ASSERT_NE(cell, nullptr);
    EXPECT_EQ(cell->count, count);
    const auto& ref = ref_contribs[ab];
    ASSERT_EQ(cell->contributions.size(), ref.size());
    int64_t max_contrib = 0;
    for (const auto& contrib : cell->contributions) {
      auto it = ref.find(contrib.estab_id);
      ASSERT_NE(it, ref.end());
      EXPECT_EQ(contrib.count, it->second);
      max_contrib = std::max(max_contrib, it->second);
    }
    EXPECT_EQ(cell->MaxEstabContribution(), max_contrib);
  }

  // The parallel engine is thread-count-invariant: 2/4/8 workers must
  // reproduce the single-threaded grouping bit for bit.
  for (int threads : {2, 4, 8}) {
    auto parallel = GroupCountByEstablishment(t, {"attr_a", "attr_b"},
                                              "estab", GroupByOptions{threads})
                        .value();
    ASSERT_EQ(parallel.cells.size(), grouped.cells.size())
        << "threads=" << threads;
    for (size_t i = 0; i < grouped.cells.size(); ++i) {
      const GroupedCell& a = grouped.cells[i];
      const GroupedCell& b = parallel.cells[i];
      ASSERT_EQ(a.key, b.key) << "threads=" << threads;
      ASSERT_EQ(a.count, b.count) << "threads=" << threads;
      ASSERT_EQ(a.contributions.size(), b.contributions.size())
          << "threads=" << threads;
      for (size_t c = 0; c < a.contributions.size(); ++c) {
        ASSERT_EQ(a.contributions[c].estab_id, b.contributions[c].estab_id);
        ASSERT_EQ(a.contributions[c].count, b.contributions[c].count);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GroupByFuzzTest,
    ::testing::Values(FuzzCase{1, 10, 2, 2, 2}, FuzzCase{2, 100, 3, 4, 5},
                      FuzzCase{3, 1000, 5, 7, 20},
                      FuzzCase{4, 5000, 2, 30, 100},
                      FuzzCase{5, 20000, 20, 3, 500},
                      FuzzCase{6, 1, 4, 4, 1},
                      FuzzCase{7, 3000, 1, 1, 50},
                      // Large enough to span several range partitions.
                      FuzzCase{8, 200000, 30, 40, 3000},
                      // More establishments than cells: long contribution
                      // lists exercise the packed run-length pass.
                      FuzzCase{9, 100000, 2, 2, 20000}),
    [](const ::testing::TestParamInfo<FuzzCase>& info) {
      return "seed" + std::to_string(info.param.seed) + "_rows" +
             std::to_string(info.param.num_rows);
    });

// Employer-clustered layouts. Every real extract keeps an establishment's
// rows together (the generator emits them so, and Table::HashJoin keeps the
// left order), which is the input the engine's establishment-run folding
// and its key-only sort for ascending estab ids are built for. Each case
// is checked against the naive reference at 1/2/4/8 threads.

/// Naive reference: key -> estab -> summed weight, both levels ordered.
using Reference = std::map<uint64_t, std::map<int64_t, int64_t>>;

/// The engine's output must equal the reference exactly: cells in key
/// order, each with its contributions in estab order and their sum.
void ExpectMatches(const std::vector<GroupedCell>& cells, const Reference& ref,
                   const std::string& context) {
  ASSERT_EQ(cells.size(), ref.size()) << context;
  size_t c = 0;
  for (const auto& [key, contribs] : ref) {
    const GroupedCell& cell = cells[c++];
    ASSERT_EQ(cell.key, key) << context;
    ASSERT_EQ(cell.contributions.size(), contribs.size()) << context;
    int64_t count = 0;
    size_t e = 0;
    for (const auto& [estab, weight] : contribs) {
      ASSERT_EQ(cell.contributions[e].estab_id, estab) << context;
      ASSERT_EQ(cell.contributions[e].count, weight) << context;
      count += weight;
      ++e;
    }
    ASSERT_EQ(cell.count, count) << context;
  }
}

enum class Layout {
  kAscendingRuns,   // estab ids ascend run by run, like the generator
  kShuffledRuns,    // the same runs in a random order
  kDescendingRuns,  // the same runs in descending estab order
  kOneEstab,        // one establishment holds every row
  kNegativeIds,     // ascending runs of negative ids: the pair fallback
  kHugeIds,         // ascending ids too wide to pack next to the key
  kUnclustered,     // every row draws its estab at random
};

struct ClusteredCase {
  uint64_t seed;
  Layout layout;
  size_t num_rows;
  uint32_t radix_a;  // workplace-like: fixed per establishment
  uint32_t radix_b;  // worker-like: drawn per row
  int min_run;  // establishment sizes are uniform in [min_run, max_run]
  int max_run;
};

struct Rows {
  std::vector<int64_t> estabs;
  std::vector<uint32_t> as, bs;
};

/// Rows grouped into establishment runs laid out per `layout`. Inside a
/// run attr_a is the establishment's and attr_b repeats the previous row's
/// value half of the time, so runs mix repeated and alternating keys.
Rows MakeRows(const ClusteredCase& c, Rng& rng) {
  struct Run {
    int64_t estab;
    size_t length;
  };
  std::vector<Run> runs;
  for (size_t rows = 0; rows < c.num_rows;) {
    const auto drawn =
        static_cast<size_t>(rng.UniformInt(c.min_run, c.max_run));
    const size_t length = c.layout == Layout::kOneEstab
                              ? c.num_rows
                              : std::min(c.num_rows - rows, drawn);
    const int64_t index = static_cast<int64_t>(runs.size());
    int64_t estab = index + 1;
    if (c.layout == Layout::kNegativeIds) estab = index - 1000000;
    if (c.layout == Layout::kHugeIds) estab = (int64_t{1} << 62) + index;
    runs.push_back({estab, length});
    rows += length;
  }
  if (c.layout == Layout::kShuffledRuns) {
    const std::vector<uint32_t> perm =
        rng.Permutation(static_cast<uint32_t>(runs.size()));
    std::vector<Run> shuffled;
    for (uint32_t p : perm) shuffled.push_back(runs[p]);
    runs = std::move(shuffled);
  }
  if (c.layout == Layout::kDescendingRuns) {
    std::reverse(runs.begin(), runs.end());
  }
  Rows rows;
  for (const Run& run : runs) {
    const auto a = static_cast<uint32_t>(rng.UniformInt(0, c.radix_a - 1));
    uint32_t b = static_cast<uint32_t>(rng.UniformInt(0, c.radix_b - 1));
    for (size_t i = 0; i < run.length; ++i) {
      if (rng.Bernoulli(0.5)) {
        b = static_cast<uint32_t>(rng.UniformInt(0, c.radix_b - 1));
      }
      rows.estabs.push_back(run.estab);
      rows.as.push_back(a);
      rows.bs.push_back(b);
    }
  }
  if (c.layout == Layout::kUnclustered) {
    const size_t estabs = runs.size();
    for (auto& estab : rows.estabs) {
      estab = rng.UniformInt(1, static_cast<int64_t>(estabs));
    }
  }
  return rows;
}

std::string LayoutName(Layout layout) {
  switch (layout) {
    case Layout::kAscendingRuns:
      return "ascending";
    case Layout::kShuffledRuns:
      return "shuffled";
    case Layout::kDescendingRuns:
      return "descending";
    case Layout::kOneEstab:
      return "one_estab";
    case Layout::kNegativeIds:
      return "negative_ids";
    case Layout::kHugeIds:
      return "huge_ids";
    case Layout::kUnclustered:
      return "unclustered";
  }
  return "?";
}

class ClusteredGroupByFuzzTest
    : public ::testing::TestWithParam<ClusteredCase> {};

TEST_P(ClusteredGroupByFuzzTest, MatchesNaiveReference) {
  const ClusteredCase c = GetParam();
  Rng rng(c.seed);
  const Rows rows = MakeRows(c, rng);
  auto dict_a = Dictionary::Create(MakeValues(c.radix_a, "a")).value();
  auto dict_b = Dictionary::Create(MakeValues(c.radix_b, "b")).value();
  auto schema = Schema::Create({{"estab", DataType::kInt64, nullptr},
                                {"attr_a", DataType::kCategory, dict_a},
                                {"attr_b", DataType::kCategory, dict_b}})
                    .value();
  auto t = Table::Create(schema, {Column::OfInt64(rows.estabs),
                                  Column::OfCategory(rows.as),
                                  Column::OfCategory(rows.bs)})
               .value();
  auto codec = GroupKeyCodec::Create(schema, {"attr_a", "attr_b"}).value();
  Reference ref;
  for (size_t i = 0; i < c.num_rows; ++i) {
    ++ref[codec.Pack({rows.as[i], rows.bs[i]})][rows.estabs[i]];
  }
  for (int threads : {1, 2, 4, 8}) {
    auto grouped = GroupCountByEstablishment(t, {"attr_a", "attr_b"}, "estab",
                                             GroupByOptions{threads})
                       .value();
    ExpectMatches(grouped.cells, ref, "threads=" + std::to_string(threads));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Layouts, ClusteredGroupByFuzzTest,
    ::testing::Values(
        ClusteredCase{11, Layout::kAscendingRuns, 20000, 30, 12, 1, 60},
        ClusteredCase{12, Layout::kAscendingRuns, 300000, 40, 40, 1, 400},
        ClusteredCase{13, Layout::kShuffledRuns, 20000, 30, 12, 1, 60},
        ClusteredCase{14, Layout::kDescendingRuns, 20000, 30, 12, 1, 60},
        // 30 x 5 keys: the table is capped by the domain, not the run.
        ClusteredCase{15, Layout::kOneEstab, 50000, 30, 5, 1, 1},
        // Few long runs: every 2/4/8-thread block boundary falls inside
        // a run, so a run's weight splits across blocks.
        ClusteredCase{16, Layout::kAscendingRuns, 3001, 7, 9, 1, 1500},
        ClusteredCase{17, Layout::kShuffledRuns, 3001, 7, 9, 1, 1500},
        // Runs of exactly one 4-thread block: at 4 and 8 threads every
        // descent sits on a block boundary, inside no block.
        ClusteredCase{18, Layout::kDescendingRuns, 4000, 3, 500, 1000, 1000},
        ClusteredCase{19, Layout::kNegativeIds, 20000, 30, 12, 1, 60},
        ClusteredCase{20, Layout::kHugeIds, 20000, 30, 12, 1, 60},
        ClusteredCase{21, Layout::kUnclustered, 20000, 30, 12, 1, 60}),
    [](const ::testing::TestParamInfo<ClusteredCase>& info) {
      return LayoutName(info.param.layout) + "_seed" +
             std::to_string(info.param.seed);
    });

// The weighted entry point (the roll-ups' re-aggregation) folds through
// the same establishment runs: weights sum per (key, estab) pair whether
// the items arrive clustered by establishment or not.
TEST(WeightedGroupByFuzzTest, ClusteredAndUnclusteredMatchReference) {
  for (const Layout layout : {Layout::kAscendingRuns, Layout::kShuffledRuns,
                              Layout::kUnclustered, Layout::kNegativeIds}) {
    Rng rng(22);
    const ClusteredCase c{22, layout, 40000, 50, 8, 1, 200};
    const Rows rows = MakeRows(c, rng);
    const uint64_t domain = uint64_t{c.radix_a} * c.radix_b;
    std::vector<uint64_t> keys(c.num_rows);
    std::vector<int64_t> weights(c.num_rows);
    Reference ref;
    for (size_t i = 0; i < c.num_rows; ++i) {
      keys[i] = uint64_t{rows.as[i]} * c.radix_b + rows.bs[i];
      weights[i] = rng.UniformInt(1, 1000);
      ref[keys[i]][rows.estabs[i]] += weights[i];
    }
    for (int threads : {1, 2, 4, 8}) {
      ExpectMatches(AggregateWeightedByKeyAndEstab(keys, rows.estabs, weights,
                                                   domain, threads),
                    ref,
                    LayoutName(layout) + " threads=" + std::to_string(threads));
    }
  }
}

}  // namespace
}  // namespace eep::table
