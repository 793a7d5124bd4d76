#include "table/partitioned_group_by.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstring>
#include <iterator>
#include <limits>

#include "common/workers.h"

namespace eep::table {
namespace {

// Rows per partition the planner aims for: small enough that a partition's
// working set stays cache-resident while it is sorted, large enough that
// per-partition overhead amortizes.
constexpr size_t kTargetPartitionRows = size_t{1} << 16;
constexpr size_t kMaxPartitions = 1024;

int BitWidth(uint64_t v) { return v == 0 ? 0 : 64 - __builtin_clzll(v); }

struct PartitionPlan {
  int threads = 1;
  /// Keys are range-partitioned by their high bits: p = key >> shift.
  /// Every partition holds a contiguous key range, which is what makes
  /// concatenating sorted partitions globally sorted — and the shift makes
  /// the per-row partition function one instruction.
  int shift = 0;
  size_t num_partitions = 1;
  size_t block_size = 0;  // rows per worker block
};

// The plan affects only execution, never the result: the aggregate of each
// key range is a function of its row multiset, so any (threads, partitions)
// choice concatenates to the same output.
PartitionPlan PlanFor(size_t n, uint64_t domain, int num_threads) {
  PartitionPlan plan;
  plan.threads = ResolveThreads(num_threads);
  const size_t target =
      std::min(kMaxPartitions,
               std::max<size_t>(n / kTargetPartitionRows + 1,
                                static_cast<size_t>(plan.threads)));
  const int key_bits = BitWidth(domain - 1);
  const int partition_bits = BitWidth(target - 1);
  // Cap at 63: a 64-bit shift is UB, and for 64-bit key domains a shift of
  // 63 still leaves at most two partitions.
  plan.shift = std::min(63, std::max(0, key_bits - partition_bits));
  plan.num_partitions = ((domain - 1) >> plan.shift) + 1;
  plan.block_size = (n + static_cast<size_t>(plan.threads) - 1) /
                    static_cast<size_t>(plan.threads);
  return plan;
}

/// One worker block's folded rows. Equal keys fold across each
/// maximal run of equal establishment ids in the block (RunFolder below),
/// so every (key, estab) pair of a run becomes one weighted item. Real
/// LODES extracts are clustered by employer — the generator and
/// Table::HashJoin's left-order output keep each establishment's rows
/// together — so this shrinks the sort input to about the distinct-pair
/// count: on the 1,000,094-row extract's workplace_sexedu grouping, 157,635
/// items, where merging only consecutive equal (key, estab) rows left
/// 827,693. On fully shuffled rows every run has length 1 and each row is
/// one item, for the cost of one predictable compare per row. Splitting a
/// run at a block boundary only splits its weight, and the per-partition
/// aggregation sums weights per pair, so the final result is independent
/// of the block layout (= thread count).
struct CompressedBlock {
  std::vector<uint64_t> keys;
  std::vector<int64_t> estabs;
  std::vector<int64_t> weights;
  std::vector<size_t> hist;  // items per partition
  int64_t min_estab = std::numeric_limits<int64_t>::max();
  int64_t max_estab = std::numeric_limits<int64_t>::min();
  /// Whether the block's estab ids are nondecreasing, including across the
  /// boundary with the previous block's last row.
  bool estabs_ascending = true;

  void Emit(uint64_t key, int64_t estab, int64_t weight, int shift) {
    keys.push_back(key);
    estabs.push_back(estab);
    weights.push_back(weight);
    ++hist[key >> shift];
  }
};

/// Per-worker open-addressing table that folds equal keys across one
/// establishment run. A slot holds a key and its summed weight. The table
/// is sized per run to a power of two >= 2 * min(run length, domain) — the
/// run's distinct keys are at most that — and reused across runs, clearing
/// only the slots the run used. A run whose rows all share one key — a run
/// of length 1, or any run of a workplace-only grouping — emits its item
/// without touching the table.
class RunFolder {
 public:
  /// Folds the establishment run that starts at row `begin` — the rows
  /// before `end` that continue estab_ids[begin] — into one item per
  /// distinct key of `block`, and returns the row after the run.
  template <typename WeightFn>
  size_t Fold(const uint64_t* keys, const int64_t* estab_ids,
              WeightFn weight_of, size_t begin, size_t end, uint64_t domain,
              int shift, CompressedBlock* block) {
    const int64_t estab = estab_ids[begin];
    const uint64_t first_key = keys[begin];
    int64_t first_weight = weight_of(begin);
    size_t i = begin + 1;
    while (i < end && estab_ids[i] == estab && keys[i] == first_key) {
      first_weight += weight_of(i++);
    }
    if (i == end || estab_ids[i] != estab) {
      block->Emit(first_key, estab, first_weight, shift);
      return i;
    }
    // A second key: the rest of the run folds through the table.
    size_t run_end = i + 1;
    while (run_end < end && estab_ids[run_end] == estab) ++run_end;
    const uint64_t distinct = std::min<uint64_t>(run_end - begin, domain);
    bits_ = BitWidth(2 * distinct - 1);
    if (slot_keys_.size() < size_t{1} << bits_) {
      slot_keys_.assign(size_t{1} << bits_, kEmpty);
      slot_weights_.resize(size_t{1} << bits_);
    }
    Add(first_key, first_weight);
    for (; i < run_end; ++i) Add(keys[i], weight_of(i));
    for (size_t s : used_) {
      block->Emit(slot_keys_[s], estab, slot_weights_[s], shift);
      slot_keys_[s] = kEmpty;
    }
    used_.clear();
    return run_end;
  }

 private:
  // Keys are < domain <= 2^64 - 1, so the all-ones value is never a key.
  static constexpr uint64_t kEmpty = std::numeric_limits<uint64_t>::max();

  void Add(uint64_t key, int64_t weight) {
    const size_t mask = (size_t{1} << bits_) - 1;
    size_t s =
        static_cast<size_t>((key * 0x9E3779B97F4A7C15ULL) >> (64 - bits_));
    while (slot_keys_[s] != key) {
      if (slot_keys_[s] == kEmpty) {
        slot_keys_[s] = key;
        slot_weights_[s] = 0;
        used_.push_back(s);
        break;
      }
      s = (s + 1) & mask;
    }
    slot_weights_[s] += weight;
  }

  std::vector<uint64_t> slot_keys_;
  std::vector<int64_t> slot_weights_;
  std::vector<size_t> used_;  // slots the current run filled, in order
  int bits_ = 1;
};

// LSD radix sort of vals[0..n) on the `used_bytes` bytes starting at bit
// `low_bit` (the caller knows which bits carry the order), additionally
// skipping bytes on which all values agree — e.g. high key bytes shared by
// a whole partition. The sort is stable, so bits below `low_bit` keep
// their input order within equal digits; inputs under 128 items are
// instead sorted on the whole value. weights[i] travels with vals[i].
void RadixSortWithWeights(uint64_t* vals, int64_t* weights, size_t n,
                          int low_bit, int used_bytes,
                          std::vector<uint64_t>& val_scratch,
                          std::vector<int64_t>& weight_scratch) {
  if (n < 128) {
    std::vector<std::pair<uint64_t, int64_t>> tmp(n);
    for (size_t i = 0; i < n; ++i) tmp[i] = {vals[i], weights[i]};
    std::sort(tmp.begin(), tmp.end(),
              [](const std::pair<uint64_t, int64_t>& a,
                 const std::pair<uint64_t, int64_t>& b) {
                return a.first < b.first;
              });
    for (size_t i = 0; i < n; ++i) {
      vals[i] = tmp[i].first;
      weights[i] = tmp[i].second;
    }
    return;
  }
  size_t hist[8][256] = {};
  for (size_t i = 0; i < n; ++i) {
    const uint64_t x = vals[i];
    for (int b = 0; b < used_bytes; ++b) {
      ++hist[b][(x >> (low_bit + 8 * b)) & 0xff];
    }
  }
  if (val_scratch.size() < n) val_scratch.resize(n);
  if (weight_scratch.size() < n) weight_scratch.resize(n);
  uint64_t* vsrc = vals;
  uint64_t* vdst = val_scratch.data();
  int64_t* wsrc = weights;
  int64_t* wdst = weight_scratch.data();
  for (int b = 0; b < used_bytes; ++b) {
    // vsrc holds a permutation of the original values, so testing vsrc[0]'s
    // bucket against n detects a constant byte.
    const int digit_shift = low_bit + 8 * b;
    if (hist[b][(vsrc[0] >> digit_shift) & 0xff] == n) continue;
    size_t offsets[256];
    size_t run = 0;
    for (int d = 0; d < 256; ++d) {
      offsets[d] = run;
      run += hist[b][d];
    }
    for (size_t i = 0; i < n; ++i) {
      const size_t slot = offsets[(vsrc[i] >> digit_shift) & 0xff]++;
      vdst[slot] = vsrc[i];
      wdst[slot] = wsrc[i];
    }
    std::swap(vsrc, vdst);
    std::swap(wsrc, wdst);
  }
  if (vsrc != vals) {
    std::memcpy(vals, vsrc, n * sizeof(uint64_t));
    std::memcpy(weights, wsrc, n * sizeof(int64_t));
  }
}

// Sorted weighted packed (key << estab_bits | estab) items -> cells, one
// per key run, with contributions in estab order (inherited from the sort)
// and counts as weight sums.
void RlePacked(const uint64_t* vals, const int64_t* weights, size_t n,
               int estab_bits, std::vector<GroupedCell>* out) {
  const uint64_t mask =
      estab_bits == 0 ? 0 : (~uint64_t{0} >> (64 - estab_bits));
  size_t i = 0;
  while (i < n) {
    const uint64_t key = vals[i] >> estab_bits;
    size_t key_end = i + 1;
    while (key_end < n && (vals[key_end] >> estab_bits) == key) ++key_end;
    GroupedCell cell;
    cell.key = key;
    cell.contributions.reserve(key_end - i);
    while (i < key_end) {
      const uint64_t packed = vals[i];
      int64_t weight = weights[i];
      size_t j = i + 1;
      while (j < key_end && vals[j] == packed) weight += weights[j++];
      cell.contributions.push_back(
          {static_cast<int64_t>(packed & mask), weight});
      cell.count += weight;
      i = j;
    }
    out->push_back(std::move(cell));
  }
}

struct KeyEstabWeight {
  uint64_t key;
  int64_t estab;
  int64_t weight;
};

void RleTriples(const KeyEstabWeight* v, size_t n,
                std::vector<GroupedCell>* out) {
  size_t i = 0;
  while (i < n) {
    const uint64_t key = v[i].key;
    GroupedCell cell;
    cell.key = key;
    while (i < n && v[i].key == key) {
      const int64_t estab = v[i].estab;
      int64_t weight = v[i].weight;
      size_t j = i + 1;
      while (j < n && v[j].key == key && v[j].estab == estab) {
        weight += v[j++].weight;
      }
      cell.contributions.push_back({estab, weight});
      cell.count += weight;
      i = j;
    }
    out->push_back(std::move(cell));
  }
}

std::vector<GroupedCell> ConcatPartitions(
    std::vector<std::vector<GroupedCell>> per_partition) {
  size_t total = 0;
  for (const auto& cells : per_partition) total += cells.size();
  std::vector<GroupedCell> result;
  result.reserve(total);
  for (auto& cells : per_partition) {
    std::move(cells.begin(), cells.end(), std::back_inserter(result));
  }
  return result;
}

// Converts per-block item histograms into scatter cursors (partition-major,
// block-minor) so every (block, partition) writes a disjoint slice of the
// scattered arrays. Returns partition start offsets (size P + 1).
std::vector<size_t> CursorsFromHists(std::vector<CompressedBlock>* blocks,
                                     size_t num_partitions) {
  std::vector<size_t> starts(num_partitions + 1, 0);
  size_t run = 0;
  for (size_t p = 0; p < num_partitions; ++p) {
    starts[p] = run;
    for (auto& block : *blocks) {
      const size_t count = block.hist[p];
      block.hist[p] = run;
      run += count;
    }
  }
  starts[num_partitions] = run;
  return starts;
}

}  // namespace

std::vector<uint64_t> MaterializeGroupKeys(const Table& table,
                                           const GroupKeyCodec& codec,
                                           int num_threads) {
  const size_t n = table.num_rows();
  std::vector<uint64_t> keys(n);
  if (n == 0) return keys;
  std::vector<const uint32_t*> columns;
  columns.reserve(codec.column_indices().size());
  for (size_t idx : codec.column_indices()) {
    columns.push_back(table.column(idx).codes().data());
  }
  const auto& radices = codec.radices();
  const int threads = ResolveThreads(num_threads);
  const size_t block =
      (n + static_cast<size_t>(threads) - 1) / static_cast<size_t>(threads);
  // eep-lint: disjoint-writes -- worker w writes keys[begin, end) only,
  // its contiguous row block; blocks partition [0, n).
  RunWorkers(threads, [&](int w) {
    const size_t begin = static_cast<size_t>(w) * block;
    const size_t end = std::min(n, begin + block);
    if (begin >= end) return;
    const uint32_t* c0 = columns[0];
    for (size_t i = begin; i < end; ++i) keys[i] = c0[i];
    for (size_t c = 1; c < columns.size(); ++c) {
      const uint64_t radix = radices[c];
      const uint32_t* cc = columns[c];
      for (size_t i = begin; i < end; ++i) keys[i] = keys[i] * radix + cc[i];
    }
  });
  return keys;
}

namespace {

/// Weight of one input item in the folding phase: AggregateByKeyAndEstab
/// counts each row once, AggregateWeightedByKeyAndEstab reads the caller's
/// weight array. Summing weights over a run generalizes the original run-length
/// (j - i) without changing it for unit weights.
struct UnitWeight {
  int64_t operator()(size_t) const { return 1; }
};
struct SpanWeight {
  const int64_t* w;
  int64_t operator()(size_t i) const { return w[i]; }
};

template <typename WeightFn>
std::vector<GroupedCell> AggregateByKeyAndEstabImpl(
    std::vector<uint64_t> keys, const std::vector<int64_t>& estab_ids,
    WeightFn weight_of, uint64_t domain_size, int num_threads) {
  assert(estab_ids.size() == keys.size());
  assert(domain_size > 0);
  const size_t n = keys.size();
  if (n == 0) return {};
  const PartitionPlan plan = PlanFor(n, domain_size, num_threads);
  const size_t P = plan.num_partitions;

  // Phase 1: per-block establishment-run folding + partition histogram +
  // estab range and order.
  std::vector<CompressedBlock> blocks(static_cast<size_t>(plan.threads));
  RunWorkers(plan.threads, [&](int w) {
    const size_t begin = static_cast<size_t>(w) * plan.block_size;
    const size_t end = std::min(n, begin + plan.block_size);
    CompressedBlock& block = blocks[static_cast<size_t>(w)];
    block.hist.assign(P, 0);
    block.estabs_ascending =
        begin == 0 || begin >= end || estab_ids[begin - 1] <= estab_ids[begin];
    RunFolder folder;
    size_t i = begin;
    while (i < end) {
      const int64_t estab = estab_ids[i];
      const size_t j = folder.Fold(keys.data(), estab_ids.data(), weight_of,
                                   i, end, domain_size, plan.shift, &block);
      if (j < end && estab_ids[j] < estab) block.estabs_ascending = false;
      block.min_estab = std::min(block.min_estab, estab);
      block.max_estab = std::max(block.max_estab, estab);
      i = j;
    }
  });
  keys = {};
  int64_t min_estab = std::numeric_limits<int64_t>::max();
  int64_t max_estab = std::numeric_limits<int64_t>::min();
  bool estabs_ascending = true;
  for (const auto& block : blocks) {
    min_estab = std::min(min_estab, block.min_estab);
    max_estab = std::max(max_estab, block.max_estab);
    estabs_ascending = estabs_ascending && block.estabs_ascending;
  }
  const std::vector<size_t> starts = CursorsFromHists(&blocks, P);
  const size_t items = starts[P];

  // Non-negative establishment ids whose bits fit next to the key bits
  // pack into one radix-sortable uint64; anything else takes the 24-byte
  // comparison-sort fallback.
  const int key_bits = BitWidth(domain_size - 1);
  const int estab_bits =
      BitWidth(static_cast<uint64_t>(std::max<int64_t>(max_estab, 0)));
  const bool packable = min_estab >= 0 && key_bits + estab_bits <= 64;
  // With nondecreasing estab ids the scatter below leaves every partition
  // estab-ordered (blocks are contiguous row ranges in row order, and the
  // cursors keep block order inside a partition), so the stable radix sort
  // only needs the key digits; otherwise it sorts the whole packed value.
  const int sort_low_bit = estabs_ascending ? estab_bits : 0;
  const int sort_bytes = (key_bits + estab_bits - sort_low_bit + 7) / 8;

  std::vector<std::vector<GroupedCell>> per_partition(P);
  std::atomic<size_t> next{0};

  if (packable) {
    // Phase 2: scatter weighted packed items into partition order.
    std::vector<uint64_t> vals(items);
    std::vector<int64_t> weights(items);
    // eep-lint: disjoint-writes -- CursorsFromHists hands every
    // (block, partition) pair a disjoint slice of vals/weights; worker w
    // advances only its own block's cursors.
    RunWorkers(plan.threads, [&](int w) {
      CompressedBlock& block = blocks[static_cast<size_t>(w)];
      for (size_t i = 0; i < block.keys.size(); ++i) {
        const uint64_t key = block.keys[i];
        const size_t slot = block.hist[key >> plan.shift]++;
        vals[slot] =
            (key << estab_bits) | static_cast<uint64_t>(block.estabs[i]);
        weights[slot] = block.weights[i];
      }
      block = CompressedBlock{};
    });
    // Phase 3: per-partition sort + weighted run-length aggregation.
    RunWorkers(plan.threads, [&](int) {
      std::vector<uint64_t> val_scratch;
      std::vector<int64_t> weight_scratch;
      for (size_t p = next.fetch_add(1); p < P; p = next.fetch_add(1)) {
        const size_t m = starts[p + 1] - starts[p];
        RadixSortWithWeights(vals.data() + starts[p],
                             weights.data() + starts[p], m, sort_low_bit,
                             sort_bytes, val_scratch, weight_scratch);
        RlePacked(vals.data() + starts[p], weights.data() + starts[p], m,
                  estab_bits, &per_partition[p]);
      }
    });
  } else {
    std::vector<KeyEstabWeight> scattered(items);
    // eep-lint: disjoint-writes -- same cursor argument as the packable
    // path: each (block, partition) slice of `scattered` is private.
    RunWorkers(plan.threads, [&](int w) {
      CompressedBlock& block = blocks[static_cast<size_t>(w)];
      for (size_t i = 0; i < block.keys.size(); ++i) {
        const size_t slot = block.hist[block.keys[i] >> plan.shift]++;
        scattered[slot] = {block.keys[i], block.estabs[i], block.weights[i]};
      }
      block = CompressedBlock{};
    });
    RunWorkers(plan.threads, [&](int) {
      for (size_t p = next.fetch_add(1); p < P; p = next.fetch_add(1)) {
        KeyEstabWeight* v = scattered.data() + starts[p];
        const size_t m = starts[p + 1] - starts[p];
        std::sort(v, v + m,
                  [](const KeyEstabWeight& a, const KeyEstabWeight& b) {
                    return a.key != b.key ? a.key < b.key
                                          : a.estab < b.estab;
                  });
        RleTriples(v, m, &per_partition[p]);
      }
    });
  }
  return ConcatPartitions(std::move(per_partition));
}

}  // namespace

std::vector<GroupedCell> AggregateByKeyAndEstab(
    std::vector<uint64_t> keys, const std::vector<int64_t>& estab_ids,
    uint64_t domain_size, int num_threads) {
  return AggregateByKeyAndEstabImpl(std::move(keys), estab_ids, UnitWeight{},
                                    domain_size, num_threads);
}

std::vector<GroupedCell> AggregateWeightedByKeyAndEstab(
    std::vector<uint64_t> keys, const std::vector<int64_t>& estab_ids,
    const std::vector<int64_t>& weights, uint64_t domain_size,
    int num_threads) {
  assert(weights.size() == keys.size());
  return AggregateByKeyAndEstabImpl(std::move(keys), estab_ids,
                                    SpanWeight{weights.data()}, domain_size,
                                    num_threads);
}

}  // namespace eep::table
