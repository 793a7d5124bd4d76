// eep_perfbench: one benchmark run of one workload, in one process.
//
// Drives the public entry points of every module on a generated ~1M-job
// extract (lodes generator -> ComputeWorkload -> RunReleaseWorkload ->
// Store::CommitEpoch -> Server::RefreshNow / Snapshot::Load -> Service),
// checks every answer against the released tables, and prints the metrics
// and then one JSON object as its last stdout line. perfbench/run.py
// builds this binary and runs it once per benchmark run; see
// perfbench/README.md for the workloads, the metrics and why a run is
// six set-up + measure slices.
//
//   eep_perfbench --workload=publish_cold|serve_mixed
//                 --seed=N --seconds=S --trace=0|1 --dir=STORE_DIR
//                 [--trace_out=PATH]
//
// Exit codes: 0 = ran (the JSON says whether every gate held), 2 = set-up
// failed (no JSON).
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/flags.h"
#include "common/random.h"
#include "common/status.h"
#include "eval/workloads.h"
#include "lodes/generator.h"
#include "lodes/workload.h"
#include "perf_stats.h"
#include "release/pipeline.h"
#include "serve/server.h"
#include "serve/service.h"
#include "serve/snapshot.h"
#include "store/store.h"
#include "table/group_by_cache.h"

namespace {

using namespace eep;
using perfbench::ScopedSpan;
using perfbench::Tracer;

/// The generated extract: a tenth of the paper's 10.9M jobs, the same
/// for every --seed (its establishment count, and so the work of a
/// publish, moves ~6% from one generator seed to the next). The seed
/// derives every publish's noise and every request stream.
constexpr int64_t kJobs = 1000000;
constexpr uint64_t kExtractSeed = 42;
constexpr size_t kTopK = 10;
constexpr double kZipfExponent = 1.0;
constexpr double kMissShare = 0.05;
constexpr double kTopKShare = 0.10;
constexpr int64_t kDeadlineBudgetMs = 1000;
constexpr size_t kQueueCapacity = 16;
constexpr int kServiceWorkers = 2;
/// Prepared requests per client, cycled; enough that the cycle is far
/// longer than any cache the serve path keeps.
constexpr size_t kRequestRing = 8192;
/// publish_cold alternates publishing and reading in cycles of
/// kColdCycleS, publishing for kPublishShare of each cycle.
constexpr double kColdCycleS = 2.5;
constexpr double kPublishShare = 0.6;
/// answers_per_s is the median over windows of this many consecutive
/// answers of one client, so a stall episode moves the windows it hits,
/// not the whole run's mean.
constexpr uint64_t kRateWindow = 1000;
/// In a traced run every kTraceEvery-th request carries spans; the others
/// are the untraced control for trace overhead.
constexpr uint64_t kTraceEvery = 16;
/// serve_mixed's writer republishes over the paper's utility-cost sweep.
constexpr double kEpsilonSweep[] = {1.0, 2.0, 4.0, 8.0};

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "eep_perfbench: %s\n", what.c_str());
  std::exit(2);
}

template <typename T>
T Must(Result<T> result, const char* what) {
  if (!result.ok()) Die(std::string(what) + ": " + result.status().ToString());
  return std::move(result).value();
}

double MsBetween(int64_t begin_ns, int64_t end_ns) {
  return static_cast<double>(end_ns - begin_ns) / 1e6;
}

/// A /proc/self/status field in MiB (VmHWM, VmRSS).
double ProcStatusMiB(const std::string& field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(field + ":", 0) == 0) {
      return std::strtod(line.c_str() + field.size() + 1, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

/// Guest steal and total CPU time so far, in clock ticks, from the first
/// line of /proc/stat ("cpu user nice system idle iowait irq softirq
/// steal ..."). Steal is time the host ran something else on this guest's
/// CPUs; the run reports its share so a report can tell runs inside a host
/// stall episode from a regression.
std::pair<double, double> StealAndTotalTicks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  double steal = 0.0, total = 0.0, v = 0.0;
  for (int field = 0; field < 8 && in >> v; ++field) {
    total += v;
    if (field == 7) steal = v;
  }
  return {steal, total};
}

/// Correctness gates: any entry fails the run.
class Gates {
 public:
  void Fail(const std::string& what) {
    std::lock_guard<std::mutex> lock(mu_);
    if (failures_.size() < 20) failures_.push_back(what);
    ++count_;
  }
  void Check(bool ok, const std::string& what) {
    if (!ok) Fail(what);
  }
  bool ok() const {
    std::lock_guard<std::mutex> lock(mu_);
    return count_ == 0;
  }
  std::vector<std::string> failures() const {
    std::lock_guard<std::mutex> lock(mu_);
    return failures_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<std::string> failures_;
  uint64_t count_ = 0;
};

bool SameTables(const std::vector<release::ReleasedTable>& released,
                const std::vector<store::TableData>& stored) {
  if (released.size() != stored.size()) return false;
  for (size_t i = 0; i < released.size(); ++i) {
    if (released[i].header != stored[i].header ||
        released[i].rows != stored[i].rows) {
      return false;
    }
  }
  return true;
}

/// The TableData list RunReleaseWorkload persists (release/pipeline.cc):
/// "m<i>:<attribute columns>" names, header and rows verbatim.
std::vector<store::TableData> ToTableData(
    const std::vector<release::ReleasedTable>& tables) {
  std::vector<store::TableData> out;
  for (size_t i = 0; i < tables.size(); ++i) {
    store::TableData data;
    data.name = "m" + std::to_string(i);
    for (size_t c = 0; c + 1 < tables[i].header.size(); ++c) {
      data.name += (c == 0 ? ":" : ",");
      data.name += tables[i].header[c];
    }
    data.header = tables[i].header;
    data.rows = tables[i].rows;
    out.push_back(std::move(data));
  }
  return out;
}

/// Expected TopK(k) of a released table, computed independently of the
/// serve index: released count numeric descending, ties by attribute tuple
/// ascending (serve/snapshot.h's contract).
std::vector<serve::RankedCell> ExpectedTopK(const release::ReleasedTable& t,
                                            size_t k) {
  std::vector<size_t> order(t.rows.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  const size_t attrs = t.header.size() - 1;
  const auto less = [&](size_t a, size_t b) {
    const double ca = std::strtod(t.rows[a].back().c_str(), nullptr);
    const double cb = std::strtod(t.rows[b].back().c_str(), nullptr);
    if (ca != cb) return ca > cb;
    for (size_t c = 0; c < attrs; ++c) {
      const int cmp = t.rows[a][c].compare(t.rows[b][c]);
      if (cmp != 0) return cmp < 0;
    }
    return false;
  };
  const size_t n = std::min(k, order.size());
  std::partial_sort(order.begin(), order.begin() + static_cast<long>(n),
                    order.end(), less);
  std::vector<serve::RankedCell> out;
  for (size_t i = 0; i < n; ++i) {
    serve::RankedCell cell;
    cell.attrs.assign(t.rows[order[i]].begin(), t.rows[order[i]].end() - 1);
    cell.count = t.rows[order[i]].back();
    out.push_back(std::move(cell));
  }
  return out;
}

/// What one committed epoch must answer: per table, every cell's released
/// count (rows in the base epoch's cell order) and the expected top-k.
struct EpochOracle {
  uint64_t epoch = 0;
  std::vector<std::vector<std::string>> counts;
  std::vector<std::vector<serve::RankedCell>> topk;
};

/// The released cell domain, fixed by the dataset and workload: every
/// epoch releases the same cells in the same order with fresh noise.
struct CellDomain {
  std::vector<std::string> table_names;  ///< As the store names them.
  std::vector<std::vector<std::string>> headers;
  /// attrs[t][r]: the attribute values of row r of table t.
  std::vector<std::vector<std::vector<std::string>>> attrs;
  /// Flattened (table, row) cells the key stream draws from.
  std::vector<std::pair<uint32_t, uint32_t>> cells;
};

CellDomain MakeDomain(const std::vector<release::ReleasedTable>& tables) {
  CellDomain d;
  const std::vector<store::TableData> named = ToTableData(tables);
  for (size_t t = 0; t < tables.size(); ++t) {
    d.table_names.push_back(named[t].name);
    d.headers.push_back(tables[t].header);
    std::vector<std::vector<std::string>> rows;
    rows.reserve(tables[t].rows.size());
    for (size_t r = 0; r < tables[t].rows.size(); ++r) {
      rows.emplace_back(tables[t].rows[r].begin(),
                        tables[t].rows[r].end() - 1);
      d.cells.emplace_back(static_cast<uint32_t>(t), static_cast<uint32_t>(r));
    }
    d.attrs.push_back(std::move(rows));
  }
  return d;
}

/// Builds the oracle of a freshly released epoch; fails the gate when the
/// release left the base domain (a different cell set or order).
std::shared_ptr<const EpochOracle> MakeOracle(
    const CellDomain& domain, uint64_t epoch,
    const std::vector<release::ReleasedTable>& tables, Gates* gates) {
  auto oracle = std::make_shared<EpochOracle>();
  oracle->epoch = epoch;
  bool same = tables.size() == domain.headers.size();
  for (size_t t = 0; same && t < tables.size(); ++t) {
    same = tables[t].header == domain.headers[t] &&
           tables[t].rows.size() == domain.attrs[t].size();
    std::vector<std::string> counts;
    counts.reserve(tables[t].rows.size());
    for (size_t r = 0; same && r < tables[t].rows.size(); ++r) {
      const auto& row = tables[t].rows[r];
      same = std::equal(domain.attrs[t][r].begin(), domain.attrs[t][r].end(),
                        row.begin());
      counts.push_back(row.back());
    }
    oracle->counts.push_back(std::move(counts));
    oracle->topk.push_back(ExpectedTopK(tables[t], kTopK));
  }
  gates->Check(same, "epoch " + std::to_string(epoch) +
                         " released a different cell domain");
  return oracle;
}

/// Oracles of the epochs the client may still be served from. The client
/// announces the oldest epoch it might observe; the writer prunes below it.
class OracleBook {
 public:
  void Add(std::shared_ptr<const EpochOracle> oracle) {
    std::lock_guard<std::mutex> lock(mu_);
    const uint64_t floor = std::min(oracle->epoch, floor_.load());
    book_[oracle->epoch] = std::move(oracle);
    book_.erase(book_.begin(), book_.lower_bound(floor));
  }
  void SetFloor(uint64_t epoch) { floor_.store(epoch); }
  /// Oracles of epochs in [lo, hi].
  std::vector<std::shared_ptr<const EpochOracle>> Range(uint64_t lo,
                                                        uint64_t hi) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::shared_ptr<const EpochOracle>> out;
    for (auto it = book_.lower_bound(lo); it != book_.end() && it->first <= hi;
         ++it) {
      out.push_back(it->second);
    }
    return out;
  }

 private:
  mutable std::mutex mu_;
  std::map<uint64_t, std::shared_ptr<const EpochOracle>> book_;
  std::atomic<uint64_t> floor_{0};
};

/// One prepared request of a client's ring.
struct Prepared {
  perfbench::KeyDraw draw;
  uint32_t table = 0;
  uint32_t row = 0;
  serve::LookupRequest lookup;
  serve::TopKRequest topk;
};

perfbench::ZipfKeyStream MakeStream(const CellDomain& domain, uint64_t seed) {
  return perfbench::ZipfKeyStream(domain.cells.size(), kZipfExponent,
                                  kMissShare, kTopKShare, seed);
}

std::vector<Prepared> PrepareRing(const CellDomain& domain,
                                  perfbench::ZipfKeyStream* stream, size_t n) {
  std::vector<Prepared> ring(n);
  for (Prepared& p : ring) {
    p.draw = stream->Next();
    p.table = domain.cells[p.draw.cell].first;
    p.row = domain.cells[p.draw.cell].second;
    const std::string& name = domain.table_names[p.table];
    if (p.draw.topk) {
      p.topk.table = name;
      p.topk.k = kTopK;
      continue;
    }
    p.lookup.table = name;
    const auto& header = domain.headers[p.table];
    const auto& attrs = domain.attrs[p.table][p.row];
    for (size_t c = 0; c < attrs.size(); ++c) {
      p.lookup.values[header[c]] = attrs[c];
    }
    // A well-formed key outside the released domain: no released row has
    // this value in its first attribute column.
    if (p.draw.miss) p.lookup.values[header[0]] = "~miss";
  }
  return ring;
}

/// Outcome of one Service call against the oracles that may have served it.
enum class Verdict { kCorrect, kShed, kExpired, kUnexpected, kWrong };

Verdict JudgeLookup(
    const Prepared& p, const Result<std::string>& got,
    const std::vector<std::shared_ptr<const EpochOracle>>& candidates) {
  if (!got.ok()) {
    switch (got.status().code()) {
      case StatusCode::kResourceExhausted:
        return Verdict::kShed;
      case StatusCode::kDeadlineExceeded:
        return Verdict::kExpired;
      case StatusCode::kNotFound:
        return p.draw.miss ? Verdict::kCorrect : Verdict::kWrong;
      default:
        return Verdict::kUnexpected;
    }
  }
  if (p.draw.miss) return Verdict::kWrong;
  for (const auto& o : candidates) {
    if (o->counts[p.table][p.row] == got.value()) return Verdict::kCorrect;
  }
  return Verdict::kWrong;
}

Verdict JudgeTopK(
    const Prepared& p, const Result<std::vector<serve::RankedCell>>& got,
    const std::vector<std::shared_ptr<const EpochOracle>>& candidates) {
  if (!got.ok()) {
    switch (got.status().code()) {
      case StatusCode::kResourceExhausted:
        return Verdict::kShed;
      case StatusCode::kDeadlineExceeded:
        return Verdict::kExpired;
      default:
        return Verdict::kUnexpected;
    }
  }
  for (const auto& o : candidates) {
    if (o->topk[p.table] == got.value()) return Verdict::kCorrect;
  }
  return Verdict::kWrong;
}

/// Per-client tallies and latency samples. Each client owns one.
struct ClientLog {
  std::vector<double> lookup_us;
  std::vector<double> topk_us;
  std::vector<double> lookup_us_traced;  ///< Trace-overhead samples.
  uint64_t submitted = 0;
  uint64_t completed = 0;
  uint64_t shed = 0;
  uint64_t expired = 0;
  uint64_t unexpected = 0;
  uint64_t wrong = 0;
  /// Answers per second of each completed window of kRateWindow answers.
  std::vector<double> window_rates;
  int64_t window_start_ns = 0;
  uint64_t window_answers = 0;

  /// Counts one correct answer toward the current rate window.
  void Answered() {
    if (++window_answers < kRateWindow) return;
    const int64_t now = perfbench::NowNs();
    window_rates.push_back(static_cast<double>(kRateWindow) * 1e9 /
                           static_cast<double>(now - window_start_ns));
    window_start_ns = now;
    window_answers = 0;
  }

  void Merge(const ClientLog& o) {
    lookup_us.insert(lookup_us.end(), o.lookup_us.begin(), o.lookup_us.end());
    topk_us.insert(topk_us.end(), o.topk_us.begin(), o.topk_us.end());
    lookup_us_traced.insert(lookup_us_traced.end(), o.lookup_us_traced.begin(),
                            o.lookup_us_traced.end());
    submitted += o.submitted;
    completed += o.completed;
    shed += o.shed;
    expired += o.expired;
    unexpected += o.unexpected;
    wrong += o.wrong;
    window_rates.insert(window_rates.end(), o.window_rates.begin(),
                        o.window_rates.end());
  }
};

/// Everything a workload runs against; built by SetUp.
struct Bench {
  std::string workload;
  uint64_t seed = 0;
  std::string dir;
  Tracer* tracer = nullptr;
  Gates gates;

  std::optional<lodes::LodesDataset> data;
  std::unique_ptr<store::Store> writer;
  std::unique_ptr<serve::Server> server;
  std::unique_ptr<serve::Service> service;
  /// serve_mixed's writer cache, held across publishes.
  std::unique_ptr<table::GroupByCache> cache;
  release::WorkloadReleaseConfig config;
  CellDomain domain;
  std::shared_ptr<const EpochOracle> current;  ///< Latest epoch's oracle.

  uint64_t publishes = 0;
  uint64_t probe_requests = 0;  ///< Service calls outside the clients.
  std::vector<double> publish_ms;
  std::vector<double> visible_ms;
  std::vector<double> publish_ms_traced;
  std::vector<double> epoch_bytes;

  double generate_s = 0.0;
  double dataset_rss_mb = 0.0;
  double setup_s = 0.0;
};

struct PublishOutcome {
  std::vector<release::ReleasedTable> tables;
  uint64_t epoch = 0;
  int full_table_scans = 0;
};

/// One publish: RunReleaseWorkload with persist_to -> RefreshNow -> one
/// verified Service::Lookup answered from the new epoch. Records
/// publish_ms (extract to committed epoch) and visible_ms (extract to the
/// first verified served answer). Between commit and refresh, the epoch's
/// oracle is built and handed to `book` so no reader can see the epoch
/// before its oracle exists; that bookkeeping is excluded from visible_ms.
/// After the visible check, untimed, ReadEpoch must equal the released
/// tables.
PublishOutcome Publish(Bench* b, const release::WorkloadReleaseConfig& config,
                       table::GroupByCache* cache, OracleBook* book) {
  const uint64_t index = b->publishes++;
  const bool traced = b->tracer->enabled() && index % 2 == 1;
  Tracer* tracer = traced ? b->tracer : nullptr;
  Rng rng(perfbench::DeriveSeed(b->seed, 1000 + index));
  release::WorkloadReleaseStats stats;
  PublishOutcome out;

  ScopedSpan root(tracer, "bench.publish", 0, index + 1);
  const int64_t t0 = perfbench::NowNs();
  {
    ScopedSpan span(tracer, "release.RunReleaseWorkload", root.id(),
                    index + 1);
    out.tables = Must(release::RunReleaseWorkload(*b->data, config, nullptr,
                                                  rng, cache, &stats),
                      "publish");
  }
  const int64_t t_committed = perfbench::NowNs();
  out.epoch = stats.persisted_epoch;
  out.full_table_scans = stats.compute.full_table_scans;
  {
    ScopedSpan span(tracer, "bench.oracle", root.id(), index + 1);
    b->current = MakeOracle(b->domain, out.epoch, out.tables, &b->gates);
    book->Add(b->current);
  }
  const int64_t t_refresh = perfbench::NowNs();
  {
    ScopedSpan span(tracer, "serve.RefreshNow", root.id(), index + 1);
    const Status refreshed = b->server->RefreshNow();
    b->gates.Check(refreshed.ok(), "RefreshNow after epoch " +
                                       std::to_string(out.epoch) + ": " +
                                       refreshed.ToString());
  }
  // The visible check: one lookup of a rotating cell, which must carry the
  // new epoch's count.
  const auto& [t, r] = b->domain.cells[(index * 7919) % b->domain.cells.size()];
  serve::LookupRequest lookup;
  lookup.table = b->domain.table_names[t];
  for (size_t c = 0; c + 1 < b->domain.headers[t].size(); ++c) {
    lookup.values[b->domain.headers[t][c]] = b->domain.attrs[t][r][c];
  }
  Result<std::string> got = Status::Internal("not sent");
  {
    ScopedSpan span(tracer, "service.Lookup", root.id(), index + 1);
    got = b->service->Lookup(lookup);
  }
  ++b->probe_requests;
  const int64_t t_visible = perfbench::NowNs();
  root.End();
  b->gates.Check(got.ok() && got.value() == out.tables[t].rows[r].back(),
                 "visible lookup of epoch " + std::to_string(out.epoch) +
                     " did not return its released count");
  b->gates.Check(b->server->serving_epoch() >= out.epoch,
                 "epoch " + std::to_string(out.epoch) +
                     " not serving after RefreshNow");

  (traced ? b->publish_ms_traced : b->publish_ms)
      .push_back(MsBetween(t0, t_committed));
  if (!traced) {
    b->visible_ms.push_back(MsBetween(t0, t_committed) +
                            MsBetween(t_refresh, t_visible));
  }

  auto read = b->writer->ReadEpoch(out.epoch);
  b->gates.Check(read.ok() && SameTables(out.tables, read.value()),
                 "ReadEpoch(" + std::to_string(out.epoch) +
                     ") differs from the released tables");
  auto info = Must(b->writer->GetEpoch(out.epoch), "GetEpoch");
  uint64_t bytes = 0;
  for (const auto& meta : info->tables) bytes += meta.size_bytes;
  b->epoch_bytes.push_back(static_cast<double>(bytes));
  return out;
}

void SetUp(Bench* b) {
  const int64_t t0 = perfbench::NowNs();
  lodes::GeneratorConfig gen;
  gen.seed = kExtractSeed;
  gen.target_jobs = kJobs;
  const double rss_before = ProcStatusMiB("VmRSS");
  {
    ScopedSpan span(b->tracer, "lodes.Generate");
    b->data.emplace(Must(lodes::SyntheticLodesGenerator(gen).Generate(), "generate"));
  }
  b->generate_s = MsBetween(t0, perfbench::NowNs()) / 1e3;
  b->dataset_rss_mb = ProcStatusMiB("VmRSS") - rss_before;

  std::filesystem::remove_all(b->dir);
  b->writer = Must(store::Store::Open(b->dir), "store open");

  b->config.workload = lodes::WorkloadSpec::PaperTabulations();
  b->config.mechanism = eval::MechanismKind::kSmoothLaplace;
  b->config.alpha = 0.1;
  b->config.epsilon = 2.0;
  b->config.delta = 0.05;
  b->config.persist_to = b->writer.get();
  // One release thread everywhere: at two, whether the second thread
  // speeds the scan up flips between host-dependent regimes that last
  // longer than a run, so publish figures are bimodal run to run. The
  // two-thread scan is measured per layer (lodes.compute_ms against
  // lodes.compute_ms_1t) instead.
  b->config.num_threads = 1;
  // serve_mixed holds a cache across publishes, so its scan runs only in
  // set-up; publish_cold scans on every publish.
  if (b->workload == "serve_mixed") {
    b->cache = std::make_unique<table::GroupByCache>();
  }

  // The first publish, before any server exists: it fixes the released
  // cell domain and warms the writer's cache when there is one.
  Rng rng(perfbench::DeriveSeed(b->seed, 2));
  std::vector<release::ReleasedTable> first;
  {
    ScopedSpan span(b->tracer, "release.RunReleaseWorkload");
    first = Must(release::RunReleaseWorkload(*b->data, b->config, nullptr, rng,
                                             b->cache.get()),
                 "first publish");
  }
  b->domain = MakeDomain(first);

  serve::ServerOptions options;
  options.poll_interval_ms = 0;
  // serve_mixed's ε sweep changes the fingerprint every epoch.
  if (b->workload != "serve_mixed") {
    options.expected_fingerprint = serve::ExpectedFingerprint(b->config);
  }
  {
    ScopedSpan span(b->tracer, "serve.Server::Open");
    b->server = Must(serve::Server::Open(b->dir, options), "server open");
  }
  serve::ServiceOptions service_options;
  service_options.queue_capacity = kQueueCapacity;
  service_options.num_workers = kServiceWorkers;
  b->service =
      Must(serve::Service::Create(b->server.get(), service_options), "service");

  const uint64_t epoch = b->writer->last_committed_epoch();
  b->current = MakeOracle(b->domain, epoch, first, &b->gates);
  auto snapshot = b->server->snapshot();
  b->gates.Check(snapshot->epoch() == epoch &&
                     snapshot->tables().size() == b->domain.table_names.size(),
                 "server did not open on the first epoch");
  for (size_t t = 0; t < snapshot->tables().size(); ++t) {
    b->gates.Check(snapshot->tables()[t].name() == b->domain.table_names[t],
                   "served table name differs from the persisted one");
  }
  b->setup_s = MsBetween(t0, perfbench::NowNs()) / 1e3;
}

struct PhaseResult {
  ClientLog clients;
  double wall_s = 0.0;
};

void Tally(Verdict verdict, ClientLog* log) {
  ++log->submitted;
  switch (verdict) {
    case Verdict::kCorrect:
      ++log->completed;
      log->Answered();
      break;
    case Verdict::kShed:
      ++log->shed;
      break;
    case Verdict::kExpired:
      ++log->expired;
      break;
    case Verdict::kUnexpected:
      ++log->unexpected;
      break;
    case Verdict::kWrong:
      ++log->wrong;
      break;
  }
}

/// Sends one prepared request through the Service, times it and judges the
/// answer against the oracles of every epoch that served during the call.
void SendOne(Bench* b, OracleBook* book, Prepared* p, uint64_t request,
             bool traced, ClientLog* log) {
  Tracer* tracer = traced ? b->tracer : nullptr;
  const uint64_t e0 = b->server->serving_epoch();
  book->SetFloor(e0);
  Verdict verdict;
  if (p->draw.topk) {
    p->topk.deadline_ms = b->service->DeadlineAfterMs(kDeadlineBudgetMs);
    ScopedSpan span(tracer, "service.TopK", 0, request);
    const int64_t s = perfbench::NowNs();
    auto got = b->service->TopK(p->topk);
    const double us = static_cast<double>(perfbench::NowNs() - s) / 1e3;
    span.End();
    verdict = JudgeTopK(*p, got, book->Range(e0, b->server->serving_epoch()));
    if (verdict == Verdict::kCorrect && !traced) log->topk_us.push_back(us);
  } else {
    p->lookup.deadline_ms = b->service->DeadlineAfterMs(kDeadlineBudgetMs);
    ScopedSpan span(tracer, "service.Lookup", 0, request);
    const int64_t s = perfbench::NowNs();
    auto got = b->service->Lookup(p->lookup);
    const double us = static_cast<double>(perfbench::NowNs() - s) / 1e3;
    span.End();
    verdict =
        JudgeLookup(*p, got, book->Range(e0, b->server->serving_epoch()));
    if (verdict == Verdict::kCorrect) {
      (traced ? log->lookup_us_traced : log->lookup_us).push_back(us);
    }
  }
  Tally(verdict, log);
}

/// Tags client request ids apart from publish ids (the publish index + 1).
constexpr uint64_t kClientRequestTag = uint64_t{1} << 40;

/// A closed-loop client's prepared requests and its place in them.
struct Client {
  std::vector<Prepared> ring;
  uint64_t next = 0;
};

Client MakeClient(const Bench& b) {
  perfbench::ZipfKeyStream stream =
      MakeStream(b.domain, perfbench::DeriveSeed(b.seed, 100));
  return Client{PrepareRing(b.domain, &stream, kRequestRing), 0};
}

/// Runs a closed-loop client, which sends its ring's next request only
/// after the previous one completed, until `end_ns`. Returns the seconds
/// it ran.
double RunClient(Bench* b, OracleBook* book, Client* client, int64_t end_ns,
                 ClientLog* log) {
  log->lookup_us.reserve(1 << 20);
  const int64_t t0 = perfbench::NowNs();
  // A rate window never spans time the client was not running.
  log->window_start_ns = t0;
  log->window_answers = 0;
  while (perfbench::NowNs() < end_ns) {
    const uint64_t i = client->next++;
    SendOne(b, book, &client->ring[i % client->ring.size()],
            kClientRequestTag | i,
            b->tracer->enabled() && i % kTraceEvery == 0, log);
  }
  return MsBetween(t0, perfbench::NowNs()) / 1e3;
}

/// publish_cold: back-to-back cold publishes (no cache: every publish
/// scans), each verified by one lookup while serving is otherwise idle,
/// alternating with one closed-loop client reading the last epoch with no
/// writer. Short alternating cycles spread both kinds of sample over the
/// whole run, so a host slowdown lasting part of a run weighs on both
/// alike.
PhaseResult RunPublishCold(Bench* b, double seconds) {
  PhaseResult result;
  OracleBook book;
  book.Add(b->current);
  Client client = MakeClient(*b);
  const int64_t t0 = perfbench::NowNs();
  const int64_t end = t0 + static_cast<int64_t>(seconds * 1e9);
  const auto cycle_ns = static_cast<int64_t>(kColdCycleS * 1e9);
  for (int64_t cycle = t0; cycle < end; cycle += cycle_ns) {
    const int64_t publish_end =
        std::min(end, cycle + static_cast<int64_t>(cycle_ns * kPublishShare));
    while (perfbench::NowNs() < publish_end) {
      Publish(b, b->config, nullptr, &book);
    }
    result.wall_s += RunClient(b, &book, &client,
                               std::min(end, cycle + cycle_ns),
                               &result.clients);
  }
  return result;
}

/// serve_mixed: one closed-loop client beside one writer thread that
/// republishes over the ε sweep with 1 release thread and the cache held
/// since set-up, so no publish after the first scans (asserted).
PhaseResult RunServeMixed(Bench* b, double seconds) {
  PhaseResult result;
  OracleBook book;
  book.Add(b->current);
  std::atomic<bool> stop{false};
  std::thread writer([b, &book, &stop] {
    for (size_t i = 0; !stop.load(); ++i) {
      release::WorkloadReleaseConfig config = b->config;
      config.epsilon = kEpsilonSweep[i % std::size(kEpsilonSweep)];
      const PublishOutcome out = Publish(b, config, b->cache.get(), &book);
      b->gates.Check(out.full_table_scans == 0,
                     "warm publish of epoch " + std::to_string(out.epoch) +
                         " scanned the table");
    }
  });
  Client client = MakeClient(*b);
  result.wall_s = RunClient(
      b, &book, &client,
      perfbench::NowNs() + static_cast<int64_t>(seconds * 1e9),
      &result.clients);
  stop.store(true);
  writer.join();
  return result;
}

/// Runs f() inside a span named `name` and returns its wall time in ms.
template <typename F>
double TimeMs(Tracer* tracer, const char* name, uint64_t parent, F&& f) {
  ScopedSpan span(tracer, name, parent);
  const int64_t s = perfbench::NowNs();
  f();
  return MsBetween(s, perfbench::NowNs());
}

constexpr int kProbeReps = 5;
constexpr size_t kProbeRequests = 20000;

/// Per-layer metrics of a traced run, measured after the workload by
/// calling each layer's public functions directly.
void ProbeLayers(Bench* b, std::map<std::string, double>* m) {
  Tracer* tracer = b->tracer;
  const lodes::WorkloadSpec& workload = b->config.workload;

  // lodes: the scan-and-roll-up planner, cold, at 2 threads and 1 thread.
  std::vector<double> compute2, compute1;
  lodes::WorkloadComputeStats compute_stats;
  for (int rep = 0; rep < kProbeReps; ++rep) {
    compute2.push_back(TimeMs(tracer, "lodes.ComputeWorkload", 0, [&] {
      compute_stats = lodes::WorkloadComputeStats();
      Must(lodes::ComputeWorkload(*b->data, workload, 2, nullptr,
                                  &compute_stats),
           "ComputeWorkload");
    }));
    compute1.push_back(TimeMs(tracer, "lodes.ComputeWorkload_1t", 0, [&] {
      Must(lodes::ComputeWorkload(*b->data, workload, 1), "ComputeWorkload");
    }));
  }
  (*m)["lodes.compute_ms"] = perfbench::Median(compute2);
  (*m)["lodes.compute_ms_1t"] = perfbench::Median(compute1);
  (*m)["lodes.full_table_scans"] = compute_stats.full_table_scans;
  (*m)["lodes.cover_groups"] = compute_stats.cover_groups;
  (*m)["lodes.prefix_merges"] = compute_stats.prefix_merges;
  (*m)["lodes.generate_s"] = b->generate_s;
  (*m)["lodes.dataset_rss_mb"] = b->dataset_rss_mb;
  (*m)["lodes.bytes_per_row"] =
      b->dataset_rss_mb * 1024.0 * 1024.0 /
      static_cast<double>(std::max<int64_t>(1, b->data->num_jobs()));

  // The publish split into its layers: ComputeWorkload -> warmed
  // RunReleaseWorkload -> CommitEpoch -> Refresh / Snapshot::Load, next to
  // the single-call publish from the same noise seed. Both must commit
  // bit-identical tables.
  auto reader = Must(store::Store::OpenReadOnly(b->dir), "OpenReadOnly");
  std::vector<double> split_ms, single_ms, noise_format, commit, refresh,
      read_epoch, load, self_load;
  release::WorkloadReleaseConfig config = b->config;
  double cells = 0.0, bytes = 0.0;
  table::GroupByCache::Stats cache_stats;
  for (int rep = 0; rep < kProbeReps; ++rep) {
    const uint64_t noise_seed = perfbench::DeriveSeed(b->seed, 5000 + rep);
    config.persist_to = b->writer.get();
    std::vector<release::ReleasedTable> single;
    single_ms.push_back(TimeMs(tracer, "bench.single_publish", 0, [&] {
      Rng rng(noise_seed);
      single = Must(release::RunReleaseWorkload(*b->data, config, nullptr, rng),
                    "single-call publish");
    }));

    table::GroupByCache cache;
    config.persist_to = nullptr;
    std::vector<release::ReleasedTable> split;
    uint64_t epoch = 0;
    ScopedSpan root(tracer, "bench.split_publish", 0, 0);
    const int64_t t0 = perfbench::NowNs();
    TimeMs(tracer, "lodes.ComputeWorkload", root.id(), [&] {
      Must(lodes::ComputeWorkload(*b->data, workload, config.num_threads,
                                  &cache),
           "ComputeWorkload");
    });
    noise_format.push_back(
        TimeMs(tracer, "release.RunReleaseWorkload", root.id(), [&] {
          Rng rng(noise_seed);
          split = Must(release::RunReleaseWorkload(*b->data, config, nullptr,
                                                   rng, &cache),
                       "warm release");
        }));
    const std::vector<store::TableData> data = ToTableData(split);
    const std::string fingerprint = store::WorkloadFingerprint(
        workload, eval::MechanismKindName(config.mechanism), config.alpha,
        config.epsilon, config.delta);
    commit.push_back(TimeMs(tracer, "store.CommitEpoch", root.id(), [&] {
      epoch = Must(b->writer->CommitEpoch(fingerprint, data), "CommitEpoch");
    }));
    split_ms.push_back(MsBetween(t0, perfbench::NowNs()));
    root.End();
    cache_stats = cache.stats();

    b->gates.Check(data == ToTableData(single),
                   "split publish differs from the single-call publish");
    refresh.push_back(TimeMs(tracer, "store.Refresh", 0, [&] {
      Must(reader->Refresh(), "Refresh");
    }));
    std::vector<store::TableData> back;
    read_epoch.push_back(TimeMs(tracer, "store.ReadEpoch", 0, [&] {
      back = Must(reader->ReadEpoch(epoch), "ReadEpoch");
    }));
    b->gates.Check(SameTables(split, back),
                   "ReadEpoch of the split publish differs");
    load.push_back(TimeMs(tracer, "serve.Snapshot::Load", 0, [&] {
      Must(serve::Snapshot::Load(*reader, epoch), "Snapshot::Load");
    }));
    self_load.push_back(load.back() - read_epoch.back());
    cells = 0.0;
    for (const auto& t : split) cells += static_cast<double>(t.rows.size());
    bytes = 0.0;
    for (const auto& meta : Must(b->writer->GetEpoch(epoch), "GetEpoch")->tables) {
      bytes += static_cast<double>(meta.size_bytes);
    }
  }
  (*m)["release.noise_format_ms"] = perfbench::Median(noise_format);
  (*m)["release.cells"] = cells;
  (*m)["store.commit_ms"] = perfbench::Median(commit);
  (*m)["store.bytes_per_cell"] = bytes / std::max(1.0, cells);
  (*m)["store.refresh_ms"] = perfbench::Median(refresh);
  (*m)["store.read_epoch_ms"] = perfbench::Median(read_epoch);
  (*m)["serve.snapshot_load_ms"] = perfbench::Median(load);
  (*m)["serve.snapshot_index_ms"] = perfbench::Median(self_load);
  (*m)["trace.split_publish_ms"] = perfbench::Median(split_ms);
  (*m)["trace.single_publish_ms"] = perfbench::Median(single_ms);
  (*m)["trace.split_share_of_publish"] =
      perfbench::Median(split_ms) / perfbench::Median(single_ms);

  // The writer cache's outcomes when the workload holds one (serve_mixed),
  // else those of the probe's warmed release.
  if (b->cache != nullptr) cache_stats = b->cache->stats();
  const double hits = static_cast<double>(
      cache_stats.exact_hits + cache_stats.prefix_merges + cache_stats.rollups);
  (*m)["table.cache_hit_ratio"] =
      hits / std::max(1.0, hits + static_cast<double>(cache_stats.scans));

  // serve: raw ServedTable calls on a pinned snapshot vs the same keys
  // through the Service, one request at a time.
  b->gates.Check(b->server->RefreshNow().ok(), "probe RefreshNow failed");
  auto snapshot = b->server->snapshot();
  std::vector<release::ReleasedTable> current;
  {
    auto tables = Must(b->writer->ReadEpoch(snapshot->epoch()), "ReadEpoch");
    for (auto& t : tables) {
      release::ReleasedTable r;
      r.header = std::move(t.header);
      r.rows = std::move(t.rows);
      current.push_back(std::move(r));
    }
  }
  const std::vector<std::shared_ptr<const EpochOracle>> oracles = {
      MakeOracle(b->domain, snapshot->epoch(), current, &b->gates)};
  perfbench::ZipfKeyStream stream =
      MakeStream(b->domain, perfbench::DeriveSeed(b->seed, 100));
  std::vector<Prepared> keys = PrepareRing(b->domain, &stream, kProbeRequests);
  std::vector<double> raw_lookup, raw_topk, svc_lookup;
  for (int pass = 0; pass < 2; ++pass) {
    for (Prepared& p : keys) {
      const serve::ServedTable& table = snapshot->tables()[p.table];
      const int64_t s = perfbench::NowNs();
      if (p.draw.topk) {
        auto got = table.TopK(p.topk.k);
        raw_topk.push_back(static_cast<double>(perfbench::NowNs() - s) / 1e3);
        b->gates.Check(JudgeTopK(p, got, oracles) == Verdict::kCorrect,
                       "raw TopK answer differs from the released table");
      } else {
        auto got = table.LookupCell(p.lookup.values);
        raw_lookup.push_back(static_cast<double>(perfbench::NowNs() - s) /
                             1e3);
        b->gates.Check(JudgeLookup(p, got, oracles) == Verdict::kCorrect,
                       "raw lookup answer differs from the released table");
      }
    }
    for (Prepared& p : keys) {
      if (p.draw.topk) continue;
      p.lookup.deadline_ms = 0;
      const int64_t s = perfbench::NowNs();
      auto got = b->service->Lookup(p.lookup);
      svc_lookup.push_back(static_cast<double>(perfbench::NowNs() - s) / 1e3);
      ++b->probe_requests;
      b->gates.Check(JudgeLookup(p, got, oracles) == Verdict::kCorrect,
                     "probe lookup answer differs from the released table");
    }
  }
  (*m)["serve.lookup_raw_us_p50"] = perfbench::Median(raw_lookup);
  (*m)["serve.topk_raw_us_p50"] = perfbench::Median(raw_topk);
  (*m)["service.front_us_p50"] =
      perfbench::Median(svc_lookup) - perfbench::Median(raw_lookup);
}

std::string Json(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// Prints the self-time table of a traced run: per span name and per
/// layer (the name's prefix), total and self milliseconds.
void PrintSelfTimes(const std::vector<perfbench::Span>& spans) {
  const std::vector<int64_t> self = perfbench::SelfTimesNs(spans);
  struct Row {
    uint64_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };
  std::map<std::string, Row> by_name;
  std::map<std::string, double> by_layer;
  for (size_t i = 0; i < spans.size(); ++i) {
    Row& row = by_name[spans[i].name];
    ++row.count;
    row.total_ms += MsBetween(spans[i].start_ns, spans[i].end_ns);
    row.self_ms += static_cast<double>(self[i]) / 1e6;
    const std::string name = spans[i].name;
    by_layer[name.substr(0, name.find('.'))] +=
        static_cast<double>(self[i]) / 1e6;
  }
  std::printf("%-32s %9s %12s %12s\n", "span", "count", "total ms",
              "self ms");
  for (const auto& [name, row] : by_name) {
    std::printf("%-32s %9llu %12.3f %12.3f\n", name.c_str(),
                static_cast<unsigned long long>(row.count), row.total_ms,
                row.self_ms);
  }
  std::printf("%-32s %9s %12s %12s\n", "layer", "", "", "self ms");
  for (const auto& [layer, ms] : by_layer) {
    std::printf("%-32s %9s %12s %12.3f\n", layer.c_str(), "", "", ms);
  }
}

/// Samples per batch for tails: each batch's tail is its highest
/// percentile with 10 samples beyond it (p90 of 100), and the reported
/// tail is the median over batches. A per-run p99 or p99.99 tracks host
/// stall episodes (wake-up latency of an idle vCPU), which moved a lookup
/// tail 7x between runs of identical code, and a p98 over a run's ~500
/// serve_mixed publishes spread 0.46 over five runs; p90 of short batches
/// does not.
constexpr size_t kTailBatch = 100;

/// Unit of a per-layer metric, from its name's suffix.
std::string LayerUnit(const std::string& name) {
  const auto ends = [&](const char* suffix) {
    const std::string s(suffix);
    return name.size() >= s.size() &&
           name.compare(name.size() - s.size(), s.size(), s) == 0;
  };
  if (ends("_ms") || ends("_ms_1t")) return "ms";
  if (ends("_us_p50")) return "us";
  if (ends("_s")) return "s";
  if (ends("_mb")) return "MiB";
  if (ends("_pct")) return "%";
  if (ends("_ratio") || ends("_per_completed") || ends("_share_of_publish")) {
    return "ratio";
  }
  if (ends("bytes_per_row") || ends("bytes_per_cell")) return "bytes";
  return "count";
}

/// How BatchedTail summarised `n` samples.
std::string TailNote(size_t n) {
  const size_t batches = std::max<size_t>(1, n / kTailBatch);
  return "median over " + std::to_string(batches) +
         " batches of each batch's highest percentile with 10 beyond (" +
         std::to_string(n) + " samples)";
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;
};

}  // namespace

int main(int argc, char** argv) {
  const Flags flags = Flags::Parse(argc, argv);
  const std::string workload = flags.GetString("workload", "");
  if (workload != "publish_cold" && workload != "serve_mixed") {
    Die("--workload must be publish_cold or serve_mixed");
  }
  const double seconds = flags.GetDouble("seconds", 5.0);
  const bool trace = flags.GetInt("trace", 0) != 0;
  const std::string dir = flags.GetString("dir", "");
  if (dir.empty() || seconds <= 0.0) Die("--dir and --seconds > 0 are required");

  const auto [steal0, total0] = StealAndTotalTicks();
  Tracer tracer(trace);
  Bench b;
  b.workload = workload;
  b.seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  b.dir = dir;
  b.tracer = &tracer;
  // A run is kSlices slices, each a fresh set-up (new dataset, store,
  // server, service and threads, same seed) followed by its share of the
  // timed phase; samples pool across slices. Separate set-ups re-draw the
  // per-set-up state (memory placement, thread placement) that otherwise
  // fixes one mode for a whole run, and setup_s is their median.
  constexpr int kSlices = 6;
  const double slice_s = seconds / kSlices;
  std::vector<double> setups, generates;
  // Per-slice medians, printed so a regime change within a run shows.
  std::string slice_publish_ms, slice_lookup_us;
  size_t publishes_before = 0;
  double dataset_rss_mb = 0.0;
  PhaseResult phase;
  serve::ServiceStats st;
  serve::Server::Stats server_stats;
  std::map<std::string, double> layers;
  for (int k = 0; k < kSlices; ++k) {
    b.service.reset();
    b.server.reset();
    b.writer.reset();
    b.cache.reset();
    b.data.reset();
    b.probe_requests = 0;
    SetUp(&b);
    setups.push_back(b.setup_s);
    generates.push_back(b.generate_s);
    if (k == 0) dataset_rss_mb = b.dataset_rss_mb;

    PhaseResult slice;
    if (workload == "publish_cold") {
      slice = RunPublishCold(&b, slice_s);
    } else {
      slice = RunServeMixed(&b, slice_s);
    }
    if (trace && k + 1 == kSlices) {
      b.generate_s = perfbench::Median(generates);
      b.dataset_rss_mb = dataset_rss_mb;
      ProbeLayers(&b, &layers);
    }

    // Service accounting: every call this slice's service saw ends in
    // exactly one bucket, and only completed requests pinned a snapshot.
    const serve::ServiceStats s = b.service->stats();
    const uint64_t submitted = slice.clients.submitted + b.probe_requests;
    b.gates.Check(s.admitted + s.shed + s.expired_at_admission == submitted,
                  "service accounting: admitted + shed + expired != submitted");
    b.gates.Check(s.completed + s.expired_in_queue == s.admitted,
                  "service accounting: completed + expired != admitted");
    b.gates.Check(s.snapshot_pins == s.completed,
                  "service accounting: pins != completed");
    st.admitted += s.admitted;
    st.completed += s.completed;
    st.shed += s.shed;
    st.expired_at_admission += s.expired_at_admission;
    st.expired_in_queue += s.expired_in_queue;
    st.snapshot_pins += s.snapshot_pins;
    const serve::Server::Stats ss = b.server->stats();
    server_stats.swaps += ss.swaps;
    server_stats.failures += ss.failures;

    const auto append = [](std::string* out, double v) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), " %.4g", v);
      *out += buf;
    };
    append(&slice_publish_ms,
           perfbench::Median(std::vector<double>(
               b.publish_ms.begin() + static_cast<long>(publishes_before),
               b.publish_ms.end())));
    publishes_before = b.publish_ms.size();
    append(&slice_lookup_us, perfbench::Median(slice.clients.lookup_us));
    phase.clients.Merge(slice.clients);
    phase.wall_s += slice.wall_s;
  }
  const ClientLog& c = phase.clients;
  b.gates.Check(server_stats.failures == 0, "a refresh failed");
  b.gates.Check(c.wrong == 0, std::to_string(c.wrong) + " wrong answers");

  // Too few samples for the end-to-end figures invalidates an untraced run
  // (a traced run reports per-layer figures only).
  const auto publish_tail = perfbench::BatchedTail(b.publish_ms, kTailBatch);
  const auto lookup_tail = perfbench::BatchedTail(c.lookup_us, kTailBatch);
  b.gates.Check(trace || publish_tail.has_value(),
                "too few publishes (" + std::to_string(b.publish_ms.size()) +
                    ") for a tail with 10 samples beyond it");
  b.gates.Check(trace || (c.lookup_us.size() >= kTailBatch &&
                          !c.topk_us.empty() && !c.window_rates.empty()),
                "too few requests completed for the request metrics");
  const uint64_t errors = c.shed + c.expired + c.unexpected;
  const uint64_t attempted = c.submitted + b.publish_ms.size() +
                             b.publish_ms_traced.size();

  const auto n = [](size_t count) { return std::to_string(count) + " samples"; };
  std::vector<Metric> metrics = {
      {"publish_ms_p50", perfbench::Median(b.publish_ms), "ms",
       n(b.publish_ms.size())},
      {"publish_ms_tail", publish_tail.value_or(NAN), "ms",
       TailNote(b.publish_ms.size())},
      {"visible_ms_p50", perfbench::Median(b.visible_ms), "ms",
       n(b.visible_ms.size())},
      {"lookup_us_p50", perfbench::Median(c.lookup_us), "us",
       n(c.lookup_us.size())},
      {"lookup_us_tail", lookup_tail.value_or(NAN), "us",
       TailNote(c.lookup_us.size())},
      {"topk_us_p50", perfbench::Median(c.topk_us), "us",
       n(c.topk_us.size())},
      {"answers_per_s", perfbench::Median(c.window_rates), "1/s",
       "median over " + std::to_string(c.window_rates.size()) +
           " windows of " + std::to_string(kRateWindow) + " answers; " +
           std::to_string(c.completed) + " answers in " +
           std::to_string(phase.wall_s) + " s"},
      {"error_share",
       static_cast<double>(errors) /
           static_cast<double>(std::max<uint64_t>(1, c.submitted)),
       "ratio",
       std::to_string(c.shed) + " shed, " + std::to_string(c.expired) +
           " expired, " + std::to_string(c.unexpected) + " other errors"},
      {"epoch_bytes", perfbench::Median(b.epoch_bytes), "bytes",
       n(b.epoch_bytes.size()) + " epochs"},
      {"peak_rss_mb", ProcStatusMiB("VmHWM"), "MiB", "VmHWM"},
      {"setup_s", perfbench::Median(setups), "s",
       "median of " + std::to_string(kSlices) + " set-ups"},
  };

  if (trace) {
    layers["service.completed"] = static_cast<double>(st.completed);
    layers["service.shed"] = static_cast<double>(st.shed);
    layers["service.expired"] =
        static_cast<double>(st.expired_at_admission + st.expired_in_queue);
    layers["service.pins_per_completed"] =
        static_cast<double>(st.snapshot_pins) /
        static_cast<double>(std::max<uint64_t>(1, st.completed));
    layers["serve.swaps"] = static_cast<double>(server_stats.swaps);
    layers["serve.refresh_failures"] = static_cast<double>(server_stats.failures);
    const double pub = perfbench::Median(b.publish_ms);
    const double lookup = perfbench::Median(c.lookup_us);
    layers["trace.publish_overhead_pct"] =
        100.0 * (perfbench::Median(b.publish_ms_traced) - pub) / pub;
    layers["trace.lookup_overhead_pct"] =
        100.0 * (perfbench::Median(c.lookup_us_traced) - lookup) / lookup;
    const std::vector<perfbench::Span> spans = tracer.spans();
    layers["trace.spans"] = static_cast<double>(spans.size());
    PrintSelfTimes(spans);
    const std::string out = flags.GetString("trace_out", "");
    if (!out.empty()) {
      b.gates.Check(perfbench::WriteChromeTrace(spans, out),
                    "cannot write the trace to " + out);
    }
    metrics.clear();
    for (const auto& [name, value] : layers) {
      metrics.push_back({name, value, LayerUnit(name), ""});
    }
  }

  const auto [steal1, total1] = StealAndTotalTicks();
  const double steal_pct =
      100.0 * (steal1 - steal0) / std::max(1.0, total1 - total0);
  std::printf("%s, seed %llu, %.0f s, host steal %.2f%% of CPU time:\n",
              workload.c_str(), static_cast<unsigned long long>(b.seed),
              seconds, steal_pct);
  for (const Metric& m : metrics) {
    std::printf("  %-30s %16.6g %-6s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
  std::printf("  per-slice publish_ms_p50:%s; lookup_us_p50:%s\n",
              slice_publish_ms.c_str(), slice_lookup_us.c_str());

  std::string json = "{\"workload\":" + JsonString(workload);
  json += ",\"correct\":" + std::string(b.gates.ok() ? "true" : "false");
  json += ",\"failures\":[";
  const auto failures = b.gates.failures();
  for (size_t i = 0; i < failures.size(); ++i) {
    json += (i == 0 ? "" : ",") + JsonString(failures[i]);
  }
  json += "],\"host_steal_pct\":" + Json(steal_pct);
  json += ",\"attempted\":" + std::to_string(attempted);
  json += ",\"failed\":" + std::to_string(errors);
  json += ",\"metrics\":{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    json += (i == 0 ? "" : ",") + JsonString(metrics[i].name) +
            ":{\"value\":" + Json(metrics[i].value) +
            ",\"unit\":" + JsonString(metrics[i].unit) + "}";
  }
  json += "}}";

  b.service.reset();
  b.server.reset();
  b.writer.reset();
  std::filesystem::remove_all(dir);
  std::printf("%s\n", json.c_str());
  return 0;
}
