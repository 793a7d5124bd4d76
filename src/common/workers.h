// The one worker pool behind every parallel phase (group-by, roll-up,
// release noise, experiment trials): fork `threads` workers for one phase,
// join them before returning.
//
// Callers keep their results independent of the worker count by making
// each worker's output a pure function of its slice of the input (a key
// range, a shard, a trial) — the determinism contracts in
// docs/ARCHITECTURE.md rest on that, and eep_lint checks every RunWorkers
// region for shared-state writes.
#ifndef EEP_COMMON_WORKERS_H_
#define EEP_COMMON_WORKERS_H_

#include <algorithm>
#include <thread>
#include <vector>

namespace eep {

/// Resolves a requested worker count: values <= 0 mean
/// std::thread::hardware_concurrency() (at least 1).
inline int ResolveThreads(int num_threads) {
  if (num_threads > 0) return num_threads;
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

/// Runs fn(worker_index) for worker_index in [0, threads); the caller's
/// thread is worker 0, so threads <= 1 spawns nothing.
template <typename Fn>
void RunWorkers(int threads, Fn&& fn) {
  if (threads <= 1) {
    fn(0);
    return;
  }
  std::vector<std::thread> pool;
  pool.reserve(static_cast<size_t>(threads) - 1);
  for (int w = 1; w < threads; ++w) pool.emplace_back([&fn, w] { fn(w); });
  fn(0);
  for (auto& t : pool) t.join();
}

}  // namespace eep

#endif  // EEP_COMMON_WORKERS_H_
