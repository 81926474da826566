#pragma once
// Persistent worker pool for deterministic campaign execution.
//
// The streaming engine executes a campaign as a sequence of bounded
// windows (one window per sink batch).  Spawning std::threads for every
// window makes per-window latency proportional to thread-creation cost,
// which dominates for small Engine::Options::sink_batch values.
// WorkerPool keeps one set of long-lived, named workers alive for as many
// windows -- or as many campaigns -- as the owner wants, replacing the
// per-window spawn/join with a condition-variable wake.
//
// The pool does one thing: run an indexed window.  What it guarantees,
// and what it leaves to timing:
//
//   * run_chunks() / run_indexed() post the window once, under the
//     pool's mutex, and the workers hand it out by guided
//     self-scheduling: each worker claims the next
//     max(1, remaining / (2 * width)) indices with one compare-and-swap,
//     so the claims shrink as the window drains and a slow index cannot
//     leave the other workers idle.  run_chunks() passes each claim to
//     the body whole, so per-claim work (a clock read) is paid once per
//     chunk rather than per index.  Which worker runs which index
//     depends on timing; callers whose results must not (the engine)
//     keep nothing per worker that reaches the output;
//   * worker index w is always the same long-lived thread, and no other
//     thread ever runs a body as worker w -- so per-worker resources
//     (the engine's simulator replicas) need no locking;
//   * run_chunks() / run_indexed() can run a "meanwhile" callable on the
//     calling thread while the window is in flight -- the engine merges
//     window k there while the workers measure window k + 1;
//   * a worker stops at its first failure and the others drain the
//     window; after the window, the caller rethrows the failure of the
//     meanwhile callable if it threw, else that of the lowest failing
//     chunk (so the lowest failing index, in plan order).  The window is
//     always waited for first, and the pool stays healthy and reusable:
//     a failed window never poisons the next one.
//
// The pool is single-producer: run_chunks()/run_indexed() must be
// called from one thread at a time (the engine's merge thread).
//
// core::run_indexed(pool, count, body) is the one place that decides
// between the pool and the calling thread.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

namespace cal::core {

class WorkerPool {
 public:
  /// An indexed window body for run_indexed().
  using IndexedTask = std::function<void(std::size_t worker,
                                         std::size_t index)>;
  /// A chunk body for run_chunks(): runs indices [first, last) in order.
  using ChunkTask = std::function<void(std::size_t worker, std::size_t first,
                                       std::size_t last)>;

  /// Spawns `threads` workers (clamped to at least 1), named
  /// "<name>/<w>" where the platform supports thread names.
  explicit WorkerPool(std::size_t threads, std::string name = "calipers");

  /// Joins every worker.
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  std::size_t size() const noexcept { return threads_.size(); }
  const std::string& name() const noexcept { return name_; }

  /// Executes `count` indexed tasks on the first `width` workers
  /// (width = 0 or > size() means all workers) by guided
  /// self-scheduling, handing `body` each claimed chunk [first, last)
  /// whole, runs `meanwhile` (if set) on the calling thread while they
  /// are in flight, and waits for both.  A chunk body runs its indices in
  /// increasing order; a worker stops at its first failing chunk and the
  /// others drain the window.  Every chunk below the lowest failing one
  /// therefore runs, and that chunk's failure is the one rethrown --
  /// unless `meanwhile` threw, which wins (the caller's earlier work in
  /// program order).  The window is always waited for before anything
  /// propagates, and the pool stays reusable.  `meanwhile` must not use
  /// this pool.  A width below size() lets a caller with fewer
  /// per-worker resources (e.g. simulator replicas) than the pool has
  /// workers keep to its resource count.
  void run_chunks(std::size_t count, const ChunkTask& body,
                  std::size_t width = 0,
                  const std::function<void()>& meanwhile = {});

  /// run_chunks() with a body per index: every index below the lowest
  /// failing one runs, and that index's failure is the one rethrown.
  void run_indexed(std::size_t count, const IndexedTask& body,
                   std::size_t width = 0,
                   const std::function<void()>& meanwhile = {});

 private:
  /// A worker's first failure: the failing chunk's first index.
  struct WorkerStop {
    std::size_t first = 0;
    std::exception_ptr error;
  };

  void worker_loop(std::size_t w);

  std::string name_;
  std::vector<std::thread> threads_;

  std::mutex mu_;
  std::condition_variable work_cv_;  ///< workers wait for a window / stop
  std::condition_variable idle_cv_;  ///< run_chunks waits for busy_ == 0
  // The window in flight, posted under mu_ and left untouched until
  // busy_ drops back to 0.
  const ChunkTask* body_ = nullptr;
  std::size_t count_ = 0;
  std::size_t divisor_ = 1;             ///< 2 * width
  std::atomic<std::size_t> next_{0};    ///< first index not yet claimed
  std::vector<std::optional<WorkerStop>> stops_;  ///< one per active worker
  std::size_t busy_ = 0;                ///< active workers not yet done
  std::uint64_t generation_ = 0;        ///< windows posted so far
  bool stop_ = false;
};

/// Runs `body(worker, index)` for every index in [0, count): over
/// `pool` when it has more than one worker and there is more than one
/// index, otherwise inline on the calling thread as worker 0, in index
/// order.  Either way the lowest failing index is the one rethrown.
void run_indexed(WorkerPool* pool, std::size_t count,
                 const WorkerPool::IndexedTask& body);

}  // namespace cal::core
