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
// What the pool guarantees, and what it leaves to timing:
//
//   * submit() assigns tasks round-robin (submission i of a
//     barrier-delimited batch goes to worker i % size(), and the cursor
//     resets at every barrier), so the task -> worker mapping never
//     depends on timing;
//   * run_chunks() / run_indexed() hand an indexed window out by guided
//     self-scheduling: each worker claims the next
//     max(1, remaining / (2 * width)) indices with one compare-and-swap,
//     so the claims shrink as the window drains and a slow index cannot
//     leave the other workers idle.  run_chunks() passes each claim to
//     the body whole, so per-claim work (a clock read) is paid once per
//     chunk rather than per index.  Which worker runs which index
//     depends on timing; callers whose results must not (the engine)
//     keep nothing per worker that reaches the output;
//   * run_indexed() can run a "meanwhile" callable on the calling
//     thread while the window is in flight -- the engine merges window
//     k there while the workers measure window k + 1;
//   * exceptions are captured per worker and rethrown from the caller
//     after the barrier -- barrier() rethrows the failure of the earliest
//     *submission*, run_indexed() the failure of the meanwhile callable
//     if it threw, else that of the lowest failing *index* (plan order).
//     Either way the pool itself stays healthy and reusable: a failed
//     window never poisons the next one.
//
// The pool is single-producer: submit()/barrier()/run_indexed() must be
// called from one thread at a time (the engine's merge thread).  Tasks
// themselves run concurrently on the workers.

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace cal::core {

class WorkerPool {
 public:
  /// A submitted task; receives the index of the worker executing it.
  using Task = std::function<void(std::size_t worker)>;
  /// An indexed window body for run_indexed().
  using IndexedTask = std::function<void(std::size_t worker,
                                         std::size_t index)>;
  /// A chunk body for run_chunks(): runs indices [first, last) in order.
  using ChunkTask = std::function<void(std::size_t worker, std::size_t first,
                                       std::size_t last)>;

  /// Spawns `threads` workers (clamped to at least 1), named
  /// "<name>/<w>" where the platform supports thread names.
  explicit WorkerPool(std::size_t threads, std::string name = "calipers");

  /// Drains queued tasks, then joins every worker.
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  std::size_t size() const noexcept { return threads_.size(); }
  const std::string& name() const noexcept { return name_; }

  /// Enqueues `task` on the next worker in round-robin submission order
  /// (submission i since the last barrier goes to worker i % size()).
  void submit(Task task);

  /// Enqueues `task` on a specific worker.
  void submit_to(std::size_t worker, Task task);

  /// Blocks until every submitted task has finished.  If any task threw,
  /// rethrows the exception of the earliest submission (later failures
  /// are dropped); all captured failures are cleared either way, so the
  /// pool is immediately reusable.  Also resets the round-robin cursor.
  void barrier();

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
  struct Submission {
    std::uint64_t seq = 0;
    Task task;
  };
  struct Failure {
    std::uint64_t seq = 0;
    std::exception_ptr error;
  };

  void worker_loop(std::size_t w);

  std::string name_;
  std::vector<std::thread> threads_;

  std::mutex mu_;
  std::condition_variable work_cv_;  ///< workers wait for tasks / shutdown
  std::condition_variable idle_cv_;  ///< barrier waits for pending_ == 0
  std::vector<std::deque<Submission>> queues_;  ///< one per worker
  std::vector<Failure> failures_;
  std::size_t pending_ = 0;      ///< submitted, not yet finished
  std::uint64_t next_seq_ = 0;   ///< submission counter (for failure order)
  std::size_t next_worker_ = 0;  ///< round-robin cursor for submit()
  bool stop_ = false;
};

}  // namespace cal::core
