#include "core/worker_pool.hpp"

#include "obs/trace.hpp"

#include <algorithm>
#include <atomic>
#include <utility>

#if defined(__linux__)
#include <pthread.h>
#endif

namespace cal::core {
namespace {

void set_current_thread_name(const std::string& pool_name, std::size_t w) {
#if defined(__linux__)
  // pthread thread names are limited to 15 characters + NUL; keep the
  // worker index visible and truncate the pool name to fit.
  std::string label = pool_name + "/" + std::to_string(w);
  if (label.size() > 15) {
    const std::string suffix = "/" + std::to_string(w);
    label = pool_name.substr(0, 15 - suffix.size()) + suffix;
  }
  pthread_setname_np(pthread_self(), label.c_str());
#else
  (void)pool_name;
  (void)w;
#endif
}

}  // namespace

WorkerPool::WorkerPool(std::size_t threads, std::string name)
    : name_(std::move(name)) {
  const std::size_t count = std::max<std::size_t>(threads, 1);
  threads_.reserve(count);
  try {
    for (std::size_t w = 0; w < count; ++w) {
      threads_.emplace_back([this, w] {
        set_current_thread_name(name_, w);
        // Full (untruncated) pool/worker label for trace output, so
        // Perfetto tracks carry the pool topology.
        obs::trace::set_thread_name(name_ + "/" + std::to_string(w));
        worker_loop(w);
      });
    }
  } catch (...) {
    // A thread failed to spawn (e.g. EAGAIN on a thread-limited host):
    // shut down the workers that did start, so the half-built pool
    // unwinds cleanly instead of std::terminate-ing on a joinable
    // std::thread destructor.
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    work_cv_.notify_all();
    for (auto& thread : threads_) thread.join();
    throw;
  }
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& thread : threads_) thread.join();
}

void WorkerPool::worker_loop(std::size_t w) {
  std::uint64_t seen = 0;  // the last window this worker looked at
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
    // run_chunks() waits out every window it posts, so a stop request
    // never finds one in flight.
    if (stop_) return;
    seen = generation_;
    if (w >= stops_.size()) continue;  // not one of this window's workers
    const ChunkTask& body = *body_;
    const std::size_t count = count_;
    const std::size_t divisor = divisor_;
    lock.unlock();

    std::optional<WorkerStop> stop;
    std::size_t first = next_.load(std::memory_order_relaxed);
    while (first < count) {
      const std::size_t last =
          first + std::max<std::size_t>((count - first) / divisor, 1);
      // A failed claim reloads `first`; the mutex publishes results.
      if (!next_.compare_exchange_weak(first, last,
                                       std::memory_order_relaxed)) {
        continue;
      }
      try {
        body(w, first, last);
      } catch (...) {
        stop = WorkerStop{first, std::current_exception()};
        break;
      }
      first = next_.load(std::memory_order_relaxed);
    }

    lock.lock();
    stops_[w] = std::move(stop);
    if (--busy_ == 0) idle_cv_.notify_one();
  }
}

void WorkerPool::run_chunks(std::size_t count, const ChunkTask& body,
                            std::size_t width,
                            const std::function<void()>& meanwhile) {
  if (width == 0 || width > size()) width = size();
  const std::size_t active = std::min(width, count);
  if (active != 0) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      body_ = &body;
      count_ = count;
      divisor_ = 2 * width;
      next_.store(0, std::memory_order_relaxed);
      stops_.assign(active, std::nullopt);
      busy_ = active;
      ++generation_;
    }
    work_cv_.notify_all();
  }
  std::exception_ptr meanwhile_error;
  if (meanwhile) {
    try {
      meanwhile();
    } catch (...) {
      meanwhile_error = std::current_exception();
    }
  }
  // A worker records only its first failure, in its own slot, so the
  // lowest failing chunk decides what the caller sees.  Chunks are
  // disjoint, so that chunk holds the lowest failing index.
  std::exception_ptr window_error;
  {
    std::unique_lock<std::mutex> lock(mu_);
    idle_cv_.wait(lock, [&] { return busy_ == 0; });
    const WorkerStop* lowest = nullptr;
    for (const auto& stop : stops_) {
      if (stop && (lowest == nullptr || stop->first < lowest->first)) {
        lowest = &*stop;
      }
    }
    if (lowest != nullptr) window_error = lowest->error;
    // Also tells a worker that wakes only now, for this finished window,
    // that it has no part in it (and must not touch busy_).
    stops_.clear();
  }
  if (meanwhile_error) std::rethrow_exception(meanwhile_error);
  if (window_error) std::rethrow_exception(window_error);
}

void WorkerPool::run_indexed(std::size_t count, const IndexedTask& body,
                             std::size_t width,
                             const std::function<void()>& meanwhile) {
  run_chunks(
      count,
      [&body](std::size_t worker, std::size_t first, std::size_t last) {
        for (std::size_t k = first; k < last; ++k) body(worker, k);
      },
      width, meanwhile);
}

void run_indexed(WorkerPool* pool, std::size_t count,
                 const WorkerPool::IndexedTask& body) {
  if (pool != nullptr && pool->size() > 1 && count > 1) {
    pool->run_indexed(count, body);
    return;
  }
  for (std::size_t k = 0; k < count; ++k) body(0, k);
}

}  // namespace cal::core
