#include "core/worker_pool.hpp"

#include "obs/trace.hpp"

#include <algorithm>
#include <atomic>
#include <optional>
#include <stdexcept>
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
  queues_.resize(count);
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
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [&] { return stop_ || !queues_[w].empty(); });
    if (queues_[w].empty()) return;  // stop requested and queue drained
    Submission sub = std::move(queues_[w].front());
    queues_[w].pop_front();
    lock.unlock();

    std::exception_ptr error;
    try {
      sub.task(w);
    } catch (...) {
      error = std::current_exception();
    }

    lock.lock();
    if (error) failures_.push_back(Failure{sub.seq, error});
    if (--pending_ == 0) idle_cv_.notify_all();
  }
}

void WorkerPool::submit(Task task) {
  std::size_t worker;
  {
    std::lock_guard<std::mutex> lock(mu_);
    worker = next_worker_;
    next_worker_ = (next_worker_ + 1) % size();
  }
  submit_to(worker, std::move(task));
}

void WorkerPool::submit_to(std::size_t worker, Task task) {
  if (worker >= size()) {
    throw std::out_of_range("WorkerPool: no such worker");
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    queues_[worker].push_back(Submission{next_seq_++, std::move(task)});
    ++pending_;
  }
  work_cv_.notify_all();
}

void WorkerPool::barrier() {
  std::vector<Failure> failures;
  {
    std::unique_lock<std::mutex> lock(mu_);
    idle_cv_.wait(lock, [&] { return pending_ == 0; });
    failures.swap(failures_);
    next_worker_ = 0;  // each barrier-delimited batch maps identically
  }
  if (failures.empty()) return;
  const auto first = std::min_element(
      failures.begin(), failures.end(),
      [](const Failure& a, const Failure& b) { return a.seq < b.seq; });
  std::rethrow_exception(first->error);
}

void WorkerPool::run_indexed(std::size_t count, const IndexedTask& body,
                             std::size_t width,
                             const std::function<void()>& meanwhile) {
  if (width == 0 || width > size()) width = size();
  struct WorkerStop {
    std::size_t index = 0;
    std::exception_ptr error;
  };
  // One slot per worker: a worker records its first failure here and
  // stops, so exceptions never reach the pool-level capture and the
  // lowest *index* (not the earliest submission) decides what the
  // caller sees.
  std::vector<std::optional<WorkerStop>> stops(width);
  std::atomic<std::size_t> next{0};  // first index not yet claimed
  const std::size_t divisor = 2 * width;
  const std::size_t active = std::min(width, count);
  for (std::size_t w = 0; w < active; ++w) {
    submit_to(w, [&stops, &next, &body, count, divisor](std::size_t worker) {
      std::size_t first = next.load(std::memory_order_relaxed);
      while (first < count) {
        const std::size_t last =
            first + std::max<std::size_t>((count - first) / divisor, 1);
        // A failed claim reloads `first`; the barrier publishes results.
        if (!next.compare_exchange_weak(first, last,
                                        std::memory_order_relaxed)) {
          continue;
        }
        std::size_t k = first;
        try {
          for (; k < last; ++k) body(worker, k);
        } catch (...) {
          stops[worker] = WorkerStop{k, std::current_exception()};
          return;
        }
        first = next.load(std::memory_order_relaxed);
      }
    });
  }
  std::exception_ptr meanwhile_error;
  if (meanwhile) {
    try {
      meanwhile();
    } catch (...) {
      meanwhile_error = std::current_exception();
    }
  }
  barrier();
  if (meanwhile_error) std::rethrow_exception(meanwhile_error);
  const WorkerStop* lowest = nullptr;
  for (const auto& stop : stops) {
    if (stop && (lowest == nullptr || stop->index < lowest->index)) {
      lowest = &*stop;
    }
  }
  if (lowest != nullptr) std::rethrow_exception(lowest->error);
}

}  // namespace cal::core
