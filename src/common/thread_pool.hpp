#pragma once
// A small fixed-size host thread pool for the overlapped genome pipeline
// (window ingest/pack prefetch and deferred output/compress tasks).
//
// Semantics chosen for pipeline correctness rather than generality:
//  - submit() returns a std::future; task exceptions are delivered through
//    it (never std::terminate).
//  - FIFO dispatch: with one worker, tasks run in submission order, so a
//    pool of size 1 degenerates to deferred-but-ordered execution.
//  - The destructor DRAINS the queue: every task submitted before
//    destruction runs to completion.  This matters during exception unwind —
//    an output task chained on a predecessor's future must not be silently
//    dropped, or the successor (possibly already running) would wait
//    forever on a future that will never be set.
//  - Each task runs under a PoolTaskScope: while every usable CPU runs a
//    ThreadPool task, compute fan-outs (common/parallel.hpp) from a task run
//    inline on its worker; otherwise they fan out like any caller.

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

#include "src/common/parallel.hpp"

namespace gsnp {

class ThreadPool {
 public:
  explicit ThreadPool(std::size_t n_threads) {
    if (n_threads < 1) n_threads = 1;
    workers_.reserve(n_threads);
    for (std::size_t i = 0; i < n_threads; ++i) {
      workers_.emplace_back([this] { worker(); });
    }
  }

  ~ThreadPool() {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      stopping_ = true;
    }
    cv_.notify_all();
    for (auto& w : workers_) w.join();
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Enqueue `fn` and return a future for its result.  Exceptions thrown by
  /// `fn` surface from future::get().
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<std::decay_t<F>&>> {
    using R = std::invoke_result_t<std::decay_t<F>&>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> fut = task->get_future();
    {
      const std::lock_guard<std::mutex> lock(mu_);
      queue_.emplace_back([task] { (*task)(); });
    }
    cv_.notify_one();
    return fut;
  }

 private:
  void worker() {
    for (;;) {
      std::function<void()> task;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
        if (queue_.empty()) return;  // stopping_ and fully drained
        task = std::move(queue_.front());
        queue_.pop_front();
      }
      const PoolTaskScope running;
      task();
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  bool stopping_ = false;
};

}  // namespace gsnp
