// WorkerPool: a fixed set of threads running barrier-separated rounds.
//
// The engine dispatches every stepping "round" through one of these: each
// device advances one scheduling round and moves its finished jobs into
// its own completion list, sharded across the pool (task i runs on worker
// i % size(), so a given device is always driven by the same worker — each
// device stays a single-threaded clock domain and its list needs no lock).
// `run()` blocks until the whole round retires, giving the caller a
// happens-before edge over everything the workers touched: after `run()`
// returns, the caller may freely read or mutate device state with no
// further synchronization, and no worker touches anything until the next
// round is dispatched. Serial stepping is a zero-thread pool: `run()` then
// executes every task inline on the caller, in task order.
//
// Exceptions thrown by round tasks are captured (first one wins) and
// rethrown on the caller's thread after the round completes, so a device
// that throws mid-step fails the `step()` call in both modes.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace mccp::host {

class WorkerPool {
 public:
  explicit WorkerPool(std::size_t num_threads) {
    threads_.reserve(num_threads);
    for (std::size_t w = 0; w < num_threads; ++w)
      threads_.emplace_back([this, w] { worker_loop(w); });
  }

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  ~WorkerPool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    start_cv_.notify_all();
    for (std::thread& t : threads_) t.join();
  }

  std::size_t size() const { return threads_.size(); }

  /// Run fn(0) .. fn(num_tasks - 1) across the workers and block until
  /// every invocation has returned (and every worker is parked again).
  /// One round at a time; must be called from a single caller thread.
  void run(std::size_t num_tasks, const std::function<void(std::size_t)>& fn) {
    if (num_tasks == 0) return;
    if (threads_.empty()) {  // zero-thread (serial) pool: run inline
      for (std::size_t i = 0; i < num_tasks; ++i) fn(i);
      return;
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      fn_ = &fn;
      tasks_ = num_tasks;
      active_ = threads_.size();
      error_ = nullptr;
      ++round_;
    }
    start_cv_.notify_all();
    std::exception_ptr error;
    {
      std::unique_lock<std::mutex> lock(mu_);
      // Wait for every worker to finish its shard AND re-park: only then is
      // it safe to reuse fn_/tasks_ for the next round.
      done_cv_.wait(lock, [&] { return active_ == 0; });
      fn_ = nullptr;
      error = error_;
    }
    if (error) std::rethrow_exception(error);
  }

 private:
  void worker_loop(std::size_t w) {
    std::uint64_t seen_round = 0;
    for (;;) {
      const std::function<void(std::size_t)>* fn = nullptr;
      std::size_t tasks = 0;
      {
        std::unique_lock<std::mutex> lock(mu_);
        start_cv_.wait(lock, [&] { return stop_ || round_ != seen_round; });
        if (stop_) return;
        seen_round = round_;
        fn = fn_;
        tasks = tasks_;
      }
      std::exception_ptr error;
      try {
        // Static sharding: worker w owns tasks w, w + W, w + 2W, ... so the
        // task -> thread mapping is stable across rounds (devices keep
        // their worker, caches stay warm, and determinism is trivial).
        for (std::size_t i = w; i < tasks; i += threads_.size()) (*fn)(i);
      } catch (...) {
        error = std::current_exception();
      }
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (error && !error_) error_ = error;
        if (--active_ == 0) done_cv_.notify_all();
      }
    }
  }

  std::vector<std::thread> threads_;
  std::mutex mu_;
  std::condition_variable start_cv_, done_cv_;
  const std::function<void(std::size_t)>* fn_ = nullptr;
  std::size_t tasks_ = 0;
  std::uint64_t round_ = 0;
  std::size_t active_ = 0;
  std::exception_ptr error_;
  bool stop_ = false;
};

}  // namespace mccp::host
