// WorkerPool: barrier-separated rounds over a fixed set of threads, where a
// round costs about what its work costs.
//
// The engine dispatches every stepping "round" through one of these: each
// device advances one scheduling round and moves its finished jobs into
// its own completion list. `run()` blocks until the whole round retires,
// giving the caller a happens-before edge over everything the round
// touched: after `run()` returns, the caller may freely read or mutate
// device state with no further synchronization, and no worker touches
// anything until the next round is dispatched.
//
// A pool of size n spawns n - 1 threads; the caller is thread 0. A round
// runs one of two ways, with the same outcome:
//   * inline: the caller runs every task, in task order;
//   * sharded: task i runs on thread i % size() (shard 0 on the caller), so
//     within sharded rounds a device keeps its thread and caches stay warm.
// Either way each task runs on exactly one thread, so each device stays a
// single-threaded clock domain and its list needs no lock. A pool of size
// 0 or 1 has no threads and runs every round inline, untimed.
//
// A larger pool shards a round only when measurement says it pays. It
// times each shard (two steady_clock reads) and keeps two running
// averages: a round's work (its summed task time) and the handoff (a
// sharded round's wall time minus its longest shard). A round is sharded
// when the predicted saving, work * (1 - 1/shards), exceeds the predicted
// handoff; every kProbeEvery-th round is sharded regardless, so the
// handoff estimate stays current.
//
// The handoff parks rather than spins (Mellor-Crummey & Scott, ACM TOCS
// 1991): each worker waits on its own cache-line round word
// (std::atomic::wait), the caller bumps and notifies only the workers whose
// shard has a task, and the last worker to retire notifies the caller
// through one `pending_` counter.
//
// Exceptions: every path runs every task of the round, then rethrows the
// exception of the lowest throwing task index on the caller, so which
// devices stepped in a throwing round never depends on timing.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

namespace mccp::host {

class WorkerPool {
 public:
  using Task = std::function<void(std::size_t)>;

  explicit WorkerPool(std::size_t size) : size_(size), slots_(size < 2 ? 0 : size) {
    try {
      for (std::size_t w = 1; w < slots_.size(); ++w)
        threads_.emplace_back([this, w] { worker_loop(w); });
    } catch (...) {  // a thread failed to start: join the ones that did
      stop();
      throw;
    }
  }

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  ~WorkerPool() { stop(); }

  /// Shards a round can use: the caller plus the spawned threads.
  std::size_t size() const { return size_; }
  /// Rounds run with at least one task, and how many of them were sharded.
  std::uint64_t rounds() const { return rounds_; }
  std::uint64_t sharded_rounds() const { return sharded_rounds_; }

  /// Run fn(0) .. fn(num_tasks - 1) and block until every invocation has
  /// returned. One round at a time; must be called from a single caller
  /// thread.
  void run(std::size_t num_tasks, const Task& fn) {
    if (num_tasks == 0) return;
    ++rounds_;
    if (slots_.empty()) return run_all(num_tasks, fn);  // no threads: inline, untimed
    const std::size_t shards = std::min(num_tasks, size_);
    const double saving = work_ns_ * static_cast<double>(shards - 1) / static_cast<double>(shards);
    if (shards > 1 && ((rounds_ - 1) % kProbeEvery == 0 || saving > handoff_ns_))
      run_sharded(num_tasks, shards, fn);
    else
      run_inline(num_tasks, fn);
  }

 private:
  using Clock = std::chrono::steady_clock;
  /// A round is sharded at least this often, to keep the handoff measured.
  static constexpr std::uint64_t kProbeEvery = 256;

  struct Failure {
    std::exception_ptr error;
    std::size_t task = 0;
  };

  /// One per thread, on its own cache line. `round` is the worker's parking
  /// word (slot 0, the caller's, never parks); `ns` and `failure` are
  /// written by the slot's thread during a round and read by the caller
  /// after the round retires.
  struct alignas(64) Slot {
    std::atomic<std::uint32_t> round{0};
    double ns = 0;
    Failure failure;
  };

  /// Run fn(first), fn(first + stride), ... below `end`, every one of them
  /// even if some throw; `f` keeps the first (lowest-index) failure.
  static void run_shard(const Task& fn, std::size_t first, std::size_t stride, std::size_t end,
                        Failure& f) {
    for (std::size_t i = first; i < end; i += stride) {
      try {
        fn(i);
      } catch (...) {
        if (!f.error) f = {std::current_exception(), i};
      }
    }
  }

  static void run_all(std::size_t num_tasks, const Task& fn) {
    Failure f;
    run_shard(fn, 0, 1, num_tasks, f);
    if (f.error) std::rethrow_exception(f.error);
  }

  static double ns_since(Clock::time_point t0) {
    return std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
  }

  /// Fold one sample into a running average (weight 1/8); the first sample
  /// seeds it.
  static void average_in(double& avg, double sample, bool seeded) {
    avg = seeded ? avg + (sample - avg) / 8 : sample;
  }

  void run_inline(std::size_t num_tasks, const Task& fn) {
    const Clock::time_point t0 = Clock::now();
    run_all(num_tasks, fn);
    average_in(work_ns_, ns_since(t0), work_seeded_);
    work_seeded_ = true;
  }

  void run_sharded(std::size_t num_tasks, std::size_t shards, const Task& fn) {
    ++sharded_rounds_;
    const Clock::time_point t0 = Clock::now();
    fn_ = &fn;
    tasks_ = num_tasks;
    pending_.store(static_cast<std::uint32_t>(shards - 1), std::memory_order_relaxed);
    for (std::size_t w = 1; w < shards; ++w) wake(w);
    const Clock::time_point s0 = Clock::now();
    run_shard(fn, 0, size_, num_tasks, slots_[0].failure);
    slots_[0].ns = ns_since(s0);
    for (std::uint32_t p; (p = pending_.load(std::memory_order_acquire)) != 0;)
      pending_.wait(p, std::memory_order_acquire);
    const double wall = ns_since(t0);

    double work = 0, longest = 0;
    Failure first;
    for (std::size_t w = 0; w < shards; ++w) {
      Slot& s = slots_[w];
      work += s.ns;
      longest = std::max(longest, s.ns);
      if (s.failure.error && (!first.error || s.failure.task < first.task))
        first = s.failure;
      s.failure = {};
    }
    if (first.error) std::rethrow_exception(first.error);
    average_in(work_ns_, work, work_seeded_);
    average_in(handoff_ns_, std::max(0.0, wall - longest), handoff_seeded_);
    work_seeded_ = handoff_seeded_ = true;
  }

  void stop() {
    stop_ = true;  // published by the release bump in wake()
    for (std::size_t w = 1; w < slots_.size(); ++w) wake(w);
    for (std::thread& t : threads_) t.join();
  }

  void wake(std::size_t w) {
    slots_[w].round.fetch_add(1, std::memory_order_release);
    slots_[w].round.notify_one();
  }

  void worker_loop(std::size_t w) {
    Slot& slot = slots_[w];
    std::uint32_t seen = 0;
    for (;;) {
      slot.round.wait(seen, std::memory_order_acquire);
      seen = slot.round.load(std::memory_order_acquire);
      if (stop_) return;
      const Clock::time_point t0 = Clock::now();
      run_shard(*fn_, w, size_, tasks_, slot.failure);
      slot.ns = ns_since(t0);
      if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) pending_.notify_one();
    }
  }

  const std::size_t size_;
  std::vector<Slot> slots_;  // empty when the pool has no threads
  alignas(64) std::atomic<std::uint32_t> pending_{0};  // workers yet to retire
  // Written by the caller before it bumps a round word; read by workers
  // after they see the bump.
  const Task* fn_ = nullptr;
  std::size_t tasks_ = 0;
  bool stop_ = false;
  // Caller-only state.
  std::uint64_t rounds_ = 0, sharded_rounds_ = 0;
  double work_ns_ = 0, handoff_ns_ = 0;
  bool work_seeded_ = false, handoff_seeded_ = false;
  std::vector<std::thread> threads_;  // last: the workers use every member above
};

}  // namespace mccp::host
