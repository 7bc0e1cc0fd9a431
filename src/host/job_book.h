// JobBook: the device-side job lifecycle SimDevice and FastDevice share,
// the communication controller's packet queue (SIII.C): dense ids, the
// submit-seam refusal, the pending queue by priority then arrival, and one
// slot per id holding the backend's own `Job` record beside its result,
// with the complete/fail step and its monotone completions() counter.
//
// The slots live in a ring indexed by `id - base` that doubles when a
// backlog outgrows it and reuses retired slots, and the priority buckets
// are rings of ids that are never erased, so once both have grown to the
// backlog a job costs the book no heap allocation. Growing the ring moves
// the slots: a backend holds ids, not `Job*`, and a `Job&`/`JobResult&`
// the book returns is valid only until the next submit.
//
// `Job` must be default-constructible and hold `DeviceJobId id` and
// `JobSpec spec`. Single-threaded, like the Device that owns it.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "host/device.h"

namespace mccp::host {

/// FIFO with random access over a power-of-two buffer that doubles when
/// full. pop_front() resets the element to T{}, releasing what it held, so
/// a reused element never shows an earlier occupant.
template <class T>
class Ring {
 public:
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  T& operator[](std::size_t i) { return buf_[(head_ + i) & (buf_.size() - 1)]; }
  const T& operator[](std::size_t i) const { return buf_[(head_ + i) & (buf_.size() - 1)]; }
  T& front() { return (*this)[0]; }
  /// Append a T{} and return it.
  T& push_back() {
    if (size_ == buf_.size()) grow();
    return (*this)[size_++];
  }
  void pop_front() {
    front() = T{};
    head_ = (head_ + 1) & (buf_.size() - 1);
    --size_;
  }

 private:
  void grow() {
    std::vector<T> bigger(std::max<std::size_t>(16, 2 * buf_.size()));
    for (std::size_t i = 0; i < size_; ++i) bigger[i] = std::move((*this)[i]);
    buf_ = std::move(bigger);
    head_ = 0;
  }

  std::vector<T> buf_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

template <class Job>
class JobBook {
 public:
  /// A submit the device refuses at the seam: the next id, with a result
  /// already complete and failed at `now`.
  DeviceJobId refuse(sim::Cycle now) {
    const DeviceJobId id = next_id_++;
    JobResult& res = open_slot(now).result;
    res.auth_ok = false;
    mark_complete(res, now);
    return id;
  }

  /// Queue `spec` behind every pending job of equal or more urgent
  /// priority (lower value), with a result slot stamped `now`.
  Job& enqueue(JobSpec spec, sim::Cycle now) {
    const DeviceJobId id = next_id_++;
    Job& job = open_slot(now).job;
    job.id = id;
    job.spec = std::move(spec);
    bucket(job.spec.priority).push_back() = id;
    ++pending_;
    ++live_;
    return job;
  }

  bool has_pending() const { return pending_ != 0; }
  /// The most urgent pending job (nullptr when none is pending).
  Job* head() {
    if (pending_ == 0) return nullptr;
    return &job(first_pending()->ids.front());
  }
  /// Take head() off the pending queue; its record stays in the book.
  void pop_head() {
    first_pending()->ids.pop_front();
    --pending_;
  }

  /// Retire a job that is not pending at cycle `at`: flip its result
  /// complete, count it and reset its record, releasing the spec (so call
  /// this last).
  JobResult& complete(DeviceJobId id, sim::Cycle at) {
    Slot& slot = slot_at(id);
    slot.job = Job{};
    --live_;
    mark_complete(slot.result, at);
    return slot.result;
  }
  JobResult& fail(DeviceJobId id, sim::Cycle at) {
    JobResult& res = complete(id, at);
    res.auth_ok = false;
    return res;
  }

  /// The record and result of a job not yet taken.
  Job& job(DeviceJobId id) { return slot_at(id).job; }
  JobResult& result_at(DeviceJobId id) { return slot_at(id).result; }
  const JobResult* result(DeviceJobId id) const {
    if (id < base_ || id - base_ >= slots_.size()) return nullptr;
    const Slot& slot = slots_[static_cast<std::size_t>(id - base_)];
    return slot.taken ? nullptr : &slot.result;
  }
  /// Move a completed job's result out and retire its slot; nullopt (and
  /// nothing changed) for a job still running, taken or unknown. A job
  /// still running keeps its slot, so the ring spans from the oldest
  /// untaken job to the newest.
  std::optional<JobResult> take_result(DeviceJobId id) {
    if (id < base_ || id - base_ >= slots_.size()) return std::nullopt;
    Slot& slot = slots_[static_cast<std::size_t>(id - base_)];
    if (slot.taken || !slot.result.complete) return std::nullopt;
    std::optional<JobResult> out(std::move(slot.result));
    slot.taken = true;
    for (; !slots_.empty() && slots_.front().taken; ++base_) slots_.pop_front();
    return out;
  }

  std::uint64_t completions() const { return completions_; }
  /// Jobs accepted and not yet retired (pending or on the device).
  std::size_t inflight() const { return live_; }
  bool idle() const { return live_ == 0; }

 private:
  struct Slot {
    Job job;
    JobResult result;
    bool taken = false;  // result moved out (or forgotten)
  };
  struct Bucket {
    unsigned priority = 0;
    Ring<DeviceJobId> ids;
  };

  Slot& open_slot(sim::Cycle now) {
    Slot& slot = slots_.push_back();
    slot.result.submit_cycle = now;
    return slot;
  }
  Slot& slot_at(DeviceJobId id) { return slots_[static_cast<std::size_t>(id - base_)]; }
  void mark_complete(JobResult& res, sim::Cycle at) {
    res.complete = true;
    res.complete_cycle = at;
    ++completions_;
  }
  /// The bucket of `priority`, made on first use and kept when it drains.
  Ring<DeviceJobId>& bucket(unsigned priority) {
    auto it = std::lower_bound(
        buckets_.begin(), buckets_.end(), priority,
        [](const Bucket& b, unsigned p) { return b.priority < p; });
    if (it == buckets_.end() || it->priority != priority)
      it = buckets_.insert(it, Bucket{priority, {}});
    return it->ids;
  }
  /// The most urgent non-empty bucket; only called while pending_ > 0.
  Bucket* first_pending() {
    return &*std::find_if(buckets_.begin(), buckets_.end(),
                          [](const Bucket& b) { return !b.ids.empty(); });
  }

  std::vector<Bucket> buckets_;  // ascending priority
  Ring<Slot> slots_;             // ids base_ .. next_id_ - 1
  DeviceJobId base_ = 1;         // id of slots_[0]
  DeviceJobId next_id_ = 1;
  std::size_t pending_ = 0;
  std::size_t live_ = 0;
  std::uint64_t completions_ = 0;
};

}  // namespace mccp::host
