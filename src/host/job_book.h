// JobBook: the device-side job lifecycle SimDevice and FastDevice share,
// the communication controller's packet queue (SIII.C): dense ids, the
// submit-seam refusal, the pending queue by priority then arrival, the
// backend's own `Job` records (node-stable, so a backend may keep `Job*`
// to its running set), the result ring indexed by `id - base`, and the
// complete/fail step with its monotone completions() counter.
//
// `Job` must be default-constructible and hold `DeviceJobId id` and
// `JobSpec spec`. Single-threaded, like the Device that owns it.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <utility>

#include "host/device.h"

namespace mccp::host {

template <class Job>
class JobBook {
 public:
  /// A submit the device refuses at the seam: the next id, with a result
  /// already complete and failed at `now`.
  DeviceJobId refuse(sim::Cycle now) {
    const DeviceJobId id = next_id_++;
    results_.emplace_back(std::in_place)->submit_cycle = now;
    fail(id, now);
    return id;
  }

  /// Queue `spec` behind every pending job of equal or more urgent
  /// priority (lower value), with a result slot stamped `now`.
  Job& enqueue(JobSpec spec, sim::Cycle now) {
    const DeviceJobId id = next_id_++;
    results_.emplace_back(std::in_place)->submit_cycle = now;
    Job& job = jobs_.emplace_hint(jobs_.end(), id, Job{})->second;  // ids only grow
    job.id = id;
    job.spec = std::move(spec);
    pending_[job.spec.priority].push_back(&job);
    return job;
  }

  /// The most urgent pending job (nullptr when none is pending).
  Job* head() const { return pending_.empty() ? nullptr : pending_.begin()->second.front(); }
  /// Take head() off the pending queue; its record stays in the book.
  void pop_head() {
    auto bucket = pending_.begin();
    bucket->second.pop_front();
    if (bucket->second.empty()) pending_.erase(bucket);
  }

  /// Retire a job that is not pending at cycle `at`: flip its result
  /// complete, count it and drop its record (so call this last).
  JobResult& complete(DeviceJobId id, sim::Cycle at) {
    JobResult& res = result_at(id);
    res.complete = true;
    res.complete_cycle = at;
    ++completions_;
    jobs_.erase(id);
    return res;
  }
  JobResult& fail(DeviceJobId id, sim::Cycle at) {
    JobResult& res = complete(id, at);
    res.auth_ok = false;
    return res;
  }

  /// The result slot of a job not yet forgotten.
  JobResult& result_at(DeviceJobId id) { return *results_[static_cast<std::size_t>(id - base_)]; }
  const JobResult* result(DeviceJobId id) const {
    if (id < base_ || id - base_ >= results_.size()) return nullptr;
    const std::optional<JobResult>& slot = results_[static_cast<std::size_t>(id - base_)];
    return slot ? &*slot : nullptr;
  }
  /// Drop a completed job's result; a job still running keeps its result,
  /// so memory is bounded by the oldest unforgotten job.
  void forget(DeviceJobId id) {
    if (id < base_ || id - base_ >= results_.size()) return;
    std::optional<JobResult>& slot = results_[static_cast<std::size_t>(id - base_)];
    if (!slot || !slot->complete) return;
    slot.reset();
    for (; !results_.empty() && !results_.front(); ++base_) results_.pop_front();
  }

  std::uint64_t completions() const { return completions_; }
  /// Jobs accepted and not yet retired (pending or on the device).
  std::size_t inflight() const { return jobs_.size(); }
  bool idle() const { return jobs_.empty(); }

 private:
  std::map<unsigned, std::deque<Job*>> pending_;
  std::map<DeviceJobId, Job> jobs_;
  std::deque<std::optional<JobResult>> results_;
  DeviceJobId base_ = 1;  // id of results_[0]
  DeviceJobId next_id_ = 1;
  std::uint64_t completions_ = 0;
};

}  // namespace mccp::host
