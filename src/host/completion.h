// Completion: the async handle `Engine::submit_*` returns.
//
// Per-job completion instead of a global "run until idle" rendezvous:
// poll with `done()`, block with `wait()` (which advances the engine), or
// register `on_done` callbacks — each registered callback fires exactly
// once, from inside `Engine::step()` when the device reports the job
// complete (or immediately if it already has).
//
// The handle is the only way back to a job's result: the Engine keeps a
// job's state while it is in flight and drops it on delivery, so from then
// on it lives exactly as long as some Completion holds it. `wait()` on a
// temporary handle therefore returns the result by value —
// `const JobResult& r = engine.submit_encrypt(...).wait();` binds a
// lifetime-extended copy instead of a reference into freed state.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "host/device.h"

namespace mccp::host {

class Engine;

/// Engine-global job identifier (unique across all devices).
using JobId = std::uint64_t;

namespace detail {

struct JobState {
  JobId id = 0;
  std::size_t device = 0;
  DeviceJobId device_job = 0;
  std::uint64_t channel_uid = 0;  // the submitting channel's record
  bool done = false;
  JobResult result;  // final result once done, moved out of the device
  /// Retained copy of the submitted spec (only when the engine runs with
  /// fault injection / spec retention): lets `Engine::remove_device()`
  /// resubmit jobs stranded on a failed device. Dropped on completion.
  std::unique_ptr<JobSpec> spec;
  std::uint32_t resubmissions = 0;  // times this job was migrated to a new device
  /// on_done callbacks in registration order: the first one inline (most
  /// jobs register exactly one), any later ones behind it.
  std::function<void(const JobResult&)> first_callback;
  std::vector<std::function<void(const JobResult&)>> more_callbacks;
};

}  // namespace detail

class Completion {
 public:
  Completion() = default;

  bool valid() const { return state_ != nullptr; }
  JobId id() const { return state_ ? state_->id : 0; }
  bool done() const { return state_ && state_->done; }

  /// Final result; throws std::logic_error while still in flight. A
  /// temporary handle has no result to lend: wait() it instead.
  const JobResult& result() const&;
  const JobResult& result() const&& = delete;

  /// Register a callback; fires exactly once — immediately if the job is
  /// already done, otherwise from Engine::step() on completion.
  void on_done(std::function<void(const JobResult&)> fn);

  /// Advance the engine until this job completes (or throw after
  /// max_cycles of device time). The reference lives as long as the
  /// handle; a temporary handle returns the result by value instead.
  const JobResult& wait(sim::Cycle max_cycles = 100'000'000) &;
  JobResult wait(sim::Cycle max_cycles = 100'000'000) &&;

 private:
  friend class Engine;
  Completion(Engine* engine, std::shared_ptr<detail::JobState> state)
      : engine_(engine), state_(std::move(state)) {}

  Engine* engine_ = nullptr;
  std::shared_ptr<detail::JobState> state_;
};

}  // namespace mccp::host
