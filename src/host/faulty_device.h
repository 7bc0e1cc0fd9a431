// FaultyDevice: the fault-injection seam at the Device boundary.
//
// Wraps any Device and kills it once the wrapped clock reaches a scripted
// cycle — mid-burst, mid-reconfiguration-swap, wherever the scenario puts
// it. Death is modeled as a hard freeze, the way a hot-unplugged or
// bus-wedged accelerator looks to a host driver:
//
//   - the reported clock clamps to the kill cycle (`now()` never advances
//     past it),
//   - `step()`/`advance_to()` become no-ops,
//   - control-plane calls are rejected (open_channel -> nullopt,
//     close_channel -> false, begin_reconfiguration -> nullopt),
//   - data-plane submits are still *accepted* — a driver racing a death
//     cannot know the device is gone yet — but the jobs strand forever,
//   - and, crucially for determinism, `take_completed()` and `result()`
//     mask any completion stamped after the kill cycle: it never leaves
//     the device. Both backends stamp bit-identical
//     completion cycles, so the set of jobs that "made it out" before the
//     fault is exactly {complete_cycle <= kill_cycle} on SimDevice and
//     FastDevice alike, regardless of either backend's stepping
//     granularity. Everything else strands and is the Engine's to recover
//     (remove_device() resubmits from retained specs).
//
// The wrapper preserves the single-threaded clock-domain contract: it adds
// no synchronization and is driven exactly like the device it wraps.
#pragma once

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "host/device.h"

namespace mccp::host {

class FaultyDevice final : public Device {
 public:
  /// Wraps `inner`; the device dies once its clock reaches `kill_at`
  /// (0 = dead on arrival).
  FaultyDevice(std::unique_ptr<Device> inner, sim::Cycle kill_at)
      : inner_(std::move(inner)), kill_at_(kill_at) {
    check();
  }

  /// Re-arm the kill cycle (takes effect immediately if already reached).
  void schedule_kill(sim::Cycle kill_at) {
    if (dead_) return;  // death is permanent
    kill_at_ = kill_at;
    check();
  }
  /// Kill at the current clock, whatever it is.
  void kill_now() {
    if (dead_) return;
    kill_at_ = inner_->now();
    dead_ = true;
  }
  sim::Cycle kill_cycle() const { return kill_at_; }
  Device* inner() { return inner_.get(); }
  const Device* inner() const { return inner_.get(); }

  std::string name() const override { return inner_->name(); }

  void provision_key(top::KeyId id, Bytes session_key) override {
    check();
    if (dead_) return;
    inner_->provision_key(id, std::move(session_key));
  }

  std::optional<ChannelInfo> open_channel(ChannelMode mode, top::KeyId key, unsigned tag_len = 16,
                                          unsigned nonce_len = 13) override {
    check();
    if (dead_) {
      rejected_dead_ = true;
      return std::nullopt;
    }
    auto info = inner_->open_channel(mode, key, tag_len, nonce_len);
    rejected_dead_ = false;
    check();  // the control protocol advanced the clock
    return info;
  }

  bool close_channel(std::uint8_t channel_id) override {
    check();
    if (dead_) {
      rejected_dead_ = true;
      return false;
    }
    bool ok = inner_->close_channel(channel_id);
    rejected_dead_ = false;
    check();
    return ok;
  }

  std::uint8_t last_error() const override {
    // A call rejected by the dead wrapper never reached the device; report
    // a real control error code instead of whatever the device last said.
    if (rejected_dead_) return top::make_error(top::ControlError::kNoCoreAvailable);
    return inner_->last_error();
  }

  // Submits are accepted even when dead (the caller cannot know yet); the
  // job simply strands on the frozen device until the Engine recovers it.
  DeviceJobId submit(JobSpec spec) override {
    check();
    return inner_->submit(std::move(spec));
  }

  void step() override {
    check();
    if (dead_) return;
    inner_->step();
    check();
  }

  void advance_to(sim::Cycle target) override {
    check();
    if (dead_) return;
    inner_->advance_to(target);
    check();
  }

  /// The inner device's finished jobs, less those the fault beat to the
  /// wire: once dead, a completion stamped after the kill cycle is retired
  /// here and never handed over. Completion stamps are bit-identical across
  /// backends, so this slices the in-flight set at the exact same boundary
  /// however coarsely the clock stepped over it, and the jobs left strand
  /// for the Engine to recover. A masked completion never becomes visible
  /// later: death is permanent.
  void take_completed(std::vector<Completed>& out) override {
    check();
    const std::size_t first = out.size();
    inner_->take_completed(out);
    if (!dead_) return;
    out.erase(std::remove_if(out.begin() + static_cast<std::ptrdiff_t>(first), out.end(),
                             [this](const Completed& c) {
                               return c.result.complete_cycle > kill_at_;
                             }),
              out.end());
  }

  /// The same mask, for callers polling a bare device.
  const JobResult* result(DeviceJobId id) const override {
    check();
    const JobResult* r = inner_->result(id);
    if (r == nullptr) return nullptr;
    if (dead_ && r->complete && r->complete_cycle > kill_at_) {
      masked_ = *r;
      masked_.complete = false;
      return &masked_;
    }
    return r;
  }

  /// Forwarded unmasked: the inner count may include completions the kill
  /// boundary hides, which only over-reports (a polling caller tolerates
  /// spurious scans; it must never miss a visible completion).
  std::uint64_t completions() const override { return inner_->completions(); }

  void forget(DeviceJobId id) override { inner_->forget(id); }

  std::optional<std::uint64_t> begin_reconfiguration(std::size_t slot, reconfig::CoreImage image,
                                                     reconfig::BitstreamStore store) override {
    check();
    if (dead_) return std::nullopt;
    auto cycles = inner_->begin_reconfiguration(slot, image, store);
    check();
    return cycles;
  }

  sim::Cycle now() const override {
    check();
    // The clock clamps at the fault: a step/advance that overshot the kill
    // cycle inside the wrapped device never happened externally.
    return dead_ ? kill_at_ : inner_->now();
  }
  /// The inner device's counters, with `failed` from the kill check. A
  /// slot frozen mid-swap stays mid-swap: it never comes back.
  DeviceStats stats() const override {
    check();
    DeviceStats s = inner_->stats();
    s.failed = dead_;
    return s;
  }

 private:
  void check() const {
    if (!dead_ && inner_->now() >= kill_at_) dead_ = true;
  }

  std::unique_ptr<Device> inner_;
  sim::Cycle kill_at_ = 0;
  mutable bool dead_ = false;
  mutable bool rejected_dead_ = false;
  mutable JobResult masked_;  // scratch for post-kill completion masking
};

}  // namespace mccp::host
