// SimDevice: the cycle-accurate simulator backend of `host::Device`.
//
// Owns one `top::Mccp` (plus its Key Memory) and plays the communication
// controller's data-plane role for it: formats packet streams (SVI.B),
// drives the 4-step control protocol, pumps the crossbar, and reacts to the
// Data Available interrupt. The chip's own cycle counter is the device
// clock; the job lifecycle lives in a `JobBook` shared with FastDevice. It
// sits behind the Device seam so the multi-device `host::Engine` can own
// any number of these.
#pragma once

#include <cstdint>
#include <vector>

#include "core/stream_format.h"
#include "host/device.h"
#include "host/job_book.h"
#include "mccp/mccp.h"

namespace mccp::host {

class SimDevice final : public Device {
 public:
  explicit SimDevice(const top::MccpConfig& config, std::string name = "mccp0");

  std::string name() const override { return name_; }

  // -- Device interface -------------------------------------------------------
  void provision_key(top::KeyId id, Bytes session_key) override {
    key_memory_.provision(id, std::move(session_key));
  }
  std::optional<ChannelInfo> open_channel(ChannelMode mode, top::KeyId key,
                                          unsigned tag_len = 16,
                                          unsigned nonce_len = 13) override;
  bool close_channel(std::uint8_t channel_id) override;
  std::uint8_t last_error() const override { return last_rr_; }

  DeviceJobId submit(JobSpec spec) override;
  void step() override;
  void advance_to(sim::Cycle target) override;

  // Lockstep quiet-burst seam: the Engine pumps the whole fleet, then
  // advances every clock by the fleet-min quiet horizon.
  bool supports_quiet_burst() const override { return true; }
  bool pump_round() override { return pump(); }
  sim::Cycle quiet_horizon(sim::Cycle cap) const override { return mccp_.quiet_horizon(cap); }
  void advance_quiet(sim::Cycle n) override;

  void take_completed(std::vector<Completed>& out) override { book_.take_completed(out); }
  const JobResult* result(DeviceJobId id) const override { return book_.result(id); }
  std::uint64_t completions() const override { return book_.completions(); }
  void forget(DeviceJobId id) override { book_.forget(id); }

  std::optional<std::uint64_t> begin_reconfiguration(std::size_t slot, reconfig::CoreImage image,
                                                     reconfig::BitstreamStore store) override {
    return mccp_.begin_core_reconfiguration(slot, image, store);
  }

  sim::Cycle now() const override { return mccp_.cycle(); }
  DeviceStats stats() const override;

  // -- simulator plumbing (tests, benches, reconfiguration flows) -------------
  top::Mccp& mccp() { return mccp_; }
  const top::Mccp& mccp() const { return mccp_; }
  top::KeyMemory& key_memory() { return key_memory_; }

 private:
  struct Job {
    DeviceJobId id = 0;
    JobSpec spec;
    std::uint8_t header_blocks = 0, data_blocks = 0;
    enum class State { kPending, kAccepted, kRetrieved, kDrained } state = State::kPending;
    std::uint8_t request_id = 0;
    std::vector<std::size_t> lanes;
    std::vector<core::CoreJob> lane_jobs;
    std::vector<core::WordStream> collected;  // parallel to lanes
    bool auth_ok = true;
  };

  /// One round of communication-controller work. Returns true when it did
  /// anything observable (ran a control instruction, drained words, retired
  /// or failed a job, scheduled a swap) — false means the controller is
  /// purely waiting on the chip, and advance_to() or a fleet round may
  /// fast-forward quiet cycles.
  bool pump();
  bool drain_retrieved();
  std::uint8_t run_control(std::uint32_t instruction);
  void on_accept(Job& job, std::uint8_t request_id);
  bool drain_outputs(Job& job);
  bool fully_drained(const Job& job) const;
  void finalize(Job& job);

  std::string name_;
  top::KeyMemory key_memory_;
  top::Mccp mccp_;

  /// Ids of the jobs accepted by the device and not yet finalized: the
  /// only ones the interrupt/drain/transfer-done scans need to touch
  /// (bounded by the core count, never by the backlog depth). The drain
  /// scan runs every cycle of every control-instruction wait, so each id
  /// resolves to its record by ring index, not by a search.
  std::vector<DeviceJobId> active_;
  /// Drain gate: drain_retrieved() can only act when the crossbar moved a
  /// word into some outbox (words_out() advanced past the value seen at the
  /// last drain) or a job entered kRetrieved since then (its lanes may
  /// already hold everything it expects, e.g. a verify with no output).
  std::uint64_t drained_words_out_ = 0;
  bool retrieved_since_drain_ = false;
  std::uint8_t last_rr_ = 0;
  std::size_t open_channels_ = 0;

  /// Pending jobs (awaiting an ENCRYPT/DECRYPT slot) and accepted ones,
  /// their results, the completion queue and count. Declared last, so the
  /// book's size does not move the per-cycle drain state above it: a
  /// 40-byte shift of those members cost `sim_gcm_2k` 4-8% of its
  /// throughput on a 4-vCPU x86 VM.
  JobBook<Job> book_;
};

}  // namespace mccp::host
