// FastDevice: the functional fast-path backend of `host::Device`.
//
// Where `SimDevice` pumps the cycle-accurate MCCP model (every control
// instruction, FIFO beat and core clock), FastDevice computes packet
// results directly with the optimized software kernels (T-table AES,
// table-driven GHASH, batched CTR) and advances a modelled clock using the
// calibrated cost model of host/cost_model.h. Results are bit-identical to
// SimDevice — the randomized differential suite in
// tests/host/backend_differential_test.cpp enforces this — while running
// orders of magnitude faster, which makes million-packet soaks and large
// fleets tractable.
//
// The device keeps the MCCP's externally visible semantics: 64 channel
// slots, key provisioning with per-core key-cache accounting, per-core
// occupancy (jobs queue when all cores are busy; CCM may split across two
// cores per the configured mapping), priority-then-arrival service order,
// and the control-protocol error codes of mccp/control.h in last_error().
// Its clock is event-driven: each step() schedules work and jumps to the
// next completion, so stepping costs O(in-flight jobs), not O(cycles). The
// job lifecycle lives in a `JobBook` shared with SimDevice.
//
// Compute is deferred. Dispatch books cores and cycles; a CCM packet is
// also submitted to the device's crypto::CcmLanes there, which computes
// its header MAC and parks its payload as a lane of the multi-lane kernel
// (the software form of independent packets on independent cores). A
// packet's result is computed when step() retires it: a CCM packet's
// lane runs to its end beside the device's other running CCM packets,
// which keep their progress, and any other mode is computed then. GCM,
// CCM and CTR results are computed in the job's own payload buffer, which
// then becomes the result's payload: no second buffer per packet, as the
// MCCP streams a packet from its input FIFO through a core and out. A
// result becomes visible only when `complete` flips (Device::result() is
// partial until then), so when the work runs changes no observable state,
// and every stamp still comes from the cost model. Each job holds the key
// bundle in force when it was dispatched: re-provisioning a key
// mid-flight never reaches a job already on a core, exactly as on the
// simulated chip.
//
// Partial reconfiguration (paper SVII.B) is modelled: each core slot
// carries a `reconfig::CoreImage` personality (boot layout from
// MccpConfig::slot_images), a packet only schedules onto a slot hosting
// its mode's image, and a packet whose image no slot holds either fails
// fast or triggers a modelled bitstream transfer (MccpConfig::auto_reconfig
// + bitstream_store) whose duration comes from the same Table IV transfer-
// rate model the simulator charges — the slot is unavailable for the swap
// while its siblings keep serving.
//
// The crossbar is folded into the cost model, not stepped: a packet's I/O
// beats are part of its calibrated occupancy, measured with its core
// streaming alone (FastDeviceCalibration in tests/host/fast_device_test.cpp).
// Cores streaming at the same time do not contend for the crossbar's
// round-robin arbiter here, as they do on SimDevice.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "crypto/aes.h"
#include "crypto/ccm.h"
#include "crypto/gcm.h"
#include "host/device.h"
#include "host/job_book.h"
#include "mccp/mccp.h"

namespace mccp::host {

class FastDevice final : public Device {
 public:
  explicit FastDevice(const top::MccpConfig& config, std::string name = "fast0");

  std::string name() const override { return name_; }

  // -- Device interface -------------------------------------------------------
  void provision_key(top::KeyId id, Bytes session_key) override;
  std::optional<ChannelInfo> open_channel(ChannelMode mode, top::KeyId key,
                                          unsigned tag_len = 16,
                                          unsigned nonce_len = 13) override;
  bool close_channel(std::uint8_t channel_id) override;
  std::uint8_t last_error() const override { return last_rr_; }

  DeviceJobId submit(JobSpec spec) override;
  void step() override;
  /// Event-driven clock: an idle device jumps straight to `target`; with
  /// work in flight, fall back to stepping (each step already jumps to the
  /// next completion).
  void advance_to(sim::Cycle target) override;
  bool idle() const override { return book_.idle(); }
  const JobResult* result(DeviceJobId id) const override { return book_.result(id); }
  std::uint64_t completions() const override { return book_.completions(); }
  std::optional<JobResult> take_result(DeviceJobId id) override { return book_.take_result(id); }

  std::optional<std::uint64_t> begin_reconfiguration(std::size_t slot, reconfig::CoreImage image,
                                                     reconfig::BitstreamStore store) override;

  sim::Cycle now() const override { return now_; }
  DeviceStats stats() const override;

  // -- per-slot personalities (off the seam, which reports stats()) -----------
  /// Old image until the swap's end cycle passes (same commit semantics as
  /// the simulated region).
  reconfig::CoreImage slot_image(std::size_t slot) const { return image_at(slot, now_); }
  bool slot_reconfiguring(std::size_t slot) const { return core_swap_until_[slot] > now_; }
  std::size_t num_cores() const { return config_.num_cores; }

 private:
  struct Key {
    std::uint64_t generation = 0;
    crypto::AesRoundKeys expanded;  // expanded once per provision
    /// Round keys + GHASH Shoup table, built once per provision so GCM
    /// packets skip the ~0.5 µs per-packet table rebuild. Rotation
    /// (re-provisioning) replaces the whole bundle, so a stale table can
    /// never serve a new key generation.
    crypto::GcmKey gcm;
  };
  struct Job {
    DeviceJobId id = 0;
    JobSpec spec;
    sim::Cycle done_at = 0;
    /// A running CCM job's handle in `lanes_`.
    std::size_t lane = 0;
    /// The key bundle in force at dispatch (null for Whirlpool).
    std::shared_ptr<const Key> key;
    /// First cycle a busy-error denied this job a core (unset = never
    /// denied — cycle 0 is a legitimate denial time when jobs are queued
    /// before the clock first advances); converted into a
    /// SimDevice-comparable retry count on acceptance.
    std::optional<sim::Cycle> first_denied;
  };

  /// The one core a packet runs on, or the ring-adjacent pair a split CCM
  /// packet streams across.
  struct CoreSet {
    std::array<std::size_t, 2> ids{};
    std::size_t size = 1;
    const std::size_t* begin() const { return ids.data(); }
    const std::size_t* end() const { return ids.data() + size; }
  };

  /// Try to place pending jobs (priority order) onto free cores, booking
  /// core occupancy (the result is computed when the job retires).
  void schedule_pending();
  /// The image slot `c` hosts at cycle `t`: the swap target once an
  /// in-flight transfer's end cycle has passed, the old image before.
  reconfig::CoreImage image_at(std::size_t c, sim::Cycle t) const {
    return core_swap_until_[c] > t ? core_image_[c] : core_target_[c];
  }
  /// Book `job` onto `cores`; a CCM job is also submitted to `lanes_`.
  void start_job(Job& job, CoreSet cores);
  /// Functional result of a retiring job via the fast kernels (a CCM
  /// job's is finished in `lanes_`); mirrors SimDevice::finalize output
  /// conventions exactly (differential-tested). GCM, CCM, CTR and a
  /// CBC-MAC verify's placeholder are computed in the job's payload
  /// buffer, which then moves into `res`.
  void compute(Job& job, JobResult& res);

  std::string name_;
  top::MccpConfig config_;

  std::map<top::KeyId, std::shared_ptr<const Key>> keys_;
  std::uint64_t next_generation_ = 1;
  /// The MCCP's 64 channel slots: the mode each open channel registered.
  std::array<std::optional<ChannelMode>, 64> channels_{};
  std::size_t open_channels_ = 0;

  /// Per-core modelled state: busy horizon and cached key (id, generation)
  /// for Key Scheduler accounting.
  std::vector<sim::Cycle> core_free_;
  std::vector<std::optional<std::pair<top::KeyId, std::uint64_t>>> core_key_;
  /// Per-slot personality model: the image before an in-flight swap, the
  /// image the swap lands (== core_image_ when no swap), and the cycle the
  /// slot becomes schedulable again (<= now_: settled).
  std::vector<reconfig::CoreImage> core_image_;
  std::vector<reconfig::CoreImage> core_target_;
  std::vector<sim::Cycle> core_swap_until_;
  std::uint64_t reconfigurations_ = 0;
  std::uint64_t reconfig_stall_cycles_ = 0;
  std::array<std::uint64_t, reconfig::kNumCoreImages> reconfig_to_{};  // by image_index()

  /// Pending jobs (awaiting a core) and running ones, their results and
  /// the completion count.
  JobBook<Job> book_;
  /// Ids of the jobs placed on cores and awaiting retirement (at most one
  /// per core; capacity reserved at construction).
  std::vector<DeviceJobId> running_;
  std::uint8_t last_rr_ = 0;
  /// The running CCM jobs' lanes, in place in each job's payload buffer;
  /// room for one per core, so the steady state does not allocate.
  crypto::CcmLanes lanes_;
  sim::Cycle now_ = 0;
};

}  // namespace mccp::host
