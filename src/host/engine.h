// host::Engine — the asynchronous multi-device host driver.
//
// The paper scales the MCCP by varying the number of crypto-cores; a
// production platform scales one level further, with a fleet of MCCP
// devices behind one driver. The Engine owns N `host::Device`s, shards
// channels across them with a pluggable placement policy, multiplexes any
// number of in-flight jobs, and exposes an asynchronous submit API:
// `submit_*()` returns a `Completion` token (callbacks + poll/wait) instead
// of a blocking run-until-idle rendezvous. RAII `host::Channel`
// handles auto-CLOSE their device channel slot and carry per-channel
// statistics.
//
// The Engine keeps no finished jobs. A job's state lives while it is in
// flight (the per-device in-flight and delivery lists own it) or while a
// `Completion` handle holds it, and no longer: there is no by-id result
// lookup, and a temporary handle's `wait()` returns its result by value.
//
// Stepping is optionally multithreaded (`EngineConfig::num_workers`):
// devices shard across a worker pool whose caller runs shard 0 (each device
// remains a single-threaded clock domain; a round too small to repay the
// handoff runs inline on the caller, and serial mode is a pool with no
// threads that runs every round inline). Each worker moves its devices' finished
// jobs into per-device lists, which the caller's thread merges in JobId
// order after the round — so `Completion` callbacks, `on_done` ordering
// guarantees and per-channel stats are the same in both modes: completions
// that fire in the same round are delivered in engine-wide submission
// order (ascending JobId), whichever device finished first. The Engine API
// itself is NOT thread-safe: all public calls (submit, open_channel,
// step, ...) must come from one thread; `num_workers` parallelizes the
// inside of `step()`/`advance_to()` only. Threaded and serial runs are
// deterministic twins — devices never interact, so per-device state,
// results and clocks are bit-identical (tests/host/engine_threading_test.cpp
// pins this).
//
// Later scaling work (work stealing across devices, non-sim backends)
// plugs into this seam without touching clients.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "qos/tenant.h"
#include "host/channel.h"
#include "host/completion.h"
#include "host/device.h"
#include "host/fast_device.h"
#include "host/faulty_device.h"
#include "host/sim_device.h"
#include "host/worker_pool.h"
#include "sim/simulation.h"  // sim::throughput_mbps: cycle stamps to Mbps at the paper's clock

namespace mccp::host {

/// Base of the Engine's typed error hierarchy (membership / drain faults;
/// argument errors still throw the std:: exceptions they always did).
class EngineError : public std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Submitting on a channel whose device is draining (begin_drain()): the
/// device is on its way out of the fleet and accepts no new work. Typed —
/// callers race membership changes legitimately and must be able to catch
/// this and re-place.
class DeviceDrainingError : public EngineError {
  using EngineError::EngineError;
};

/// Submitting on a channel stranded by a removal: its device left the
/// fleet and the channel could not be migrated to any survivor.
class DeviceRemovedError : public EngineError {
  using EngineError::EngineError;
};

/// How open_channel() places channels onto devices.
enum class Placement : std::uint8_t {
  kRoundRobin,   // rotate through devices
  kLeastLoaded,  // fewest open channels + in-flight jobs
  kModeAffinity, // channels of one mode cluster on the same device (warm
                 // key caches / mode-specific core images), least-loaded
                 // among devices already serving that mode
};

/// Which Device implementation an EngineConfig-built fleet runs on.
enum class Backend : std::uint8_t {
  kSim,   // cycle-accurate simulator (SimDevice): ground truth, slow
  kFast,  // functional fast path (FastDevice): optimized kernels +
          // calibrated cycle model; bit-identical results, orders of
          // magnitude faster wall-clock
};

/// Scripted device death for fault-injection runs: device `device` is
/// wrapped in a FaultyDevice and dies once its clock reaches
/// `kill_at_cycle` (see host/faulty_device.h for the freeze semantics).
struct DeviceFault {
  std::size_t device = 0;
  sim::Cycle kill_at_cycle = 0;  // 0 = dead on arrival
};

struct EngineConfig {
  std::size_t num_devices = 1;
  top::MccpConfig device{};  // applied to every device (shape + policies)
  /// Per-device boot slot layouts: entry i overrides `device.slot_images`
  /// for device i (an empty entry inherits it; devices beyond the list
  /// inherit too). Lets a fleet boot heterogeneous — e.g. one device with
  /// a Whirlpool slot serving all hash channels while the rest stay AES.
  std::vector<std::vector<reconfig::CoreImage>> slot_layouts{};
  Placement placement = Placement::kRoundRobin;
  Backend backend = Backend::kSim;
  /// Threads stepping the fleet: 0 or 1 = serial (every device steps on
  /// the caller's thread), N >= 2 = a pool of min(N, num_devices) shards,
  /// the caller running shard 0, that shards a round only when its
  /// measured work repays the handoff. Completions still fire on the
  /// caller's thread, in both modes.
  std::size_t num_workers = 0;
  /// Scripted device deaths (fault injection): each listed device is
  /// wrapped in a FaultyDevice at construction. A non-empty list turns on
  /// spec retention, as inject_fault() does, so stranded jobs can be
  /// resubmitted on recovery.
  std::vector<DeviceFault> faults{};
  /// Multi-tenant QoS: tenants registered at construction (dense 1-based
  /// ids in declaration order). Channels opened with a tenant id are
  /// metered against the tenant's rate bucket and in-flight quota at every
  /// submit, with typed qos::TenantThrottledError /
  /// qos::TenantQuotaExceededError rejections.
  std::vector<qos::TenantConfig> tenants{};
};

/// What `Engine::remove_device()` did: how long the drain took, where the
/// device's channels went, and what happened to its in-flight jobs. The
/// workload layer surfaces these as the report's recovery-time metrics.
struct DrainReport {
  std::size_t device_index = 0;
  /// The device was already dead (or died mid-drain): the drain was cut
  /// short and in-flight jobs were resubmitted rather than completed.
  bool was_failed = false;
  sim::Cycle drain_cycles = 0;  // engine-clock time spent draining
  std::uint64_t completed_during_drain = 0;
  std::size_t migrated_channels = 0;
  /// Channels no survivor could host (fleet out of slots): their records
  /// stay, but submits throw DeviceRemovedError.
  std::size_t orphaned_channels = 0;
  /// Stranded jobs resubmitted onto survivors (their Completions stay
  /// valid and fire when the resubmitted copy lands).
  std::uint64_t resubmitted_jobs = 0;
  /// Stranded jobs that could not be recovered (no retained spec, or an
  /// orphaned channel): completed with auth_ok == false. Zero whenever
  /// spec retention is on and migration succeeds.
  std::uint64_t lost_jobs = 0;
};

class Engine {
 public:
  /// Build a fleet of `num_devices` identical MCCPs on the configured
  /// backend. Heterogeneous (mixed sim/fast) fleets use the adopting
  /// constructor below.
  explicit Engine(const EngineConfig& config);
  /// Adopt an existing (possibly heterogeneous) fleet.
  explicit Engine(std::vector<std::unique_ptr<Device>> devices,
                  Placement placement = Placement::kRoundRobin,
                  std::size_t num_workers = 0);
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;
  ~Engine();

  // -- main-controller duties ---------------------------------------------------
  /// Provision a session key on every device, so placement is free to put
  /// any channel anywhere.
  void provision_key(top::KeyId id, const Bytes& session_key);

  // -- control plane ------------------------------------------------------------
  /// Open a channel on a device chosen by the placement policy (falling
  /// back to the other devices if it is out of slots). Returns an invalid
  /// Channel on failure with the return register in last_error(). A
  /// non-zero `tenant` id (see EngineConfig::tenants / register_tenant())
  /// binds the channel: every submit on it is metered against that
  /// tenant's contract. Throws std::invalid_argument for an unknown id.
  Channel open_channel(ChannelMode mode, top::KeyId key, unsigned tag_len = 16,
                       unsigned nonce_len = 13, std::uint16_t tenant = 0);
  std::uint8_t last_error() const { return last_rr_; }

  // -- multi-tenant QoS ---------------------------------------------------------
  /// Register a tenant after construction; returns its 1-based id.
  std::uint16_t register_tenant(const qos::TenantConfig& cfg) {
    return tenants_.register_tenant(cfg);
  }
  /// The enforcement table: id lookup, per-tenant runtime counters.
  const qos::TenantTable& tenants() const { return tenants_; }

  // -- data plane ---------------------------------------------------------------
  Completion submit_encrypt(const Channel& ch, Bytes iv_or_nonce, Bytes aad, Bytes plaintext,
                            unsigned priority = 128);
  Completion submit_decrypt(const Channel& ch, Bytes iv_or_nonce, Bytes aad, Bytes ciphertext,
                            Bytes tag, unsigned priority = 128);
  /// Submit a burst of jobs on one channel in a single call, amortizing the
  /// per-job bookkeeping (channel lookup, stats accounting, in-flight
  /// registration) across the batch — the fast path for closed-loop traffic
  /// generators on burst arrivals. `spec.channel` is overwritten with the
  /// handle's descriptor; `decrypt`, payload fields and `priority` are
  /// honoured per spec. Returns one Completion per spec, in order.
  std::vector<Completion> submit_batch(const Channel& ch, std::vector<JobSpec> specs);
  /// Copying overload for callers that keep the specs.
  std::vector<Completion> submit_batch(const Channel& ch, std::span<const JobSpec> specs);

  /// Advance every device one scheduling round and fire completions.
  /// With `num_workers` > 1 the devices may advance in parallel on the pool;
  /// completions still fire here, on the calling thread, exactly once.
  void step();
  /// `n` engine steps (each >= 1 device cycle).
  void run(sim::Cycle n);
  /// Advance every device clock to at least `target` cycles, stepping while
  /// work is in flight and letting idle devices jump. Workload pacing uses
  /// this to skip quiet gaps between arrivals.
  void advance_to(sim::Cycle target);
  /// Server-driven stepping: advance up to `max_rounds` rounds while work
  /// is in flight and return how many jobs completed. The narrow seam a
  /// network event loop needs — it interleaves bounded slices of device
  /// time with socket servicing, and an idle fleet costs nothing (the
  /// loop can block on I/O instead of busy-stepping a frozen clock).
  std::size_t pump(std::size_t max_rounds);
  bool idle() const;
  /// Step until every submitted job completed (or throw after max_cycles
  /// of device time).
  void wait_all(sim::Cycle max_cycles = 100'000'000);

  // -- dynamic membership -------------------------------------------------------
  // Device slots are stable for the engine's lifetime: removing a device
  // tombstones its slot (channels, jobs, worker sharding and round-robin
  // cursors all key on slot indices), and add_device() refills the first
  // tombstone before growing the fleet.

  /// Add a device built from the construction-time EngineConfig (same
  /// backend/shape as the original fleet; `slot_layout` overrides the boot
  /// slot images when non-empty). Keys already provisioned through the
  /// engine are replayed onto it and its clock is advanced to the fleet's,
  /// so placement can use it immediately. Returns its slot index. Throws
  /// std::logic_error on an adopted (non-config-built) fleet — use the
  /// adopting overload there.
  std::size_t add_device(std::vector<reconfig::CoreImage> slot_layout = {});
  /// Adopt an externally built device into the fleet (keys replayed, clock
  /// synced, slot reused or appended). Returns its slot index.
  std::size_t add_device(std::unique_ptr<Device> device);

  /// Remove device `index` from the fleet: drain (stop placing on it, step
  /// the fleet until its in-flight jobs complete — or until it turns out
  /// to be dead), migrate its channels to survivors (handles stay valid;
  /// per-channel in-order delivery is preserved), resubmit any stranded
  /// jobs from their retained specs in submission order, then tombstone
  /// the slot. Throws std::out_of_range for an empty slot,
  /// std::logic_error when it is the last live device, and EngineError if
  /// a healthy drain exceeds `max_drain_cycles` of engine-clock time (the
  /// device is left draining; the call can be retried).
  DrainReport remove_device(std::size_t index, sim::Cycle max_drain_cycles = 10'000'000);

  /// Stop placing channels on device `index` and reject new submits to its
  /// channels with DeviceDrainingError. remove_device() implies it;
  /// cancel_drain() re-admits the device.
  void begin_drain(std::size_t index);
  void cancel_drain(std::size_t index);
  bool draining(std::size_t index) const;

  /// Wrap live device `index` in a FaultyDevice dying at `kill_at_cycle`
  /// (see host/faulty_device.h). Turns on spec retention for subsequent
  /// submits; inject before offering the traffic whose recovery matters.
  void inject_fault(std::size_t index, sim::Cycle kill_at_cycle);

  bool device_alive(std::size_t index) const {
    return index < devices_.size() && devices_[index] != nullptr;
  }
  bool device_failed(std::size_t index) const {
    return device_alive(index) && devices_[index]->stats().failed;
  }
  /// Slots currently holding a live device.
  std::size_t alive_devices() const;
  /// Live devices whose stats() report `failed` — each wants a
  /// remove_device() to recover its channels and stranded jobs.
  std::vector<std::size_t> failed_devices() const;

  // -- fleet introspection ------------------------------------------------------
  /// Device *slots* (tombstones included); see alive_devices() for the
  /// live count and device_alive() before indexing a possibly-elastic
  /// fleet.
  std::size_t num_devices() const { return devices_.size(); }
  Device& device(std::size_t i) { return checked_device(i); }
  const Device& device(std::size_t i) const { return checked_device(i); }
  /// The simulated backend, when device `i` is a SimDevice, seen through a
  /// FaultyDevice wrapper (nullptr for FastDevice fleets, adopted non-sim
  /// devices and tombstoned slots).
  SimDevice* sim_device(std::size_t i);
  /// Furthest-ahead device clock (devices advance independently).
  sim::Cycle max_cycle() const;
  /// Slowest clock among live devices that still have work in flight
  /// (max_cycle() when none do). Once this passes cycle B, every job whose
  /// completion stamp is <= B has been delivered — the watermark
  /// boundary-based autoscale uses to evaluate engine-clock boundaries.
  sim::Cycle min_busy_cycle() const;
  /// Would removing device `index` leave some live channel's core image
  /// with no remaining holder in the fleet? Scale-down policies use this
  /// to prefer personality-redundant devices.
  bool last_image_holder(std::size_t index) const;
  /// Every live device's stats() summed (DeviceStats::operator+=): jobs in
  /// flight, open channels, and the fleet-wide partial-reconfiguration
  /// accounting — swaps started and the slot-cycles they spent unavailable.
  DeviceStats device_stats() const;
  std::uint64_t reconfigurations() const { return device_stats().reconfigurations; }
  /// Jobs finished over the engine's lifetime (the STATS counter the
  /// networked service pushes to subscribed clients).
  std::uint64_t completed_jobs() const { return completed_jobs_; }
  Placement placement() const { return placement_; }
  /// Shards the pool splits a stepping round into (0 or 1 = serial mode).
  std::size_t num_workers() const { return pool_->size(); }
  /// Stepping rounds dispatched so far, and how many of them the pool
  /// sharded across threads (the rest ran inline on the caller).
  std::uint64_t rounds() const { return pool_->rounds(); }
  std::uint64_t sharded_rounds() const { return pool_->sharded_rounds(); }

 private:
  friend class Channel;
  friend class Completion;

  struct ChannelRecord {
    std::size_t device = 0;
    ChannelInfo info{};
    ChannelStats stats{};
    bool open = true;
    /// Its device was removed and no survivor could host it: submits
    /// throw DeviceRemovedError.
    bool orphaned = false;
    /// Owning tenant (0 = untenanted): submits are metered against it.
    std::uint16_t tenant = 0;
  };

  Device& checked_device(std::size_t i) const {
    if (!device_alive(i))
      throw std::out_of_range("Engine::device: no device at slot " + std::to_string(i));
    return *devices_[i];
  }
  /// A device placement may target: alive, not draining, not failed.
  bool placeable(std::size_t i) const {
    return device_alive(i) && !draining_[i] && !devices_[i]->stats().failed;
  }
  std::size_t pick_device(ChannelMode mode) const;
  std::size_t device_load(std::size_t i) const;
  /// Placement + device-side OPEN with fallback across placeable devices;
  /// sets last_rr_. Shared by open_channel() and channel migration.
  std::optional<std::pair<std::size_t, ChannelInfo>> place_channel(ChannelMode mode,
                                                                   top::KeyId key,
                                                                   unsigned tag_len,
                                                                   unsigned nonce_len);
  std::size_t adopt_device(std::unique_ptr<Device> dev);
  Completion submit(const Channel& ch, JobSpec spec);
  /// Throws the typed drain/removal error when `rec` cannot take work.
  void ensure_submittable(const ChannelRecord& rec) const;
  const ChannelRecord* channel_record(std::uint64_t uid) const;
  void release_channel(std::uint64_t uid);
  void track(std::shared_ptr<detail::JobState> st);
  /// True when work is in flight but every device holding any of it has
  /// failed: stepping can never finish it (stranded; remove_device()
  /// migrates and resubmits).
  bool inflight_only_on_failed() const;
  /// Deliver `result` (moved out of the device through take_result, or
  /// made up for a lost job): stats, tenant release, callbacks.
  void finish_job(detail::JobState& st, JobResult result);
  const ChannelStats* channel_stats(std::uint64_t uid) const;
  /// The one stepping primitive: run `op` on every live device via the
  /// worker pool, each thread then moving its devices' finished jobs into
  /// done_; then merge and deliver them on the calling thread.
  void run_round(const std::function<void(Device&)>& op);
  void collect_completed(std::size_t device_index);
  void deliver_completed();
  /// One round that may fast-forward quiet fleet time: every device's
  /// controller is pumped, and when none of them acted all clocks advance
  /// together by the fleet-min quiet horizon (capped at `max_cycles`)
  /// instead of one cycle. Bit-identical to the step() calls it replaces
  /// — step(), wait_all(), advance_to() and Completion::wait() drive their
  /// loops through this. Returns the stride (>= 1); a device whose pump
  /// ran a control instruction moved its own clock further.
  sim::Cycle step_quiet(sim::Cycle max_cycles);

  std::vector<std::unique_ptr<Device>> devices_;  // null = tombstoned slot
  Placement placement_;

  // -- dynamic membership state -------------------------------------------------
  std::vector<std::uint8_t> draining_;  // parallel to devices_
  /// Keys provisioned through the engine, replayed onto added devices (the
  /// existing key-provisioning path is how migrated channels find their
  /// keys on survivors).
  std::map<top::KeyId, Bytes> key_table_;
  /// Construction config, kept so add_device() can build fleet-identical
  /// devices. Only meaningful when config_built_.
  EngineConfig build_config_{};
  bool config_built_ = false;
  std::size_t devices_created_ = 0;  // monotonic, for unique device names
  /// Keep each job's spec until it completes, so remove_device() can
  /// resubmit work stranded on a failed device. Set by inject_fault()
  /// (and so by a non-empty EngineConfig::faults).
  bool retain_job_specs_ = false;
  /// Inside remove_device(): its own drain must keep accepting the
  /// re-entrant submits completion callbacks issue (decrypt round-trips),
  /// so the draining-device typed error is suspended for the scope.
  bool removal_in_progress_ = false;

  /// Tenant contracts + runtime enforcement state (rate buckets, quotas,
  /// per-tenant counters).
  qos::TenantTable tenants_;

  /// Every channel ever opened, indexed by uid - 1: uids are dense and a
  /// record outlives its handle (closed, migrated or orphaned records stay),
  /// so a lookup is one index. A deque, so records never move: a handle's
  /// info() and stats() references stay valid as channels open.
  std::deque<ChannelRecord> channels_;
  /// Round-robin cursors, one per core image: a Whirlpool channel landing
  /// on the fleet's one image-holding device must not warp the rotation
  /// the AES-mode channels are following (and vice versa).
  std::size_t rr_next_[2] = {0, 0};  // indexed by reconfig::CoreImage

  /// In-flight jobs sharded by device, so each worker scans and trims only
  /// its own devices' lists during a round (no cross-thread sharing; the
  /// caller's thread owns every list between rounds).
  std::vector<std::vector<std::shared_ptr<detail::JobState>>> inflight_;
  /// Device::completions() value read by the last collect, per device
  /// slot (the occupant's own count when it filled the slot, before the
  /// Engine submitted anything to it). Every visible completion up to
  /// it has been collected, so while the counter sits at this value the
  /// collect skips the device in O(1), and otherwise it stops scanning once
  /// it found as many completions as the counter moved — the scans were
  /// quadratic in backlog depth otherwise. Reset whenever a slot changes
  /// occupant.
  std::vector<std::uint64_t> completions_seen_;
  std::size_t inflight_count_ = 0;
  std::uint64_t completed_jobs_ = 0;
  JobId next_job_ = 1;
  std::uint8_t last_rr_ = 0;

  /// Jobs a round found finished, per device slot: written only by the
  /// thread stepping that device in the round, merged by the caller after.
  std::vector<std::vector<std::shared_ptr<detail::JobState>>> done_;
  /// Per-slot quiet horizon reported in step_quiet()'s pump phase (1 when
  /// the controller acted); same ownership rule as done_.
  std::vector<sim::Cycle> horizon_;

  std::unique_ptr<WorkerPool> pool_;  // size 0 or 1 = serial stepping
  /// Collected completions awaiting finish_job, ascending JobId from
  /// finish_head_ on (the entries before it are delivered; the vector is
  /// cleared, keeping its capacity, once all are). A member so a callback
  /// that re-enters the engine can finish jobs from the same round's batch,
  /// with a nested round's batch sorting in among them.
  std::vector<std::shared_ptr<detail::JobState>> finish_queue_;
  std::size_t finish_head_ = 0;
};

}  // namespace mccp::host
