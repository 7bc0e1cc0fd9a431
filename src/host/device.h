// The host driver's device abstraction.
//
// The paper's MCCP "is embedded in a much larger platform including one main
// controller and one communication controller" (SIII.A), and the
// architecture "is scalable; the number of embedded crypto-cores may vary".
// Production deployments scale one step further: a fleet of MCCP devices
// behind one host driver. `Device` is the stable seam between that driver
// (`host::Engine`) and whatever sits underneath: the cycle-accurate
// `SimDevice` and the calibrated `FastDevice` (which share host/job_book.h),
// RTL co-simulation or real PCIe/AXI hardware later. Everything above this
// interface is transport-agnostic.
//
// A Device bundles one MCCP's control port (the 4-step instruction protocol
// of SIII.B) with its crossbar pump (packet formatting, lane streaming,
// Data-Available service, output draining). Control-plane calls complete
// synchronously; the data plane is asynchronous: `submit()` queues a job and
// returns immediately, `step()` advances the device one scheduling round,
// and `result()` exposes the job's live state.
//
// The seam is 19 virtual members. Counters and flags (jobs in flight, open
// channels, reconfigurations, per-image slot counts, failure) come back in
// one `DeviceStats` value from stats(); per-slot detail stays behind the
// backends (SimDevice::mccp(), FastDevice's slot queries).
//
// Threading contract: a Device is a single-threaded clock domain and
// implementations need NO internal synchronization. The driver guarantees
// that at most one thread touches a given device at any time — in the
// Engine's worker-pool mode, each device is touched by one thread for
// `step()`/`advance_to()`/`result()` during a round, and every round is
// separated from the caller's submit/control/take_result accesses by a barrier
// (a happens-before edge on both entry and exit). Distinct devices may be
// driven concurrently; nothing behind this interface may share mutable
// state across devices.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "core/stream_format.h"
#include "crypto/ccm.h"
#include "crypto/whirlpool.h"
#include "mccp/control.h"
#include "mccp/key_store.h"
#include "reconfig/reconfig.h"
#include "sim/clocked.h"

namespace mccp::host {

using top::ChannelMode;

/// Descriptor of an open channel on one device. Plain data — the RAII
/// `host::Channel` wraps one of these.
struct ChannelInfo {
  std::uint8_t id = 0;
  ChannelMode mode{};
  top::KeyId key_id = 0;
  std::uint8_t tag_len = 16;
  std::uint8_t nonce_len = 13;  // CCM only
};

/// Device-local job identifier (dense, per-device).
using DeviceJobId = std::uint64_t;

/// Final (or in-flight partial) state of a transferred packet.
struct JobResult {
  bool complete = false;
  bool auth_ok = true;
  Bytes payload;          // ciphertext (encrypt) or plaintext (decrypt)
  Bytes tag;              // encrypt only
  sim::Cycle submit_cycle = 0;
  sim::Cycle accept_cycle = 0;    // ENCRYPT/DECRYPT acknowledged
  sim::Cycle complete_cycle = 0;  // TRANSFER_DONE acknowledged
  std::uint32_t rejections = 0;   // busy-error retries before acceptance
};

/// Everything the device needs to run one packet.
struct JobSpec {
  ChannelInfo channel;
  bool decrypt = false;
  Bytes iv_or_nonce;
  Bytes aad;
  Bytes payload;
  Bytes tag;  // decrypt only
  /// 0 = most urgent; equal priorities are served in arrival order
  /// (SIII.C); distinct priorities implement the SVIII QoS extension.
  unsigned priority = 128;
};

/// Largest Whirlpool message the hardware can hash in one job: the
/// instruction word carries the padded block count in one byte, so the
/// message plus its 0x80 byte and 32-byte length field may span at most
/// core::kMaxInstructionBlocks 64-byte blocks.
inline constexpr std::size_t kMaxWhirlpoolPayload = core::kMaxInstructionBlocks * 64 - 33;
static_assert(crypto::whirlpool_padded_len(kMaxWhirlpoolPayload) ==
              core::kMaxInstructionBlocks * 64);
static_assert(crypto::whirlpool_padded_len(kMaxWhirlpoolPayload + 1) >
              core::kMaxInstructionBlocks * 64);

/// Packets no backend can serve; accepted, the two backends would diverge:
///  * a GCM submit whose IV length differs from the channel's registered
///    nonce_len: the simulated core waits forever for IV stream words that
///    never arrive, while the fast path would compute a tag the hardware
///    never would;
///  * a Whirlpool payload over kMaxWhirlpoolPayload: its block count wraps
///    in the instruction word and the simulator cannot format the job,
///    while the fast path would return a digest;
///  * a CCM submit whose nonce length differs from the channel's
///    registered nonce_len: the formatting function (and crypto::ccm_seal
///    on the fast path) throws on it;
///  * a CCM payload too long for the channel's nonce length (B0's length
///    field has 15 - nonce_len bytes: at most 65 535 B with a 13-byte
///    nonce): the formatting function and crypto::CcmLanes throw on it;
///  * a GCM, CCM or CBC-MAC decrypt/verify whose tag length differs from
///    the channel's registered tag_len: the simulated formatter masks the
///    verify by the submitted length and the fast path by the channel's,
///    so an over-long tag with the right prefix failed on SimDevice and
///    verified on FastDevice;
///  * a GCM submit with an empty IV (a channel opened with nonce_len 0):
///    GCM has no J0 for it, the simulated formatter throws on it and
///    crypto::gcm_seal refuses it.
/// Backends call this at the submit seam and fail the job immediately
/// (complete, !auth_ok) instead. AES-mode shapes only the simulated FIFOs
/// cannot carry (payloads not whole blocks or over
/// core::kMaxInstructionBlocks blocks, AAD over that many header blocks,
/// GCM, CCM or CTR opens longer than a core's output FIFO) are not refused
/// here: FastDevice serves them, and SimDevice refuses them itself.
inline bool refused_at_submit(const JobSpec& spec) {
  const bool bad_tag = spec.decrypt && spec.tag.size() != spec.channel.tag_len;
  switch (spec.channel.mode) {
    case ChannelMode::kGcm:
      return spec.iv_or_nonce.empty() || spec.iv_or_nonce.size() != spec.channel.nonce_len ||
             bad_tag;
    case ChannelMode::kCcm:
      return spec.iv_or_nonce.size() != spec.channel.nonce_len || bad_tag ||
             !crypto::ccm_length_fits(spec.channel.nonce_len, spec.payload.size());
    case ChannelMode::kCbcMac:
      return bad_tag;
    case ChannelMode::kWhirlpool:
      return spec.payload.size() > kMaxWhirlpoolPayload;
    default:
      return false;
  }
}

/// Which CU slot personality a channel mode executes on (paper SVII.B):
/// Whirlpool hashing needs the Whirlpool image; every block-cipher mode
/// runs on the AES-encryption(+key-schedule) image.
inline reconfig::CoreImage image_for_mode(ChannelMode mode) {
  return mode == ChannelMode::kWhirlpool ? reconfig::CoreImage::kWhirlpool
                                         : reconfig::CoreImage::kAesEncryptWithKs;
}

/// One device's counters and flags, read together: a plain value built in
/// O(cores) with no heap. Per-image arrays are indexed by image_index().
struct DeviceStats {
  /// Jobs queued or on the device; a job leaves at completion, and a
  /// submit refused at the seam never enters.
  std::size_t inflight = 0;
  std::size_t open_channels = 0;
  /// Swaps started, and the slot-cycles they spent (will spend) unavailable.
  std::uint64_t reconfigurations = 0;
  std::uint64_t reconfig_stall_cycles = 0;
  /// Of those swaps, the ones that landed each image.
  std::array<std::uint64_t, reconfig::kNumCoreImages> reconfigurations_to{};
  /// Slots committed to each image now (a slot mid-swap counts for neither).
  std::array<std::size_t, reconfig::kNumCoreImages> slots_with_image{};
  /// The device has died (fault, hot-unplug): its clock stops, in-flight
  /// jobs never complete, control calls are rejected. Backends never fail
  /// by themselves; FaultyDevice injects it, and real transports would.
  bool failed = false;

  /// Fleet sums: counts add, `failed` when either side failed.
  DeviceStats& operator+=(const DeviceStats& o) {
    inflight += o.inflight;
    open_channels += o.open_channels;
    reconfigurations += o.reconfigurations;
    reconfig_stall_cycles += o.reconfig_stall_cycles;
    for (std::size_t i = 0; i < reconfig::kNumCoreImages; ++i) {
      reconfigurations_to[i] += o.reconfigurations_to[i];
      slots_with_image[i] += o.slots_with_image[i];
    }
    failed = failed || o.failed;
    return *this;
  }
  bool operator==(const DeviceStats&) const = default;
};

class Device {
 public:
  virtual ~Device() = default;
  virtual std::string name() const = 0;

  // -- main-controller duties (red/black boundary, SIII.A) --------------------
  virtual void provision_key(top::KeyId id, Bytes session_key) = 0;

  // -- control plane (each call runs the 4-step protocol to completion) -------
  virtual std::optional<ChannelInfo> open_channel(ChannelMode mode, top::KeyId key,
                                                  unsigned tag_len = 16,
                                                  unsigned nonce_len = 13) = 0;
  virtual bool close_channel(std::uint8_t channel_id) = 0;
  /// Return-register value of the last control instruction.
  virtual std::uint8_t last_error() const = 0;

  // -- data plane (asynchronous) ----------------------------------------------
  /// Queue a packet; never blocks. Errors (unknown channel, ...) surface on
  /// the job itself: it completes with `auth_ok == false`.
  virtual DeviceJobId submit(JobSpec spec) = 0;
  /// Queue a burst of packets in one call, consuming the specs: submit() in
  /// order.
  std::vector<DeviceJobId> submit_batch(std::span<JobSpec> specs) {
    std::vector<DeviceJobId> ids;
    ids.reserve(specs.size());
    for (JobSpec& spec : specs) ids.push_back(submit(std::move(spec)));
    return ids;
  }
  /// Advance one scheduling round: service interrupts, drain outputs, issue
  /// the next pending instruction, tick the clock at least once.
  virtual void step() = 0;
  /// Advance the device clock to at least `target` (no-op if already
  /// there). The cycle-accurate backend really simulates the interval; an
  /// idle event-driven backend may jump. Workload pacing uses this to skip
  /// quiet gaps between arrivals without submitting early.
  virtual void advance_to(sim::Cycle target) = 0;
  virtual bool idle() const = 0;

  // -- lockstep quiet-burst seam ----------------------------------------------
  // A cycle-accurate backend can split step() into "run the controller's
  // scheduling round" (pump_round) and "advance the clock" (advance_quiet),
  // and can bound how many upcoming cycles are provably inert
  // (quiet_horizon). A fleet driver then pumps every device, takes the min
  // horizon across the fleet when no controller acted, and advances all
  // clocks by that stride — so a quiet span never lets an idle device's
  // clock race ahead of busy siblings. Clocks still differ wherever a
  // device's rounds ran control instructions (each runs to completion,
  // moving only that device's clock). The resulting trajectory, every
  // stamp included, is bit-identical to calling step() round by round.
  /// Opt-in flag; when false the driver just calls step() and the three
  /// methods below are never invoked.
  virtual bool supports_quiet_burst() const { return false; }
  /// Run one scheduling round, the part of step() before its closing
  /// tick. Control instructions are synchronous: each one the round issues
  /// runs to completion and advances the clock by its decode latency, so
  /// the round moves the clock whenever it issued one. Returns true when
  /// the controller did anything observable — the fleet must then advance
  /// by exactly one cycle so the action's consequences replay at the
  /// classic cadence.
  virtual bool pump_round() { return true; }
  /// After a round where no controller in the fleet acted: upper bound
  /// (capped at `cap`) on upcoming cycles during which this device is
  /// provably inert. 0 or 1 means "advance one real cycle".
  virtual sim::Cycle quiet_horizon(sim::Cycle /*cap*/) const { return 1; }
  /// Advance exactly `n` cycles; n must be 1 or <= the device's last
  /// reported quiet_horizon(). n == 1 is a real tick.
  virtual void advance_quiet(sim::Cycle n) {
    while (n-- > 0) step();
  }

  /// Live view of a job (partial until `complete`); nullptr if unknown or
  /// taken. The pointer is valid until the next submit, take_result() or
  /// forget() on this device.
  virtual const JobResult* result(DeviceJobId id) const = 0;
  /// Monotone count of jobs that have reached a final state — bumped no
  /// later than the moment result() first reports the job complete. The
  /// Engine polls this to skip scanning a device whose in-flight jobs
  /// cannot have finished since the last look; decorators that hide some
  /// completions may over-report (extra scans are merely wasted work) but
  /// must never under-report.
  virtual std::uint64_t completions() const = 0;
  /// The take-result seam: move a completed job's result out and drop the
  /// job's bookkeeping, so the caller owns the payload and tag buffers the
  /// device computed without copying them (the Engine delivers every result
  /// this way). nullopt, with nothing dropped, for a job that has not
  /// completed (it keeps running), was already taken or is unknown.
  virtual std::optional<JobResult> take_result(DeviceJobId id) = 0;
  /// Drop a completed job's bookkeeping and its result; a no-op for a job
  /// that has not completed.
  void forget(DeviceJobId id) { take_result(id); }

  // -- partial reconfiguration (paper SVII.B) ---------------------------------
  /// Begin swapping slot `slot` to `image` from `store`. The slot must be
  /// idle and not already reconfiguring; it is unavailable for the
  /// returned number of cycles and comes back with the new personality.
  /// nullopt = busy / already swapping / dead device. A submit
  /// whose mode needs an image no slot holds triggers this automatically
  /// when the device's auto_reconfig policy is on, and fails fast when it
  /// is off — it is never silently computed.
  virtual std::optional<std::uint64_t> begin_reconfiguration(std::size_t slot,
                                                             reconfig::CoreImage image,
                                                             reconfig::BitstreamStore store) = 0;

  // -- introspection ----------------------------------------------------------
  virtual sim::Cycle now() const = 0;
  /// The device's counters and flags, read in one call (see DeviceStats).
  virtual DeviceStats stats() const = 0;
};

}  // namespace mccp::host
