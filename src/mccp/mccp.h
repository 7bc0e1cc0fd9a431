// The Multi-Core Crypto-Processor top level (paper Fig. 1).
//
// One Task Scheduler (control-protocol state machine with the software
// latencies of timing.h), one Key Scheduler, one Cross Bar and N
// Cryptographic Cores connected in a ring through their inter-core shift
// registers. "MCCP architecture is scalable; the number of embedded
// crypto-cores may vary" — N is a constructor parameter (the paper
// implements four).
//
// Task mapping (SIII.C): packets go to the first idle core found, with no
// queueing — if no core is available the instruction returns an error flag
// and the communication controller retries. For CCM channels the scheduler
// can split a packet across two neighbouring cores (SIV.D) depending on the
// configured policy; SVII.A's Table II quantifies the trade-off.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/crypto_core.h"
#include "mccp/control.h"
#include "mccp/crossbar.h"
#include "mccp/key_store.h"
#include "reconfig/reconfig.h"
#include "sim/clocked.h"
#include "sim/trace.h"

namespace mccp::top {

/// How ENCRYPT/DECRYPT instructions map CCM packets onto cores (SIV.D rule:
/// "any single CCM packet can be processed with two Cryptographic Cores").
enum class CcmMapping : std::uint8_t {
  kSingleCore,     // always one core (Table II "1 core" / "4x1" rows)
  kPairPreferred,  // two adjacent idle cores when possible (Table II "2 cores")
  /// Extension of the SVII.A discussion ("designers should make scheduling
  /// choices according to system needs in terms of latency and/or
  /// throughput"): split across a pair while cores are plentiful (latency-
  /// optimal under light load), fall back to single-core mapping as the
  /// processor saturates (throughput-optimal under heavy load).
  kAdaptive,
};

struct MccpConfig {
  std::size_t num_cores = 4;
  CcmMapping ccm_mapping = CcmMapping::kSingleCore;
  /// Ablation knobs (bench/ablations): Task Scheduler software latency per
  /// control instruction, and whether the per-core Key Cache is honoured
  /// (disabling it forces a full round-key expansion on every request).
  int control_latency_cycles = -1;  // -1: use timing.h default
  bool key_cache_enabled = true;

  // -- partial reconfiguration (paper SVII.B) ---------------------------------
  /// Initial per-slot core personalities: slot i boots hosting
  /// slot_images[i]. Shorter than num_cores (or empty) = remaining slots
  /// host the AES image, the platform's power-on default.
  std::vector<reconfig::CoreImage> slot_images{};
  /// Where bitstreams are fetched from when the platform reconfigures a
  /// slot on its own (Table IV: RAM cache ~6x faster than CompactFlash).
  reconfig::BitstreamStore bitstream_store = reconfig::BitstreamStore::kRam;
  /// Policy for a request whose mode needs a core image no slot hosts:
  /// true = schedule a partial reconfiguration and serve the request once
  /// the swap lands; false = fail the request fast (no silent compute).
  bool auto_reconfig = true;
  /// Timescale compression for swap durations (see
  /// reconfig::scaled_reconfiguration_cycles); 1 = faithful Table IV.
  std::uint32_t reconfig_time_divisor = 1;
};

class Mccp final : public sim::Clocked {
 public:
  Mccp(const MccpConfig& config, const KeyMemory& keys);

  // -- control port (paper SIII.B: IR write, start, done, RR read) -----------
  void write_instruction(std::uint32_t instruction) { ir_ = instruction; }
  void pulse_start();
  bool instruction_done() const { return ctrl_state_ == CtrlState::kIdle; }
  std::uint8_t return_register() const { return rr_; }

  /// Data Available interrupt line to the communication controller.
  bool data_available() const { return !available_.empty(); }

  // -- data port ---------------------------------------------------------------
  CrossBar& crossbar() { return *crossbar_; }

  /// Information the communication controller needs to stream a request.
  struct RequestInfo {
    std::uint8_t id = 0;
    std::uint8_t channel = 0;
    bool decrypt = false;
    /// Core lanes in stream order: [single] or [ctr, mac] for split CCM.
    std::vector<std::size_t> lanes;
    bool split_ccm = false;
  };
  const RequestInfo* request_info(std::uint8_t id) const;

  // -- partial reconfiguration (paper SVII.B) -----------------------------------
  /// Begin swapping the algorithm image of core `core_idx` from `store`.
  /// The core must be idle; it is reserved for the duration of the
  /// bitstream transfer and comes back with the new personality. Returns
  /// the transfer time in cycles, or nullopt when the core is busy or
  /// already reconfiguring. Other cores keep working throughout.
  std::optional<std::uint64_t> begin_core_reconfiguration(std::size_t core_idx,
                                                          reconfig::CoreImage image,
                                                          reconfig::BitstreamStore store);
  bool core_reconfiguring(std::size_t core_idx) const {
    return reconfig_[core_idx].remaining > 0;
  }
  reconfig::CoreImage core_image(std::size_t core_idx) const {
    return reconfig_[core_idx].image;
  }
  /// Slots currently hosting `img` (swaps still in flight don't count).
  std::size_t cores_hosting(reconfig::CoreImage img) const;
  /// True when some slot hosts `img` or a running swap will land it — i.e.
  /// a request needing that personality will eventually be servable
  /// without scheduling anything new.
  bool image_acquirable(reconfig::CoreImage img) const;
  /// Swaps begun (each runs to completion; there is no cancel) + the
  /// slot-cycles they spend unavailable.
  std::uint64_t reconfigurations_done() const { return reconfigurations_done_; }
  std::uint64_t reconfig_stall_cycles() const { return reconfig_stall_cycles_; }
  /// Swaps that landed (or are landing) `img` specifically.
  std::uint64_t reconfigurations_to(reconfig::CoreImage img) const {
    return reconfig_to_[static_cast<std::size_t>(img)];
  }
  reconfig::BitstreamStore bitstream_store() const { return bitstream_store_; }
  bool auto_reconfig() const { return auto_reconfig_; }

  // -- introspection / statistics ----------------------------------------------
  std::size_t num_cores() const { return cores_.size(); }
  const core::CryptoCore& core(std::size_t i) const { return *cores_[i]; }
  const KeyScheduler& key_scheduler() const { return key_scheduler_; }
  std::uint64_t requests_completed() const { return requests_completed_; }
  std::uint64_t requests_rejected() const { return requests_rejected_; }
  std::size_t idle_core_count() const;
  sim::Trace& trace() { return trace_; }

  void tick() override;
  std::string name() const override { return "mccp"; }
  /// Cycles elapsed since construction: one per tick(), n per
  /// advance_quiet(n). The owning device's clock.
  sim::Cycle cycle() const { return cycle_; }

  /// Upcoming ticks (possibly 0) guaranteed to be pure latency chip-wide;
  /// capped at `budget` and at every countdown that lands inside the span.
  /// A device advances through this and advance_quiet(), or tick() when
  /// the horizon is below 2; a fleet driver takes the min across devices
  /// and advances them in lockstep.
  std::uint64_t quiet_horizon(std::uint64_t budget) const;
  /// Apply `n` quiet ticks in O(components); n <= quiet_horizon(...).
  void advance_quiet(std::uint64_t n);

 private:
  enum class CtrlState { kIdle, kDecoding, kWaitKeys };
  enum class ReqState { kStarting, kProcessing, kCompleted };

  struct Channel {
    ChannelMode mode;
    KeyId key_id;
    std::uint8_t tag_len;   // bytes
    std::uint8_t nonce_len; // bytes (CCM)
  };

  struct Request {
    RequestInfo info;
    ReqState state = ReqState::kStarting;
    std::vector<core::CoreTaskParams> core_params;  // parallel to info.lanes
    bool announced = false;  // Data Available already raised
    bool auth_ok = true;
    int done_scan_countdown = -1;
  };

  void execute_instruction();
  void exec_open(std::uint8_t a, std::uint8_t b, std::uint8_t c);
  void exec_close(std::uint8_t a);
  void exec_crypt(bool decrypt, std::uint8_t chan, std::uint8_t header_blocks,
                  std::uint8_t data_blocks);
  void exec_retrieve();
  void exec_transfer_done(std::uint8_t id);
  void finish(std::uint8_t rr);
  void try_finish_wait_keys();
  void scan_requests();
  std::optional<std::size_t> find_idle_core(cu::CuPersonality need) const;
  std::optional<std::pair<std::size_t, std::size_t>> find_idle_pair() const;
  void tick_reconfiguration();

  const KeyMemory* key_memory_;
  std::vector<std::unique_ptr<core::CryptoCore>> cores_;
  std::vector<bool> core_allocated_;
  KeyScheduler key_scheduler_;
  std::unique_ptr<CrossBar> crossbar_;
  CcmMapping ccm_mapping_;
  int control_latency_;

  // Control port state.
  std::uint32_t ir_ = 0;
  std::uint8_t rr_ = 0;
  CtrlState ctrl_state_ = CtrlState::kIdle;
  int ctrl_latency_ = 0;
  std::optional<std::uint8_t> starting_request_;  // id being set up in kWaitKeys

  std::map<std::uint8_t, Channel> channels_;
  std::map<std::uint8_t, Request> requests_;
  // Request-scan gate: scan_requests() can only act when a core's done
  // line rose since the last scan (the cores' summed tasks_completed()
  // moved), an encrypt request still waits for its first output word, or a
  // done-scan countdown is running. The last two are kept as counts,
  // updated where those request states change.
  std::uint64_t scanned_tasks_completed_ = 0;
  std::size_t unannounced_encrypts_ = 0;
  std::size_t done_countdowns_ = 0;
  std::deque<std::pair<std::uint8_t, bool>> available_;  // (request id, auth ok)

  struct CoreReconfigState {
    reconfig::CoreImage image = reconfig::CoreImage::kAesEncryptWithKs;
    reconfig::CoreImage target = reconfig::CoreImage::kAesEncryptWithKs;
    std::uint64_t remaining = 0;
  };
  std::vector<CoreReconfigState> reconfig_;
  /// Swaps begun and not yet landed: tick_reconfiguration() is O(1) at 0.
  std::size_t swaps_in_flight_ = 0;
  reconfig::BitstreamStore bitstream_store_;
  bool auto_reconfig_;
  std::uint32_t reconfig_time_divisor_;
  std::uint64_t reconfigurations_done_ = 0;
  std::uint64_t reconfig_stall_cycles_ = 0;
  std::uint64_t reconfig_to_[2] = {0, 0};  // indexed by CoreImage

  std::uint64_t cycle_ = 0;
  std::uint64_t requests_completed_ = 0;
  std::uint64_t requests_rejected_ = 0;
  sim::Trace trace_;
};

}  // namespace mccp::top
