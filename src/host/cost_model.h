// Calibrated cycle-cost model for the functional `host::FastDevice` backend.
//
// FastDevice computes packet results with the optimized software kernels
// (T-table AES, table-driven GHASH) instead of pumping the cycle-accurate
// simulator, but its clock must still advance the way an MCCP's would so
// that `Engine` stats, per-channel latency and throughput accounting stay
// meaningful. This header is that clock model: it combines
//
//   * the Cryptographic Unit datapath constants of cu/timing.h
//     (I/O beats, SAES/FAES split, XOR, GHASH background latency), and
//   * the steady-state loop periods measured on the simulated cores
//     (tests/core/loop_timing_test.cpp):
//         T_GCMloop = T_CTR = 49     cycles per 128-bit block
//         T_CBC     = T_CCM2 = 55
//         T_CCM1    = 104            (CTR + CBC interleaved on one core)
//     each +8 per loop term for 192-bit keys, +16 for 256-bit, and
//   * the MCCP top-level overheads of mccp/timing.h (Task Scheduler
//     control latency, done polling, Key Scheduler expansion).
//
// The per-packet fixed terms below were calibrated against SimDevice
// end-to-end packet makespans (see FastDeviceCalibration in
// tests/host/fast_device_test.cpp, which bounds the model error).
#pragma once

#include "crypto/aes.h"
#include "crypto/ccm.h"
#include "cu/timing.h"
#include "mccp/control.h"
#include "mccp/timing.h"
#include "reconfig/reconfig.h"
#include "sim/clocked.h"

namespace mccp::host {

/// Steady-state cycles per 128-bit payload block for a 128-bit key
/// (paper SVII.A, locked by tests/core/loop_timing_test.cpp).
inline constexpr int kGcmLoopCycles = 49;   // T_SAES + T_FAES
inline constexpr int kCtrLoopCycles = 49;
inline constexpr int kCbcLoopCycles = 55;   // + T_XOR (serial in the chain)
inline constexpr int kCcm1LoopCycles = 104; // T_CTR + T_CBC on one core

/// GHASH-only absorption of one block (AAD / length block): SGFM operand
/// load plus the 43-cycle digit-serial background multiply.
inline constexpr int kGhashBlockCycles = cu::kStartCycles + cu::kGhashCycles;  // 47

/// Measured per-block header costs: a GCM AAD block's SGFM absorb overlaps
/// the next block's I/O (7 cycles cheaper than the standalone figure); a
/// CCM AAD block pays extra beats interleaving with the payload stream.
inline constexpr int kGcmAadBlockCycles = kGhashBlockCycles - cu::kIoCycles;  // 40
inline constexpr int kCcmAadBlockCycles = kCbcLoopCycles + 14;                // 69

/// Extra cycles per AES pass for longer keys (52/60 vs 44-cycle core).
constexpr int key_adder(crypto::AesKeySize ks) {
  return crypto::aes_core_cycles(ks) - crypto::aes_core_cycles(crypto::AesKeySize::k128);
}

/// Core occupancy of one packet's computation, per lane. `blocks` counts
/// 16-byte payload blocks (rounded up), `aad_blocks` the formatted header
/// blocks that only pass through the authentication path.
struct ComputeCost {
  sim::Cycle lane0 = 0;  // payload lane (CTR lane for split CCM)
  sim::Cycle lane1 = 0;  // MAC lane for split CCM; 0 = single-lane packet
};

/// Fixed per-packet datapath terms (IV/counter ingest, J0/tag AES passes,
/// pipeline fill/drain). Derived from cu/timing.h and trimmed against the
/// measured SimDevice packet makespans.
inline constexpr int kGcmFixedCycles =
    cu::kIoCycles +                                        // J0 ingest
    crypto::aes_core_cycles(crypto::AesKeySize::k128) +    // E(K, J0) for the tag mask
    cu::kFinalizeCycles + kGhashBlockCycles +              // length block absorb
    crypto::aes_core_cycles(crypto::AesKeySize::k128) +    // first keystream fill
    cu::kXorCycles + cu::kIoCycles;                        // tag XOR + shift-out
inline constexpr int kCcmFixedCycles =
    2 * cu::kIoCycles +                                    // CTR1 + B0 ingest
    crypto::aes_core_cycles(crypto::AesKeySize::k128) +    // E(K, CTR0) tag keystream
    crypto::aes_core_cycles(crypto::AesKeySize::k128) +    // pipeline fill
    cu::kXorCycles + cu::kIoCycles;                        // tag XOR + shift-out
inline constexpr int kCtrFixedCycles =
    cu::kIoCycles + crypto::aes_core_cycles(crypto::AesKeySize::k128);
inline constexpr int kCbcFixedCycles =
    crypto::aes_core_cycles(crypto::AesKeySize::k128) + cu::kIoCycles;  // fill + tag out
inline constexpr int kWhirlpoolFixedCycles = cu::kIoCycles;

/// Whirlpool: one 512-bit block = four 128-bit ingest transfers plus the
/// modelled 108-cycle compression.
inline constexpr int kWhirlpoolBlockCycles = cu::kWhirlpoolCycles + 4 * cu::kIoCycles;

/// Per-mode calibration residuals: the measured, size- and key-independent
/// gap between the itemized terms above and SimDevice's end-to-end packet
/// occupancy (interrupt service, GHASH drain, subkey derivation and other
/// overlap effects not worth itemizing). Values from the two-packet
/// steady-state measurements in tests/host/fast_device_test.cpp, which
/// lock the calibration within a few percent.
inline constexpr int kGcmResidualCycles = 174;
inline constexpr int kCtrResidualCycles = 9;
inline constexpr int kCbcResidualCycles = 58;
inline constexpr int kCcm1ResidualCycles = 59;
inline constexpr int kCcm2ResidualCycles = -37;

/// Formatted header (AAD) blocks of a packet, as the communication
/// controller streams them: GCM pads the AAD to whole blocks, CCM
/// prefixes its length encoding first, and no other mode has a header.
constexpr std::size_t header_blocks(top::ChannelMode mode, std::size_t aad_len) {
  switch (mode) {
    case top::ChannelMode::kGcm: return (aad_len + 15) / 16;
    case top::ChannelMode::kCcm: return crypto::ccm_aad_blocks(aad_len);
    default: return 0;
  }
}

/// Compute-lane occupancy for one packet. `aad_blocks` counts formatted
/// header blocks (padded AAD for GCM; length-encoded, padded AAD for CCM —
/// the B0 block is charged internally).
///
/// `split_ccm` selects the paper's two-core CCM mapping (SIV.D): the CTR
/// lane runs at the CTR slope while the MAC lane carries B0 + encoded AAD +
/// payload at the CBC slope.
constexpr ComputeCost packet_compute_cycles(top::ChannelMode mode, crypto::AesKeySize ks,
                                            std::size_t aad_blocks, std::size_t payload_blocks,
                                            bool split_ccm) {
  const int adder = key_adder(ks);
  auto lane = [](std::int64_t cycles) {
    return static_cast<sim::Cycle>(cycles < 0 ? 0 : cycles);
  };
  const std::int64_t aadb = static_cast<std::int64_t>(aad_blocks);
  const std::int64_t pb = static_cast<std::int64_t>(payload_blocks);
  ComputeCost c;
  switch (mode) {
    case top::ChannelMode::kGcm:
      c.lane0 = lane(kGcmFixedCycles + 2 * adder + kGcmResidualCycles +
                     aadb * kGcmAadBlockCycles + pb * (kGcmLoopCycles + adder));
      break;
    case top::ChannelMode::kCcm: {
      if (split_ccm) {
        c.lane0 = lane(kCtrFixedCycles + adder + kCcm2ResidualCycles +
                       pb * (kCtrLoopCycles + adder));
        c.lane1 = lane(kCcmFixedCycles + 2 * adder + kCcm2ResidualCycles +
                       (1 + aadb) * (kCbcLoopCycles + adder) + pb * (kCbcLoopCycles + adder));
      } else {
        c.lane0 = lane(kCcmFixedCycles + 2 * adder + kCcm1ResidualCycles +
                       (kCbcLoopCycles + adder) + aadb * (kCcmAadBlockCycles + adder) +
                       pb * (kCcm1LoopCycles + 2 * adder));
      }
      break;
    }
    case top::ChannelMode::kCtr:
      c.lane0 = lane(kCtrFixedCycles + adder + kCtrResidualCycles +
                     pb * (kCtrLoopCycles + adder));
      break;
    case top::ChannelMode::kCbcMac:
      c.lane0 = lane(kCbcFixedCycles + adder + kCbcResidualCycles +
                     pb * (kCbcLoopCycles + adder));
      break;
    case top::ChannelMode::kWhirlpool:
      c.lane0 = lane(kWhirlpoolFixedCycles + pb * kWhirlpoolBlockCycles);
      break;
  }
  return c;
}

/// Control-protocol latency before a packet is accepted: one ENCRYPT/
/// DECRYPT instruction through the 4-step protocol (plus the start pulse).
constexpr sim::Cycle accept_control_cycles(int control_latency_cycles) {
  const int per_instruction =
      control_latency_cycles >= 0 ? control_latency_cycles : top::kControlLatencyCycles;
  return static_cast<sim::Cycle>(per_instruction + 1);
}

/// Slot occupancy of a partial reconfiguration (paper SVII.B): the
/// bitstream-transfer time of reconfig/'s Table IV model, compressed by
/// the configured divisor. Identical to what the simulated scheduler
/// charges (Mccp::begin_core_reconfiguration goes through the same
/// function), so the two backends' swap timelines agree cycle for cycle.
inline sim::Cycle reconfiguration_occupancy_cycles(reconfig::CoreImage image,
                                                   reconfig::BitstreamStore store,
                                                   std::uint32_t time_divisor) {
  return static_cast<sim::Cycle>(
      reconfig::scaled_reconfiguration_cycles(image, store, time_divisor));
}

/// Control-protocol overhead after the cores finish: the done-poll delay,
/// then RETRIEVE_DATA and TRANSFER_DONE through the 4-step protocol.
constexpr sim::Cycle retire_control_cycles(int control_latency_cycles) {
  const int per_instruction =
      control_latency_cycles >= 0 ? control_latency_cycles : top::kControlLatencyCycles;
  return static_cast<sim::Cycle>(2 * per_instruction + top::kDoneScanCycles);
}

}  // namespace mccp::host
