// A Cryptographic Core (paper SIV, Fig. 2): an 8-bit controller, a
// Cryptographic Unit, two 512x32-bit FIFOs, an inter-core shift register
// port pair and a Key Cache of pre-computed round keys.
//
// The Task Scheduler drives a core by loading round keys into the key
// cache, writing packet parameters into the mailbox and pulsing start; the
// firmware dispatches on the algorithm ID, streams blocks between the FIFOs
// and the Cryptographic Unit, and reports a result code through the done
// port. On authentication failure the output FIFO is re-initialised before
// anything can be read back (SIV.C).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "core/params.h"
#include "crypto/aes.h"
#include "cu/cryptographic_unit.h"
#include "picoblaze/cpu.h"
#include "sim/clocked.h"
#include "sim/fifo.h"
#include "sim/shift_register.h"

namespace mccp::core {

class CryptoCore final : public sim::Clocked, private pb::IoBus {
 public:
  explicit CryptoCore(std::string name);

  // -- wiring ---------------------------------------------------------------
  sim::Fifo<std::uint32_t>& in_fifo() { return in_fifo_; }
  sim::Fifo<std::uint32_t>& out_fifo() { return out_fifo_; }
  const sim::Fifo<std::uint32_t>& in_fifo() const { return in_fifo_; }
  const sim::Fifo<std::uint32_t>& out_fifo() const { return out_fifo_; }
  /// Our outbound inter-core shift register (the downstream neighbour's
  /// inbound port).
  sim::ShiftRegister128& shift_out() { return shift_out_; }
  /// Connect the upstream neighbour's outbound register as our inbound port.
  void connect_shift_in(sim::ShiftRegister128* upstream);

  // -- Key Cache (written by the Key Scheduler; SIII.A) ----------------------
  void load_round_keys(const crypto::AesRoundKeys& keys);
  bool has_keys() const { return keys_.has_value(); }

  // -- partial reconfiguration (paper SVII.B) ---------------------------------
  /// Swap the Cryptographic Unit's algorithm image. The Task Scheduler (or
  /// a test) calls this when the modelled bitstream transfer completes; the
  /// core must be idle.
  void set_personality(cu::CuPersonality p);
  cu::CuPersonality personality() const { return cu_.personality(); }

  // -- task control (Task Scheduler interface) -------------------------------
  /// Write the parameter mailbox and pulse the start strobe. The core must
  /// be idle.
  void start_task(const CoreTaskParams& params);
  bool task_active() const { return task_active_; }
  /// A completed task's result stays latched until acknowledge_done().
  bool done_pending() const { return done_pending_; }
  CoreResult result() const { return result_; }
  void acknowledge_done() { done_pending_ = false; }
  bool idle() const { return !task_active_; }

  // -- Clocked ----------------------------------------------------------------
  void tick() override;
  std::string name() const override { return name_; }

  // -- batched stepping --------------------------------------------------------
  /// Sentinel for quiet_horizon(): no upcoming tick can act on its own.
  static constexpr std::uint64_t kQuietForever = cu::CryptographicUnit::kDormantForever;
  /// How many immediately upcoming tick()s this core is guaranteed to be
  /// quiet for — controller parked (no wake pending), Cryptographic Unit
  /// either idle or inside a time-gated stretch that touches no FIFO or
  /// shift-register port. Only valid when the caller can assert the core's
  /// surroundings are frozen for the span (idle crossbar, neighbours also
  /// quiet). 0 means the next cycle must go through tick().
  std::uint64_t quiet_horizon() const;
  /// Apply `n` quiet ticks in O(1); bit-identical to n tick() calls for any
  /// n <= quiet_horizon().
  void advance_quiet(std::uint64_t n);

  // -- statistics -------------------------------------------------------------
  std::uint64_t busy_cycles() const { return busy_cycles_; }
  std::uint64_t tasks_completed() const { return tasks_completed_; }
  const cu::CryptographicUnit& unit() const { return cu_; }
  const pb::Cpu& controller() const { return cpu_; }

 private:
  // pb::IoBus
  std::uint8_t read_port(std::uint8_t port) override;
  void write_port(std::uint8_t port, std::uint8_t value) override;

  std::string name_;
  sim::Fifo<std::uint32_t> in_fifo_{sim::kCoreFifoDepth};
  sim::Fifo<std::uint32_t> out_fifo_{sim::kCoreFifoDepth};
  sim::ShiftRegister128 shift_out_;
  sim::ShiftRegister128* shift_in_ = nullptr;
  pb::Cpu cpu_;
  cu::CryptographicUnit cu_;
  std::optional<crypto::AesRoundKeys> keys_;

  CoreTaskParams params_{};
  bool task_active_ = false;
  bool done_pending_ = false;
  CoreResult result_ = CoreResult::kOk;

  std::uint64_t busy_cycles_ = 0;
  std::uint64_t tasks_completed_ = 0;
};

}  // namespace mccp::core
