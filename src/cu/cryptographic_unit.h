// The Cryptographic Unit (paper SV, Fig. 3).
//
// A 32-bit datapath over 128-bit words: 4 x 128-bit bank register with a
// 2-bit sub-word counter, an instruction decoder with start flag, and the
// processing cores — iterative AES (encrypt-only), digit-serial GHASH,
// XOR/comparator with byte mask, 16-bit INC, and the 32-bit I/O core that
// talks to the core FIFOs and the inter-core shift registers.
//
// The unit accepts one 8-bit instruction at a time from the 8-bit
// controller; one extra instruction may be latched while the current one
// executes (the firmware's NOP spacing keeps this within bounds — a third
// write is a firmware bug and throws). AES and GHASH run in the background
// between their start (SAES/SGFM) and finalize (FAES/FGFM) instructions.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "common/bytes.h"
#include "crypto/aes.h"
#include "crypto/gf128.h"
#include "cu/isa.h"
#include "sim/clocked.h"
#include "sim/fifo.h"
#include "sim/shift_register.h"

namespace mccp::cu {

class CryptographicUnit final : public sim::Clocked {
 public:
  struct Ports {
    sim::Fifo<std::uint32_t>* in_fifo = nullptr;
    sim::Fifo<std::uint32_t>* out_fifo = nullptr;
    sim::ShiftRegister128* shift_in = nullptr;   // upstream neighbour's output
    sim::ShiftRegister128* shift_out = nullptr;  // our output register
  };

  CryptographicUnit(std::string name, Ports ports)
      : name_(std::move(name)), ports_(ports) {}

  /// Round keys come from the core's Key Cache (pre-computed by the Key
  /// Scheduler); the unit never sees the session key itself.
  void set_round_keys(const crypto::AesRoundKeys* keys) { keys_ = keys; }

  /// 16-bit byte mask for the XOR result: bit k keeps byte k (bit 0 = most
  /// significant byte). The controller programs it through two 8-bit ports.
  void set_mask(std::uint16_t mask) { mask_ = mask; }
  std::uint16_t mask() const { return mask_; }

  /// Called (done signal) whenever an instruction completes.
  void set_done_callback(std::function<void()> cb) { done_cb_ = std::move(cb); }

  /// Late wiring of the inbound inter-core port (the upstream neighbour's
  /// outbound shift register, connected when the MCCP assembles the ring).
  void set_shift_in(sim::ShiftRegister128* upstream) { ports_.shift_in = upstream; }

  /// Start an instruction (the controller's OUTPUT write strobe). Throws if
  /// both the execution slot and the one-deep latch are occupied.
  void start(std::uint8_t instr);

  bool busy() const { return current_.has_value() || pending_.has_value(); }
  bool equ_flag() const { return equ_; }
  bool aes_running() const { return aes_valid_ && cycle_ < aes_ready_; }
  bool ghash_running() const { return cycle_ < ghash_free_; }

  /// Full reset (packet boundary / reconfiguration).
  void reset();

  /// Partial reconfiguration: swap the algorithm personality of the slot
  /// (paper SVII.B). Resets all datapath state; rejects a swap while an
  /// instruction is in flight.
  void set_personality(CuPersonality p);
  CuPersonality personality() const { return personality_; }

  // Clocked
  void tick() override;
  std::string name() const override { return name_; }

  // -- dormancy fast-forward (cycle-accurate batched stepping) ----------------
  /// Returned by dormant_cycles() when no upcoming tick can ever interact
  /// externally under the queried assumptions.
  static constexpr std::uint64_t kDormantForever = ~0ull;
  /// How many immediately upcoming tick()s are guaranteed to be pure
  /// latency — touching no FIFO or shift-register port. Time-gated waits
  /// (the AES/GHASH/Whirlpool horizons) and execute countdowns are counted
  /// through their completion when the instruction's effect is internal
  /// (bank writes); 0 means the next tick may interact. With
  /// `external_frozen` the caller asserts nothing external can change
  /// (idle crossbar, parked neighbours), so an unsatisfiable port wait
  /// (LOAD on an empty FIFO, ...) counts as dormant forever.
  std::uint64_t dormant_cycles(bool external_frozen = false) const;
  /// Apply `n` ticks in O(1). Only valid for n <= dormant_cycles(...); the
  /// resulting state (cycle counter, horizons, bank writes, done pulses)
  /// is bit-identical to calling tick() n times.
  void advance_dormant(std::uint64_t n);

  // Introspection for tests and the reconfiguration model.
  const Block128& bank(unsigned i) const { return bank_[i & 3]; }
  void debug_set_bank(unsigned i, const Block128& v) { bank_[i & 3] = v; }
  std::uint64_t ops_executed() const { return ops_executed_; }
  std::uint64_t aes_blocks() const { return aes_blocks_; }
  std::uint64_t ghash_blocks() const { return ghash_blocks_; }
  std::uint64_t whirlpool_blocks() const { return whirlpool_blocks_; }

 private:
  struct Inflight {
    CuOp op;
    unsigned a;
    unsigned b;
    bool waiting = true;
    int exec_remaining = 0;
  };

  bool wait_satisfied(const Inflight& f) const;
  /// Ops whose completion reads or writes a FIFO / shift-register port.
  static bool touches_ports(CuOp op);
  /// For a waiting instruction: the upcoming tick (1-based) at which the
  /// wait clears and begin() runs, when that is decidable from internal
  /// state alone (the time-gated AES/GHASH/Whirlpool horizons and the
  /// trivially-satisfied waits). nullopt for port-gated waits and the
  /// FAES-without-SAES deadlock.
  std::optional<std::uint64_t> wait_clear_tick(const Inflight& f) const;
  int exec_cycles(CuOp op) const;
  void begin(Inflight& f);    // called when the wait clears
  void complete(Inflight& f); // architectural effect + done pulse

  std::string name_;
  Ports ports_;
  const crypto::AesRoundKeys* keys_ = nullptr;
  std::function<void()> done_cb_;

  std::array<Block128, 4> bank_{};
  std::uint16_t mask_ = 0xFFFF;
  bool equ_ = false;

  // Background AES state.
  bool aes_valid_ = false;       // a result is (or will be) available
  std::uint64_t aes_ready_ = 0;  // absolute cycle the result becomes valid
  Block128 aes_result_{};

  // Background GHASH state.
  Block128 ghash_h_{};
  Block128 ghash_y_{};
  std::uint64_t ghash_free_ = 0;  // absolute cycle the multiplier is free
  /// Shoup-table accelerator for the functional product, keyed on
  /// ghash_h_ and revalidated lazily at each SGFM (pure software-speed
  /// cache: no architectural state, deliberately NOT touched by reset()).
  crypto::Gf128Table ghash_table_{};

  // Whirlpool personality state (after partial reconfiguration).
  CuPersonality personality_ = CuPersonality::kAes;
  std::array<std::uint8_t, 64> wp_chain_{};
  std::uint64_t wp_free_ = 0;  // absolute cycle the compressor is free

  std::optional<Inflight> current_;
  std::optional<std::uint8_t> pending_;
  std::uint64_t cycle_ = 0;

  std::uint64_t ops_executed_ = 0;
  std::uint64_t aes_blocks_ = 0;
  std::uint64_t ghash_blocks_ = 0;
  std::uint64_t whirlpool_blocks_ = 0;
};

}  // namespace mccp::cu
