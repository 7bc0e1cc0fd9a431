// Cycle-accurate model of the modified PicoBlaze controller.
//
// Every instruction takes exactly 2 clock cycles (fetch tick + execute
// tick), as in the paper. Port I/O goes through an IoBus the embedding
// module provides; the custom HALT instruction parks the CPU until wake()
// is pulsed (the Cryptographic Unit's done signal, or the Task Scheduler's
// start strobe).
//
// HALT / interrupt contract (KCPSM-style, pinned by tests):
//   - HALT parks the controller until wake() — and only wake(). A pending
//     interrupt request does NOT resume a halted CPU, even with interrupts
//     enabled: the IRQ line is sampled at instruction *fetch* boundaries,
//     and a parked CPU fetches nothing. The request stays asserted and is
//     taken at the first fetch after the wake pulse, before the
//     instruction following HALT executes.
//   - Wake pulses are sticky: a wake() arriving before the HALT executes
//     makes the HALT fall through immediately instead of sleeping forever.
//
// Execution: `load_program` predecodes all 1024 instruction words into a
// dense DecodedOp table, and `tick()` — the controller's one execution
// path — dispatches on a flat enum with no field extraction. Its test
// oracle is a standalone decode-per-execute interpreter
// (tests/support/picoblaze_reference.h) that the differential fuzz suite
// steps in lockstep against tick().
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "picoblaze/isa.h"
#include "sim/clocked.h"

namespace mccp::pb {

/// Port-mapped I/O seen by the controller. INPUT/OUTPUT instructions call
/// straight into the embedding component (FIFO status registers, CU
/// instruction port, parameter mailbox, ...).
class IoBus {
 public:
  virtual ~IoBus() = default;
  virtual std::uint8_t read_port(std::uint8_t port) = 0;
  virtual void write_port(std::uint8_t port, std::uint8_t value) = 0;
};

class Cpu final : public sim::Clocked {
 public:
  Cpu(std::string name, IoBus& bus) : name_(std::move(name)), bus_(&bus) { reset(); }

  /// Load a program image (words beyond the image are NOPs). The paper's
  /// instruction memory is one FPGA block RAM of 1024 x 18-bit words,
  /// dual-ported so two neighbouring cores can share it. Decodes the whole
  /// image into the dispatch table once.
  void load_program(std::span<const Word> image);

  /// Architectural reset: registers, scratchpad, stack, flags, pc and the
  /// retired-instruction counter all restart from zero. The decoded
  /// program is preserved.
  void reset();

  // -- control/status lines ------------------------------------------------
  /// Pulse the wake line (CU done signal); resumes a HALTed CPU.
  void wake() { wake_pending_ = true; }
  /// Assert the interrupt request line. Held until taken; never wakes a
  /// halted CPU (see the contract above).
  void request_interrupt() { irq_pending_ = true; }
  bool halted() const { return halted_; }
  bool wake_pending() const { return wake_pending_; }

  // -- Clocked --------------------------------------------------------------
  void tick() override;
  std::string name() const override { return name_; }

  // -- introspection for tests ----------------------------------------------
  std::uint8_t reg(unsigned i) const { return regs_[i & 0xF]; }
  void set_reg(unsigned i, std::uint8_t v) { regs_[i & 0xF] = v; }
  std::uint16_t pc() const { return pc_; }
  bool zero_flag() const { return zero_; }
  bool carry_flag() const { return carry_; }
  std::uint64_t instructions_retired() const { return retired_; }
  std::uint8_t scratch(unsigned addr) const { return scratch_[addr % kScratchpadBytes]; }
  const std::vector<std::uint16_t>& stack() const { return stack_; }
  bool interrupts_enabled() const { return int_enable_; }

 private:
  /// Dense post-decode opcode tags: one per ALU/flow variant, with the
  /// shift sub-op folded in so execution is a single flat switch.
  enum class Exec : std::uint8_t {
    kLoadK, kLoadR, kAndK, kAndR, kOrK, kOrR, kXorK, kXorR,
    kAddK, kAddR, kAddcyK, kAddcyR, kSubK, kSubR, kSubcyK, kSubcyR,
    kCompareK, kCompareR,
    kInputP, kInputR, kOutputP, kOutputR,
    kStoreS, kStoreR, kFetchS, kFetchR,
    kSl0, kSl1, kSlx, kSla, kRl, kSr0, kSr1, kSrx, kSra, kRr, kBadShift,
    kJump, kJumpZ, kJumpNz, kJumpC, kJumpNc,
    kCall, kCallZ, kCallNz, kCallC, kCallNc,
    kReturn, kReturnZ, kReturnNz, kReturnC, kReturnNc,
    kReturniEnable, kReturniDisable,
    kEnableInt, kDisableInt, kHalt, kNop, kIllegal,
  };

  /// One predecoded instruction word: tag + extracted fields (scratchpad
  /// immediates are pre-reduced modulo the pad size).
  struct DecodedOp {
    Exec kind = Exec::kLoadK;  // decode of the all-zero word
    std::uint8_t sx = 0;
    std::uint8_t sy = 0;
    std::uint8_t imm = 0;
    std::uint16_t addr = 0;
  };

  static DecodedOp decode_word(Word w);

  /// One fetch cycle (including IRQ vectoring at the instruction boundary).
  void fetch_cycle();
  /// Execute the current decoded op.
  void exec_decoded(const DecodedOp& d);

  std::string name_;
  IoBus* bus_;
  std::array<DecodedOp, kImemWords> dops_{};
  std::array<std::uint8_t, kNumRegisters> regs_{};
  std::array<std::uint8_t, kScratchpadBytes> scratch_{};
  std::vector<std::uint16_t> stack_;
  std::uint16_t pc_ = 0;
  bool zero_ = false;
  bool carry_ = false;
  bool saved_zero_ = false;
  bool saved_carry_ = false;
  bool int_enable_ = false;
  bool halted_ = false;
  bool wake_pending_ = false;
  bool irq_pending_ = false;
  bool fetch_phase_ = true;  // true: fetch tick, false: execute tick
  const DecodedOp* dcur_ = nullptr;  // op fetched for the next execute tick
  std::uint64_t retired_ = 0;
};

}  // namespace mccp::pb
