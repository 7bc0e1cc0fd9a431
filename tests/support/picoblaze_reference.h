// Decode-per-execute PicoBlaze reference interpreter, kept only as a test
// oracle for the predecoded `pb::Cpu`. It keeps its own architectural state
// (registers, flags, saved flags, stack, scratchpad, pc, halt/wake/IRQ
// lines) and its own fetch: the instruction word is read from the raw image
// every fetch cycle and every field is extracted again on every execute, so
// IRQ vectoring, fetch and dispatch are all checked independently of the
// cached path. Timing follows the same contract as cpu.h: two cycles per
// instruction, IRQs taken at fetch boundaries only, HALT parked until a
// (sticky) wake pulse.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "picoblaze/cpu.h"
#include "picoblaze/isa.h"

namespace mccp::testing {

class ReferenceCpu {
 public:
  explicit ReferenceCpu(pb::IoBus& bus) : bus_(&bus) { reset(); }

  void load_program(std::span<const pb::Word> image) {
    if (image.size() > pb::kImemWords)
      throw std::length_error("ReferenceCpu::load_program: image exceeds 1024 words");
    imem_.fill(pb::encode(pb::Opcode::kNop, 0, 0));
    for (std::size_t i = 0; i < image.size(); ++i) imem_[i] = image[i];
    reset();
  }

  void reset() {
    regs_.fill(0);
    scratch_.fill(0);
    stack_.clear();
    pc_ = 0;
    zero_ = carry_ = false;
    saved_zero_ = saved_carry_ = false;
    int_enable_ = false;
    halted_ = false;
    wake_pending_ = false;
    irq_pending_ = false;
    fetch_phase_ = true;
    current_ = 0;
    retired_ = 0;
  }

  void wake() { wake_pending_ = true; }
  void request_interrupt() { irq_pending_ = true; }
  bool halted() const { return halted_; }
  bool wake_pending() const { return wake_pending_; }

  void tick() {
    if (halted_) {
      if (wake_pending_) {
        halted_ = false;
        wake_pending_ = false;
        fetch_phase_ = true;
      }
      return;
    }
    if (fetch_phase_) {
      if (irq_pending_ && int_enable_) {
        irq_pending_ = false;
        int_enable_ = false;
        saved_zero_ = zero_;
        saved_carry_ = carry_;
        push(pc_);
        pc_ = pb::kInterruptVector;
      }
      current_ = imem_[pc_ & (pb::kImemWords - 1)];
      pc_ = static_cast<std::uint16_t>((pc_ + 1) & (pb::kImemWords - 1));
      fetch_phase_ = false;
    } else {
      execute(current_);
      ++retired_;
      fetch_phase_ = true;
    }
  }

  std::uint8_t reg(unsigned i) const { return regs_[i & 0xF]; }
  void set_reg(unsigned i, std::uint8_t v) { regs_[i & 0xF] = v; }
  std::uint16_t pc() const { return pc_; }
  bool zero_flag() const { return zero_; }
  bool carry_flag() const { return carry_; }
  std::uint64_t instructions_retired() const { return retired_; }
  std::uint8_t scratch(unsigned addr) const { return scratch_[addr % pb::kScratchpadBytes]; }
  const std::vector<std::uint16_t>& stack() const { return stack_; }
  bool interrupts_enabled() const { return int_enable_; }

 private:
  void push(std::uint16_t addr) {
    if (stack_.size() >= pb::kStackDepth) throw std::runtime_error("PicoBlaze stack overflow");
    stack_.push_back(addr);
  }

  void alu_writeback(unsigned sx, std::uint16_t wide) {
    const std::uint8_t result = static_cast<std::uint8_t>(wide & 0xFF);
    regs_[sx] = result;
    zero_ = (result == 0);
    carry_ = (wide & 0x100) != 0;
  }

  void execute(pb::Word w) {
    using pb::Opcode;
    using pb::ShiftOp;
    const Opcode op = pb::opcode_of(w);
    const unsigned sx = pb::field_sx(w);
    const std::uint8_t imm = static_cast<std::uint8_t>(pb::field_imm(w));
    const std::uint8_t ry = regs_[pb::field_sy(w)];
    const std::uint16_t addr = static_cast<std::uint16_t>(pb::field_addr(w));
    const unsigned cin = carry_ ? 1 : 0;

    auto logical = [&](std::uint8_t r) {
      regs_[sx] = r;
      zero_ = (r == 0);
      carry_ = false;  // KCPSM3 clears carry on logical ops
    };

    switch (op) {
      case Opcode::kLoadK: regs_[sx] = imm; break;  // LOAD does not affect flags
      case Opcode::kLoadR: regs_[sx] = ry; break;
      case Opcode::kAndK: logical(regs_[sx] & imm); break;
      case Opcode::kAndR: logical(regs_[sx] & ry); break;
      case Opcode::kOrK: logical(regs_[sx] | imm); break;
      case Opcode::kOrR: logical(regs_[sx] | ry); break;
      case Opcode::kXorK: logical(regs_[sx] ^ imm); break;
      case Opcode::kXorR: logical(regs_[sx] ^ ry); break;

      case Opcode::kAddK: alu_writeback(sx, static_cast<std::uint16_t>(regs_[sx] + imm)); break;
      case Opcode::kAddR: alu_writeback(sx, static_cast<std::uint16_t>(regs_[sx] + ry)); break;
      case Opcode::kAddcyK:
        alu_writeback(sx, static_cast<std::uint16_t>(regs_[sx] + imm + cin));
        break;
      case Opcode::kAddcyR:
        alu_writeback(sx, static_cast<std::uint16_t>(regs_[sx] + ry + cin));
        break;
      case Opcode::kSubK: alu_writeback(sx, static_cast<std::uint16_t>(regs_[sx] - imm)); break;
      case Opcode::kSubR: alu_writeback(sx, static_cast<std::uint16_t>(regs_[sx] - ry)); break;
      case Opcode::kSubcyK:
        alu_writeback(sx, static_cast<std::uint16_t>(regs_[sx] - imm - cin));
        break;
      case Opcode::kSubcyR:
        alu_writeback(sx, static_cast<std::uint16_t>(regs_[sx] - ry - cin));
        break;

      case Opcode::kCompareK:
      case Opcode::kCompareR: {
        const std::uint16_t r = static_cast<std::uint16_t>(
            regs_[sx] - (op == Opcode::kCompareK ? imm : ry));
        zero_ = ((r & 0xFF) == 0);
        carry_ = (r & 0x100) != 0;
        break;
      }

      case Opcode::kInputP: regs_[sx] = bus_->read_port(imm); break;
      case Opcode::kInputR: regs_[sx] = bus_->read_port(ry); break;
      case Opcode::kOutputP: bus_->write_port(imm, regs_[sx]); break;
      case Opcode::kOutputR: bus_->write_port(ry, regs_[sx]); break;

      case Opcode::kStoreS: scratch_[imm % pb::kScratchpadBytes] = regs_[sx]; break;
      case Opcode::kStoreR: scratch_[ry % pb::kScratchpadBytes] = regs_[sx]; break;
      case Opcode::kFetchS: regs_[sx] = scratch_[imm % pb::kScratchpadBytes]; break;
      case Opcode::kFetchR: regs_[sx] = scratch_[ry % pb::kScratchpadBytes]; break;

      case Opcode::kShift: {
        std::uint8_t r = regs_[sx];
        const bool old_carry = carry_;
        switch (static_cast<ShiftOp>(imm)) {
          case ShiftOp::kSl0: carry_ = r & 0x80; r = static_cast<std::uint8_t>(r << 1); break;
          case ShiftOp::kSl1: carry_ = r & 0x80; r = static_cast<std::uint8_t>((r << 1) | 1); break;
          case ShiftOp::kSlx:
            carry_ = r & 0x80;
            r = static_cast<std::uint8_t>((r << 1) | (r & 1));
            break;
          case ShiftOp::kSla:
            carry_ = r & 0x80;
            r = static_cast<std::uint8_t>((r << 1) | (old_carry ? 1 : 0));
            break;
          case ShiftOp::kRl:
            carry_ = r & 0x80;
            r = static_cast<std::uint8_t>((r << 1) | (r >> 7));
            break;
          case ShiftOp::kSr0: carry_ = r & 1; r = static_cast<std::uint8_t>(r >> 1); break;
          case ShiftOp::kSr1: carry_ = r & 1; r = static_cast<std::uint8_t>((r >> 1) | 0x80); break;
          case ShiftOp::kSrx:
            carry_ = r & 1;
            r = static_cast<std::uint8_t>((r >> 1) | (r & 0x80));
            break;
          case ShiftOp::kSra:
            carry_ = r & 1;
            r = static_cast<std::uint8_t>((r >> 1) | (old_carry ? 0x80 : 0));
            break;
          case ShiftOp::kRr:
            carry_ = r & 1;
            r = static_cast<std::uint8_t>((r >> 1) | (r << 7));
            break;
          default: throw std::runtime_error("PicoBlaze: bad shift sub-op");
        }
        regs_[sx] = r;
        zero_ = (r == 0);
        break;
      }

      case Opcode::kJump: pc_ = addr; break;
      case Opcode::kJumpZ: if (zero_) pc_ = addr; break;
      case Opcode::kJumpNz: if (!zero_) pc_ = addr; break;
      case Opcode::kJumpC: if (carry_) pc_ = addr; break;
      case Opcode::kJumpNc: if (!carry_) pc_ = addr; break;

      case Opcode::kCall:
      case Opcode::kCallZ:
      case Opcode::kCallNz:
      case Opcode::kCallC:
      case Opcode::kCallNc:
        if (condition_holds(op, Opcode::kCall)) {
          push(pc_);
          pc_ = addr;
        }
        break;

      case Opcode::kReturn:
      case Opcode::kReturnZ:
      case Opcode::kReturnNz:
      case Opcode::kReturnC:
      case Opcode::kReturnNc:
        if (condition_holds(op, Opcode::kReturn)) {
          if (stack_.empty()) throw std::runtime_error("PicoBlaze stack underflow");
          pc_ = stack_.back();
          stack_.pop_back();
        }
        break;

      case Opcode::kReturniEnable:
      case Opcode::kReturniDisable:
        if (stack_.empty()) throw std::runtime_error("PicoBlaze RETURNI with empty stack");
        pc_ = stack_.back();
        stack_.pop_back();
        zero_ = saved_zero_;
        carry_ = saved_carry_;
        int_enable_ = (op == Opcode::kReturniEnable);
        break;

      case Opcode::kEnableInt: int_enable_ = true; break;
      case Opcode::kDisableInt: int_enable_ = false; break;

      case Opcode::kHalt: halted_ = true; break;
      case Opcode::kNop: break;

      default: throw std::runtime_error("PicoBlaze: illegal opcode");
    }
  }

  /// Condition of a CALL/RETURN family member, laid out as the
  /// unconditional form followed by Z, NZ, C, NC.
  bool condition_holds(pb::Opcode op, pb::Opcode family) const {
    switch (static_cast<int>(op) - static_cast<int>(family)) {
      case 0: return true;
      case 1: return zero_;
      case 2: return !zero_;
      case 3: return carry_;
      default: return !carry_;
    }
  }

  pb::IoBus* bus_;
  std::array<pb::Word, pb::kImemWords> imem_{};
  std::array<std::uint8_t, pb::kNumRegisters> regs_{};
  std::array<std::uint8_t, pb::kScratchpadBytes> scratch_{};
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
  pb::Word current_ = 0;
  std::uint64_t retired_ = 0;
};

}  // namespace mccp::testing
