#include "picoblaze/cpu.h"

#include <stdexcept>

namespace mccp::pb {

void Cpu::load_program(std::span<const Word> image) {
  if (image.size() > kImemWords)
    throw std::length_error("Cpu::load_program: image exceeds 1024 words");
  // Predecode the whole store once; tick() never extracts fields again.
  dops_.fill(decode_word(encode(Opcode::kNop, 0, 0)));
  for (std::size_t i = 0; i < image.size(); ++i) dops_[i] = decode_word(image[i]);
  reset();
}

void Cpu::reset() {
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
  dcur_ = &dops_[0];
  retired_ = 0;
}

Cpu::DecodedOp Cpu::decode_word(Word w) {
  DecodedOp d;
  d.sx = static_cast<std::uint8_t>(field_sx(w));
  d.sy = static_cast<std::uint8_t>(field_sy(w));
  d.imm = static_cast<std::uint8_t>(field_imm(w));
  d.addr = static_cast<std::uint16_t>(field_addr(w));
  switch (opcode_of(w)) {
    case Opcode::kLoadK: d.kind = Exec::kLoadK; break;
    case Opcode::kLoadR: d.kind = Exec::kLoadR; break;
    case Opcode::kAndK: d.kind = Exec::kAndK; break;
    case Opcode::kAndR: d.kind = Exec::kAndR; break;
    case Opcode::kOrK: d.kind = Exec::kOrK; break;
    case Opcode::kOrR: d.kind = Exec::kOrR; break;
    case Opcode::kXorK: d.kind = Exec::kXorK; break;
    case Opcode::kXorR: d.kind = Exec::kXorR; break;
    case Opcode::kAddK: d.kind = Exec::kAddK; break;
    case Opcode::kAddR: d.kind = Exec::kAddR; break;
    case Opcode::kAddcyK: d.kind = Exec::kAddcyK; break;
    case Opcode::kAddcyR: d.kind = Exec::kAddcyR; break;
    case Opcode::kSubK: d.kind = Exec::kSubK; break;
    case Opcode::kSubR: d.kind = Exec::kSubR; break;
    case Opcode::kSubcyK: d.kind = Exec::kSubcyK; break;
    case Opcode::kSubcyR: d.kind = Exec::kSubcyR; break;
    case Opcode::kCompareK: d.kind = Exec::kCompareK; break;
    case Opcode::kCompareR: d.kind = Exec::kCompareR; break;
    case Opcode::kInputP: d.kind = Exec::kInputP; break;
    case Opcode::kInputR: d.kind = Exec::kInputR; break;
    case Opcode::kOutputP: d.kind = Exec::kOutputP; break;
    case Opcode::kOutputR: d.kind = Exec::kOutputR; break;
    case Opcode::kStoreS:
      d.kind = Exec::kStoreS;
      d.imm = static_cast<std::uint8_t>(d.imm % kScratchpadBytes);
      break;
    case Opcode::kStoreR: d.kind = Exec::kStoreR; break;
    case Opcode::kFetchS:
      d.kind = Exec::kFetchS;
      d.imm = static_cast<std::uint8_t>(d.imm % kScratchpadBytes);
      break;
    case Opcode::kFetchR: d.kind = Exec::kFetchR; break;
    case Opcode::kShift:
      switch (static_cast<ShiftOp>(d.imm)) {
        case ShiftOp::kSl0: d.kind = Exec::kSl0; break;
        case ShiftOp::kSl1: d.kind = Exec::kSl1; break;
        case ShiftOp::kSlx: d.kind = Exec::kSlx; break;
        case ShiftOp::kSla: d.kind = Exec::kSla; break;
        case ShiftOp::kRl: d.kind = Exec::kRl; break;
        case ShiftOp::kSr0: d.kind = Exec::kSr0; break;
        case ShiftOp::kSr1: d.kind = Exec::kSr1; break;
        case ShiftOp::kSrx: d.kind = Exec::kSrx; break;
        case ShiftOp::kSra: d.kind = Exec::kSra; break;
        case ShiftOp::kRr: d.kind = Exec::kRr; break;
        default: d.kind = Exec::kBadShift; break;
      }
      break;
    case Opcode::kJump: d.kind = Exec::kJump; break;
    case Opcode::kJumpZ: d.kind = Exec::kJumpZ; break;
    case Opcode::kJumpNz: d.kind = Exec::kJumpNz; break;
    case Opcode::kJumpC: d.kind = Exec::kJumpC; break;
    case Opcode::kJumpNc: d.kind = Exec::kJumpNc; break;
    case Opcode::kCall: d.kind = Exec::kCall; break;
    case Opcode::kCallZ: d.kind = Exec::kCallZ; break;
    case Opcode::kCallNz: d.kind = Exec::kCallNz; break;
    case Opcode::kCallC: d.kind = Exec::kCallC; break;
    case Opcode::kCallNc: d.kind = Exec::kCallNc; break;
    case Opcode::kReturn: d.kind = Exec::kReturn; break;
    case Opcode::kReturnZ: d.kind = Exec::kReturnZ; break;
    case Opcode::kReturnNz: d.kind = Exec::kReturnNz; break;
    case Opcode::kReturnC: d.kind = Exec::kReturnC; break;
    case Opcode::kReturnNc: d.kind = Exec::kReturnNc; break;
    case Opcode::kReturniEnable: d.kind = Exec::kReturniEnable; break;
    case Opcode::kReturniDisable: d.kind = Exec::kReturniDisable; break;
    case Opcode::kEnableInt: d.kind = Exec::kEnableInt; break;
    case Opcode::kDisableInt: d.kind = Exec::kDisableInt; break;
    case Opcode::kHalt: d.kind = Exec::kHalt; break;
    case Opcode::kNop: d.kind = Exec::kNop; break;
    default: d.kind = Exec::kIllegal; break;
  }
  return d;
}

void Cpu::fetch_cycle() {
  // Interrupts are recognised at instruction boundaries, like KCPSM3.
  if (irq_pending_ && int_enable_) {
    irq_pending_ = false;
    int_enable_ = false;
    saved_zero_ = zero_;
    saved_carry_ = carry_;
    if (stack_.size() >= kStackDepth) throw std::runtime_error("PicoBlaze stack overflow");
    stack_.push_back(pc_);
    pc_ = kInterruptVector;
  }
  dcur_ = &dops_[pc_ & (kImemWords - 1)];
  pc_ = static_cast<std::uint16_t>((pc_ + 1) & (kImemWords - 1));
  fetch_phase_ = false;
}

void Cpu::tick() {
  if (halted_) {
    if (wake_pending_) {
      halted_ = false;
      wake_pending_ = false;
      // Next cycle begins the fetch of the instruction after HALT. A
      // pending IRQ is taken at that fetch, per the contract in cpu.h.
      fetch_phase_ = true;
    }
    return;
  }
  // Note: wake pulses are sticky. If the done signal fires between the
  // OUTPUT that started an operation and the following HALT, the HALT must
  // fall through immediately instead of sleeping forever.
  if (fetch_phase_) {
    fetch_cycle();
  } else {
    exec_decoded(*dcur_);
    ++retired_;
    fetch_phase_ = true;
  }
}

void Cpu::exec_decoded(const DecodedOp& d) {
  const unsigned sx = d.sx;
  const std::uint8_t imm = d.imm;

  // Shared result writers: logical ops clear carry (KCPSM3), arithmetic
  // updates it from bit 8.
  auto logical = [&](std::uint8_t r) {
    regs_[sx] = r;
    zero_ = (r == 0);
    carry_ = false;
  };
  auto arith = [&](std::uint16_t wide) {
    const std::uint8_t r = static_cast<std::uint8_t>(wide & 0xFF);
    regs_[sx] = r;
    zero_ = (r == 0);
    carry_ = (wide & 0x100) != 0;
  };
  auto shifted = [&](std::uint8_t r, bool carry_out) {
    regs_[sx] = r;
    zero_ = (r == 0);
    carry_ = carry_out;
  };

  switch (d.kind) {
    case Exec::kLoadK: regs_[sx] = imm; break;  // LOAD does not affect flags
    case Exec::kLoadR: regs_[sx] = regs_[d.sy]; break;
    case Exec::kAndK: logical(regs_[sx] & imm); break;
    case Exec::kAndR: logical(regs_[sx] & regs_[d.sy]); break;
    case Exec::kOrK: logical(regs_[sx] | imm); break;
    case Exec::kOrR: logical(regs_[sx] | regs_[d.sy]); break;
    case Exec::kXorK: logical(regs_[sx] ^ imm); break;
    case Exec::kXorR: logical(regs_[sx] ^ regs_[d.sy]); break;

    case Exec::kAddK: arith(static_cast<std::uint16_t>(regs_[sx] + imm)); break;
    case Exec::kAddR: arith(static_cast<std::uint16_t>(regs_[sx] + regs_[d.sy])); break;
    case Exec::kAddcyK:
      arith(static_cast<std::uint16_t>(regs_[sx] + imm + (carry_ ? 1 : 0)));
      break;
    case Exec::kAddcyR:
      arith(static_cast<std::uint16_t>(regs_[sx] + regs_[d.sy] + (carry_ ? 1 : 0)));
      break;
    case Exec::kSubK: arith(static_cast<std::uint16_t>(regs_[sx] - imm)); break;
    case Exec::kSubR: arith(static_cast<std::uint16_t>(regs_[sx] - regs_[d.sy])); break;
    case Exec::kSubcyK:
      arith(static_cast<std::uint16_t>(regs_[sx] - imm - (carry_ ? 1 : 0)));
      break;
    case Exec::kSubcyR:
      arith(static_cast<std::uint16_t>(regs_[sx] - regs_[d.sy] - (carry_ ? 1 : 0)));
      break;

    case Exec::kCompareK: {
      const std::uint16_t r = static_cast<std::uint16_t>(regs_[sx] - imm);
      zero_ = ((r & 0xFF) == 0);
      carry_ = (r & 0x100) != 0;
      break;
    }
    case Exec::kCompareR: {
      const std::uint16_t r = static_cast<std::uint16_t>(regs_[sx] - regs_[d.sy]);
      zero_ = ((r & 0xFF) == 0);
      carry_ = (r & 0x100) != 0;
      break;
    }

    case Exec::kInputP: regs_[sx] = bus_->read_port(imm); break;
    case Exec::kInputR: regs_[sx] = bus_->read_port(regs_[d.sy]); break;
    case Exec::kOutputP: bus_->write_port(imm, regs_[sx]); break;
    case Exec::kOutputR: bus_->write_port(regs_[d.sy], regs_[sx]); break;

    case Exec::kStoreS: scratch_[imm] = regs_[sx]; break;  // pre-reduced at decode
    case Exec::kStoreR: scratch_[regs_[d.sy] % kScratchpadBytes] = regs_[sx]; break;
    case Exec::kFetchS: regs_[sx] = scratch_[imm]; break;
    case Exec::kFetchR: regs_[sx] = scratch_[regs_[d.sy] % kScratchpadBytes]; break;

    case Exec::kSl0: {
      const std::uint8_t r = regs_[sx];
      shifted(static_cast<std::uint8_t>(r << 1), r & 0x80);
      break;
    }
    case Exec::kSl1: {
      const std::uint8_t r = regs_[sx];
      shifted(static_cast<std::uint8_t>((r << 1) | 1), r & 0x80);
      break;
    }
    case Exec::kSlx: {
      const std::uint8_t r = regs_[sx];
      shifted(static_cast<std::uint8_t>((r << 1) | (r & 1)), r & 0x80);
      break;
    }
    case Exec::kSla: {
      const std::uint8_t r = regs_[sx];
      shifted(static_cast<std::uint8_t>((r << 1) | (carry_ ? 1 : 0)), r & 0x80);
      break;
    }
    case Exec::kRl: {
      const std::uint8_t r = regs_[sx];
      shifted(static_cast<std::uint8_t>((r << 1) | (r >> 7)), r & 0x80);
      break;
    }
    case Exec::kSr0: {
      const std::uint8_t r = regs_[sx];
      shifted(static_cast<std::uint8_t>(r >> 1), r & 1);
      break;
    }
    case Exec::kSr1: {
      const std::uint8_t r = regs_[sx];
      shifted(static_cast<std::uint8_t>((r >> 1) | 0x80), r & 1);
      break;
    }
    case Exec::kSrx: {
      const std::uint8_t r = regs_[sx];
      shifted(static_cast<std::uint8_t>((r >> 1) | (r & 0x80)), r & 1);
      break;
    }
    case Exec::kSra: {
      const std::uint8_t r = regs_[sx];
      shifted(static_cast<std::uint8_t>((r >> 1) | (carry_ ? 0x80 : 0)), r & 1);
      break;
    }
    case Exec::kRr: {
      const std::uint8_t r = regs_[sx];
      shifted(static_cast<std::uint8_t>((r >> 1) | (r << 7)), r & 1);
      break;
    }
    case Exec::kBadShift: throw std::runtime_error("PicoBlaze: bad shift sub-op");

    case Exec::kJump: pc_ = d.addr; break;
    case Exec::kJumpZ: if (zero_) pc_ = d.addr; break;
    case Exec::kJumpNz: if (!zero_) pc_ = d.addr; break;
    case Exec::kJumpC: if (carry_) pc_ = d.addr; break;
    case Exec::kJumpNc: if (!carry_) pc_ = d.addr; break;

    case Exec::kCall:
    case Exec::kCallZ:
    case Exec::kCallNz:
    case Exec::kCallC:
    case Exec::kCallNc: {
      const bool take = (d.kind == Exec::kCall) || (d.kind == Exec::kCallZ && zero_) ||
                        (d.kind == Exec::kCallNz && !zero_) || (d.kind == Exec::kCallC && carry_) ||
                        (d.kind == Exec::kCallNc && !carry_);
      if (take) {
        if (stack_.size() >= kStackDepth) throw std::runtime_error("PicoBlaze stack overflow");
        stack_.push_back(pc_);
        pc_ = d.addr;
      }
      break;
    }

    case Exec::kReturn:
    case Exec::kReturnZ:
    case Exec::kReturnNz:
    case Exec::kReturnC:
    case Exec::kReturnNc: {
      const bool take = (d.kind == Exec::kReturn) || (d.kind == Exec::kReturnZ && zero_) ||
                        (d.kind == Exec::kReturnNz && !zero_) || (d.kind == Exec::kReturnC && carry_) ||
                        (d.kind == Exec::kReturnNc && !carry_);
      if (take) {
        if (stack_.empty()) throw std::runtime_error("PicoBlaze stack underflow");
        pc_ = stack_.back();
        stack_.pop_back();
      }
      break;
    }

    case Exec::kReturniEnable:
    case Exec::kReturniDisable:
      if (stack_.empty()) throw std::runtime_error("PicoBlaze RETURNI with empty stack");
      pc_ = stack_.back();
      stack_.pop_back();
      zero_ = saved_zero_;
      carry_ = saved_carry_;
      int_enable_ = (d.kind == Exec::kReturniEnable);
      break;

    case Exec::kEnableInt: int_enable_ = true; break;
    case Exec::kDisableInt: int_enable_ = false; break;

    case Exec::kHalt: halted_ = true; break;
    case Exec::kNop: break;

    case Exec::kIllegal:
    default: throw std::runtime_error("PicoBlaze: illegal opcode");
  }
}

}  // namespace mccp::pb
