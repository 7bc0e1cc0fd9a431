#include "cu/cryptographic_unit.h"

#include <stdexcept>

#include "crypto/ctr.h"
#include "crypto/gf128.h"
#include "crypto/whirlpool.h"
#include "cu/timing.h"

namespace mccp::cu {

const char* cu_op_name(CuOp op) {
  switch (op) {
    case CuOp::kNop: return "NOP";
    case CuOp::kLoad: return "LOAD";
    case CuOp::kStore: return "STORE";
    case CuOp::kLoadH: return "LOADH";
    case CuOp::kSgfm: return "SGFM";
    case CuOp::kFgfm: return "FGFM";
    case CuOp::kSaes: return "SAES";
    case CuOp::kFaes: return "FAES";
    case CuOp::kInc: return "INC";
    case CuOp::kXor: return "XOR";
    case CuOp::kEqu: return "EQU";
    case CuOp::kShiftOut: return "SHIFTOUT";
    case CuOp::kShiftIn: return "SHIFTIN";
    case CuOp::kSwph: return "SWPH";
    case CuOp::kFwph: return "FWPH";
  }
  return "?";
}

void CryptographicUnit::reset() {
  bank_ = {};
  mask_ = 0xFFFF;
  equ_ = false;
  aes_valid_ = false;
  aes_ready_ = 0;
  ghash_h_ = {};
  ghash_y_ = {};
  ghash_free_ = 0;
  wp_chain_ = {};
  wp_free_ = 0;
  current_.reset();
  pending_.reset();
}

void CryptographicUnit::set_personality(CuPersonality p) {
  if (busy())
    throw std::logic_error(name_ + ": cannot reconfigure while an instruction is in flight");
  reset();
  personality_ = p;
}

void CryptographicUnit::start(std::uint8_t instr) {
  // Preserve program order: a latched instruction that has not yet been
  // promoted into the execution slot must run before the new arrival.
  if (!current_ && pending_) {
    current_ = Inflight{cu_opcode(*pending_), cu_field_a(*pending_), cu_field_b(*pending_)};
    pending_.reset();
  }
  if (!current_) {
    current_ = Inflight{cu_opcode(instr), cu_field_a(instr), cu_field_b(instr)};
  } else if (!pending_) {
    pending_ = instr;
  } else {
    throw std::runtime_error(name_ + ": instruction overrun (firmware issued a third "
                             "instruction while two are in flight): " +
                             cu_op_name(cu_opcode(instr)));
  }
}

int CryptographicUnit::exec_cycles(CuOp op) const {
  switch (op) {
    case CuOp::kNop: return 1;
    case CuOp::kLoad:
    case CuOp::kStore:
    case CuOp::kLoadH:
    case CuOp::kShiftOut:
    case CuOp::kShiftIn: return kIoCycles;
    case CuOp::kSgfm:
    case CuOp::kSaes:
    case CuOp::kSwph: return kStartCycles;
    case CuOp::kFgfm:
    case CuOp::kFaes: return kFinalizeCycles;
    case CuOp::kFwph: return 4 * kFinalizeCycles;  // 512-bit result transfer
    case CuOp::kInc: return kIncCycles;
    case CuOp::kXor:
    case CuOp::kEqu: return kXorCycles;
  }
  return 1;
}

bool CryptographicUnit::wait_satisfied(const Inflight& f) const {
  switch (f.op) {
    case CuOp::kLoad:
      return ports_.in_fifo && ports_.in_fifo->size() >= 4;
    case CuOp::kStore:
      return ports_.out_fifo && ports_.out_fifo->capacity() - ports_.out_fifo->size() >= 4;
    case CuOp::kSaes:
      // The iterative AES core is shared: a new encryption may only start
      // once the previous one has finished.
      return !aes_valid_ || cycle_ >= aes_ready_;
    case CuOp::kFaes:
      return aes_valid_ && cycle_ >= aes_ready_;
    case CuOp::kSgfm:
      return cycle_ >= ghash_free_;
    case CuOp::kFgfm:
      return cycle_ >= ghash_free_;
    case CuOp::kShiftOut:
      return ports_.shift_out && !ports_.shift_out->word_ready();
    case CuOp::kShiftIn:
      return ports_.shift_in && ports_.shift_in->word_ready();
    case CuOp::kSwph:
    case CuOp::kFwph:
      return cycle_ >= wp_free_;
    default:
      return true;
  }
}

void CryptographicUnit::begin(Inflight& f) {
  // Personality enforcement: the reconfigurable slot hosts one algorithm
  // core at a time (paper SVII.B).
  switch (f.op) {
    case CuOp::kSaes:
    case CuOp::kFaes:
    case CuOp::kSgfm:
    case CuOp::kFgfm:
      if (personality_ != CuPersonality::kAes)
        throw std::runtime_error(name_ + ": " + cu_op_name(f.op) +
                                 " issued while the Whirlpool image is loaded");
      break;
    case CuOp::kSwph:
    case CuOp::kFwph:
      if (personality_ != CuPersonality::kWhirlpool)
        throw std::runtime_error(name_ + ": " + cu_op_name(f.op) +
                                 " issued while the AES image is loaded");
      break;
    default:
      break;
  }
  // Background computations are launched when the operand fetch starts, so
  // the result-ready horizon is measured from this cycle (the paper's 44
  // cycles per AES block count from the start strobe).
  if (f.op == CuOp::kSaes) {
    if (keys_ == nullptr) throw std::runtime_error(name_ + ": SAES without round keys");
    // Functional result from the crypto kernel tier (bit-identical AES on
    // every tier); the horizon below is the iterative core's timing.
    aes_result_ = crypto::aes_encrypt_block(*keys_, bank_[f.a]);
    aes_valid_ = true;
    aes_ready_ = cycle_ + static_cast<std::uint64_t>(crypto::aes_core_cycles(keys_->key_size));
    ++aes_blocks_;
  } else if (f.op == CuOp::kSgfm) {
    // Y <- (Y ^ X) * H. The hardware is the 43-cycle digit-serial
    // multiplier (timing below); the functional product is computed via
    // the Shoup table — bit-identical by the gf128 property tests, and
    // ~60x cheaper per block once the table is built. The table caches on
    // H, so re-keys rebuild it and same-key packet streams reuse it.
    if (!(ghash_table_.h() == ghash_h_)) ghash_table_.load(ghash_h_);
    ghash_y_ = ghash_table_.mul(ghash_y_ ^ bank_[f.a]);
    ghash_free_ = cycle_ + kGhashCycles;
    ++ghash_blocks_;
  } else if (f.op == CuOp::kSwph) {
    // One Miyaguchi-Preneel compression of the 512-bit block held in the
    // bank register (b0..b3 concatenated big-endian).
    std::uint8_t block[64];
    for (std::size_t i = 0; i < 4; ++i)
      for (std::size_t j = 0; j < 16; ++j) block[16 * i + j] = bank_[i].b[j];
    crypto::whirlpool_compress(wp_chain_, block);
    wp_free_ = cycle_ + kWhirlpoolCycles;
    ++whirlpool_blocks_;
  }
}

void CryptographicUnit::complete(Inflight& f) {
  switch (f.op) {
    case CuOp::kNop:
      break;
    case CuOp::kLoad: {
      Block128 v;
      for (std::size_t i = 0; i < 4; ++i) v.set_word(i, ports_.in_fifo->pop());
      bank_[f.a] = v;
      break;
    }
    case CuOp::kStore:
      for (std::size_t i = 0; i < 4; ++i) ports_.out_fifo->push(bank_[f.a].word(i));
      break;
    case CuOp::kLoadH:
      // AES personality: load the GHASH subkey. Whirlpool personality: the
      // same strobe re-initialises the chaining value for a new message.
      if (personality_ == CuPersonality::kAes) {
        ghash_h_ = bank_[f.a];
        ghash_y_ = Block128{};
      } else {
        wp_chain_ = {};
      }
      break;
    case CuOp::kSgfm:
    case CuOp::kSaes:
      break;  // effect applied in begin(); background continues
    case CuOp::kFgfm:
      bank_[f.a] = ghash_y_;
      break;
    case CuOp::kFaes:
      bank_[f.a] = aes_result_;
      aes_valid_ = false;
      break;
    case CuOp::kInc:
      bank_[f.a] = crypto::inc16(bank_[f.a], f.b + 1);
      break;
    case CuOp::kXor: {
      Block128 r = bank_[f.a] ^ bank_[f.b];
      for (std::size_t byte = 0; byte < 16; ++byte)
        if (!((mask_ >> byte) & 1)) r.b[byte] = 0;
      bank_[f.b] = r;
      break;
    }
    case CuOp::kEqu:
      equ_ = (bank_[f.a] == bank_[f.b]);
      break;
    case CuOp::kShiftOut:
      ports_.shift_out->load(bank_[f.a]);
      break;
    case CuOp::kShiftIn:
      bank_[f.a] = ports_.shift_in->take();
      break;
    case CuOp::kSwph:
      break;  // effect applied in begin(); background continues
    case CuOp::kFwph:
      for (std::size_t i = 0; i < 4; ++i)
        for (std::size_t j = 0; j < 16; ++j) bank_[i].b[j] = wp_chain_[16 * i + j];
      break;
  }
  ++ops_executed_;
  if (done_cb_) done_cb_();
}

bool CryptographicUnit::touches_ports(CuOp op) {
  return op == CuOp::kLoad || op == CuOp::kStore || op == CuOp::kShiftIn ||
         op == CuOp::kShiftOut;
}

std::optional<std::uint64_t> CryptographicUnit::wait_clear_tick(const Inflight& f) const {
  // tick() pre-increments the cycle counter, so at the k-th upcoming tick
  // the comparisons in wait_satisfied() see cycle_ + k: a horizon H clears
  // at tick max(1, H - cycle_).
  auto horizon = [this](std::uint64_t h) {
    return h > cycle_ + 1 ? h - cycle_ : std::uint64_t{1};
  };
  switch (f.op) {
    case CuOp::kSaes:
      return aes_valid_ ? horizon(aes_ready_) : 1;
    case CuOp::kFaes:
      if (!aes_valid_) return std::nullopt;  // firmware deadlock: FAES before SAES
      return horizon(aes_ready_);
    case CuOp::kSgfm:
    case CuOp::kFgfm:
      return horizon(ghash_free_);
    case CuOp::kSwph:
    case CuOp::kFwph:
      return horizon(wp_free_);
    case CuOp::kLoad:
    case CuOp::kStore:
    case CuOp::kShiftOut:
    case CuOp::kShiftIn:
      return std::nullopt;  // gated on FIFO / shift-register state
    default:
      return 1;  // wait_satisfied() is unconditionally true
  }
}

std::uint64_t CryptographicUnit::dormant_cycles(bool external_frozen) const {
  if (!current_) {
    if (pending_) return 0;  // next tick promotes the latch and may begin
    return kDormantForever;  // idle: every tick is a pure cycle count
  }
  const Inflight& f = *current_;
  // A latched follower caps the horizon at the current instruction's
  // completion: the tick after it promotes — already excluded, because the
  // horizons below end at (or before) the completion tick itself.
  if (!f.waiting) {
    const auto r = static_cast<std::uint64_t>(f.exec_remaining);
    // A port-touching completion must run under a real tick() so the
    // embedder sees the FIFO/shift-register change at that exact cycle.
    return touches_ports(f.op) ? r - 1 : r;
  }
  const auto t = wait_clear_tick(f);
  if (!t) {
    // Port-gated (or deadlocked). Frozen surroundings can never satisfy an
    // unmet port wait; otherwise the very next tick may interact.
    return (external_frozen && !wait_satisfied(f)) ? kDormantForever : 0;
  }
  // Wait clears at tick *t (begin + first execute decrement), completes at
  // tick *t + E - 1. Every time-gated or trivially-waiting op is internal,
  // so the completion tick itself is dormant.
  return *t + static_cast<std::uint64_t>(exec_cycles(f.op)) - 1;
}

void CryptographicUnit::advance_dormant(std::uint64_t n) {
  // Precondition: n <= dormant_cycles(...) as computed on this exact state.
  while (n > 0) {
    if (!current_) {
      cycle_ += n;  // idle (a latched pending_ would have made the horizon 0)
      return;
    }
    Inflight& f = *current_;
    if (f.waiting) {
      const auto t = wait_clear_tick(f);
      if (!t || *t > n) {
        cycle_ += n;  // still stalled after n ticks
        return;
      }
      cycle_ += *t;
      n -= *t;
      f.waiting = false;
      begin(f);
      f.exec_remaining = exec_cycles(f.op);
      if (--f.exec_remaining <= 0) {
        complete(f);
        current_.reset();
      }
      continue;
    }
    const auto r = static_cast<std::uint64_t>(f.exec_remaining);
    if (n < r) {
      cycle_ += n;
      f.exec_remaining -= static_cast<int>(n);
      return;
    }
    cycle_ += r;
    n -= r;
    f.exec_remaining = 0;
    complete(f);
    current_.reset();
  }
}

void CryptographicUnit::tick() {
  ++cycle_;
  if (!current_) {
    if (!pending_) return;
    current_ = Inflight{cu_opcode(*pending_), cu_field_a(*pending_), cu_field_b(*pending_)};
    pending_.reset();
  }
  Inflight& f = *current_;
  if (f.waiting) {
    if (!wait_satisfied(f)) return;
    f.waiting = false;
    begin(f);
    f.exec_remaining = exec_cycles(f.op);
  }
  if (--f.exec_remaining <= 0) {
    complete(f);
    current_.reset();
  }
}

}  // namespace mccp::cu
