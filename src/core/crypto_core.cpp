#include "core/crypto_core.h"

#include <stdexcept>

#include "core/firmware.h"

namespace mccp::core {

const char* alg_name(AlgId id) {
  switch (id) {
    case AlgId::kGcmEncrypt: return "GCM-ENC";
    case AlgId::kGcmDecrypt: return "GCM-DEC";
    case AlgId::kCcm1Encrypt: return "CCM1-ENC";
    case AlgId::kCcm1Decrypt: return "CCM1-DEC";
    case AlgId::kCcmCtrEncrypt: return "CCM-CTR-ENC";
    case AlgId::kCcmCtrDecrypt: return "CCM-CTR-DEC";
    case AlgId::kCcmMacEncrypt: return "CCM-MAC-ENC";
    case AlgId::kCcmMacDecrypt: return "CCM-MAC-DEC";
    case AlgId::kCtr: return "CTR";
    case AlgId::kCbcMacGenerate: return "CBCMAC-GEN";
    case AlgId::kCbcMacVerify: return "CBCMAC-VER";
    case AlgId::kWhirlpoolHash: return "WHIRLPOOL";
  }
  return "?";
}

CryptoCore::CryptoCore(std::string name)
    : name_(std::move(name)),
      cpu_(name_ + ".ctrl", *this),
      cu_(name_ + ".cu", {&in_fifo_, &out_fifo_, nullptr, &shift_out_}) {
  cpu_.load_program(firmware_image());
}

void CryptoCore::connect_shift_in(sim::ShiftRegister128* upstream) {
  shift_in_ = upstream;
  cu_.set_shift_in(upstream);
}

void CryptoCore::set_personality(cu::CuPersonality p) {
  if (task_active_) throw std::logic_error(name_ + ": reconfiguration while a task is active");
  cu_.set_personality(p);
}

void CryptoCore::load_round_keys(const crypto::AesRoundKeys& keys) {
  keys_ = keys;
  cu_.set_round_keys(&*keys_);
}

void CryptoCore::start_task(const CoreTaskParams& params) {
  if (task_active_) throw std::logic_error(name_ + ": start_task while busy");
  if (params.alg != AlgId::kWhirlpoolHash && !keys_)
    throw std::logic_error(name_ + ": start_task without round keys");
  params_ = params;
  task_active_ = true;
  done_pending_ = false;
  cpu_.wake();  // the Task Scheduler's start strobe
}

void CryptoCore::tick() {
  // HALT semantics: during a task, the controller sleeps until the
  // Cryptographic Unit has retired everything issued to it (the done line);
  // when idle it sleeps until the scheduler's start strobe.
  if (task_active_ && cpu_.halted() && !cu_.busy()) cpu_.wake();
  cpu_.tick();
  cu_.tick();
  if (task_active_) ++busy_cycles_;
}

std::uint64_t CryptoCore::quiet_horizon() const {
  // An active (or about-to-wake) controller decides cycle by cycle.
  if (!cpu_.halted() || cpu_.wake_pending()) return 0;
  // The wake line in tick() fires as soon as the unit drains: per-cycle.
  if (task_active_ && !cu_.busy()) return 0;
  return cu_.dormant_cycles(/*external_frozen=*/true);
}

void CryptoCore::advance_quiet(std::uint64_t n) {
  // The parked controller's tick() is a pure no-op (no wake pending, by the
  // horizon contract), so only the unit and the busy counter advance. A
  // dormant completion inside the span raises the done line at the exact
  // cycle it would under tick(); the resulting wake is consumed by the
  // first per-cycle tick after the burst, as in lockstep execution.
  cu_.advance_dormant(n);
  if (task_active_) busy_cycles_ += n;
}

std::uint8_t CryptoCore::read_port(std::uint8_t port) {
  switch (port) {
    case kPortCuStatus: {
      std::uint8_t s = 0;
      if (cu_.busy()) s |= kStatusCuBusy;
      if (cu_.equ_flag()) s |= kStatusEqu;
      if (cu_.aes_running()) s |= kStatusAesBusy;
      if (cu_.ghash_running()) s |= kStatusGhashBusy;
      if (in_fifo_.empty()) s |= kStatusInEmpty;
      if (out_fifo_.full()) s |= kStatusOutFull;
      if (shift_in_ && shift_in_->word_ready()) s |= kStatusShiftInReady;
      if (!shift_out_.word_ready()) s |= kStatusShiftOutEmpty;
      return s;
    }
    case kPortAlg: return static_cast<std::uint8_t>(params_.alg);
    case kPortAadBlocks: return params_.aad_blocks;
    case kPortDataBlocks: return params_.data_blocks;
    case kPortTagMask0: return static_cast<std::uint8_t>(params_.tag_mask & 0xFF);
    case kPortTagMask1: return static_cast<std::uint8_t>(params_.tag_mask >> 8);
    case kPortIvBlocks: return params_.iv_blocks;
    default:
      throw std::runtime_error(name_ + ": controller read from unmapped port");
  }
}

void CryptoCore::write_port(std::uint8_t port, std::uint8_t value) {
  switch (port) {
    case kPortCuInstr:
      cu_.start(value);
      break;
    case kPortMask0:
      cu_.set_mask(static_cast<std::uint16_t>((cu_.mask() & 0xFF00) | value));
      break;
    case kPortMask1:
      cu_.set_mask(static_cast<std::uint16_t>((cu_.mask() & 0x00FF) | (value << 8)));
      break;
    case kPortDone:
      result_ = static_cast<CoreResult>(value);
      task_active_ = false;
      done_pending_ = true;
      ++tasks_completed_;
      // Security rule (SIV.C): unauthenticated output must never be
      // readable — the output FIFO is re-initialised on failure.
      if (result_ == CoreResult::kAuthFail) out_fifo_.clear();
      break;
    default:
      throw std::runtime_error(name_ + ": controller write to unmapped port");
  }
}

}  // namespace mccp::core
