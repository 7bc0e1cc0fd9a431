// Differential fuzz suite for the controller's execution path.
//
// The predecoded Cpu::tick() must be cycle-for-cycle bit-identical to
// testing::ReferenceCpu (tests/support/picoblaze_reference.h), a standalone
// decode-per-execute interpreter with its own fetch, IRQ vectoring and
// state. Seeded random programs mix ALU, logic, shifts, scratchpad, port
// I/O, jumps, calls into RETURN-terminated subroutines, HALT/wake and
// interrupts; the two CPUs step in lockstep and the full architectural
// state (registers, flags, scratchpad, stack, pc, halt/wake lines, retired
// count, bus traffic) is compared at every cycle. A last case checks a
// whole CryptoCore task fast-forwarded through its quiet spans against
// per-cycle ticks.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/crypto_core.h"
#include "core/stream_format.h"
#include "crypto/aes.h"
#include "picoblaze/cpu.h"
#include "picoblaze/isa.h"
#include "support/picoblaze_reference.h"

namespace mccp::pb {
namespace {

// Deterministic xorshift64* — the suite must not depend on libc rand.
struct Rng {
  std::uint64_t s;
  explicit Rng(std::uint64_t seed) : s(seed * 2685821657736338717ull + 1) {}
  std::uint64_t next() {
    s ^= s >> 12;
    s ^= s << 25;
    s ^= s >> 27;
    return s * 2685821657736338717ull;
  }
  unsigned below(unsigned n) { return static_cast<unsigned>(next() % n); }
};

// Port reads are a pure function of (port, read ordinal): two CPUs running
// the same instruction sequence observe identical input bytes.
class DetBus : public IoBus {
 public:
  std::uint8_t read_port(std::uint8_t port) override {
    return static_cast<std::uint8_t>(port * 37u + 11u * reads_++ + 5u);
  }
  void write_port(std::uint8_t port, std::uint8_t value) override {
    writes.push_back((static_cast<std::uint16_t>(port) << 8) | value);
  }
  std::uint32_t reads_ = 0;
  std::vector<std::uint16_t> writes;
};

constexpr unsigned kMainLen = 300;   // random main block: [0, kMainLen)
constexpr unsigned kSubBase = 0x200; // subroutine pool (RETURN-terminated)
constexpr unsigned kNumSubs = 4;
constexpr unsigned kSubStride = 8;
constexpr unsigned kIsrBase = 0x300;

Word random_alu(Rng& rng) {
  static constexpr Opcode kAluK[] = {Opcode::kLoadK,  Opcode::kAndK, Opcode::kOrK,
                                     Opcode::kXorK,   Opcode::kAddK, Opcode::kAddcyK,
                                     Opcode::kSubK,   Opcode::kSubcyK, Opcode::kCompareK};
  static constexpr Opcode kAluR[] = {Opcode::kLoadR,  Opcode::kAndR, Opcode::kOrR,
                                     Opcode::kXorR,   Opcode::kAddR, Opcode::kAddcyR,
                                     Opcode::kSubR,   Opcode::kSubcyR, Opcode::kCompareR};
  const unsigned sx = rng.below(16);
  if (rng.below(2) == 0)
    return encode(kAluK[rng.below(9)], sx, rng.below(256));
  return encode_rr(kAluR[rng.below(9)], sx, rng.below(16));
}

Word random_main_instr(Rng& rng) {
  const unsigned sx = rng.below(16);
  switch (rng.below(20)) {
    case 0:  // shift/rotate (valid sub-ops only)
    case 1:
      return encode(Opcode::kShift, sx, rng.below(10));
    case 2:
      return encode(Opcode::kStoreS, sx, rng.below(256));
    case 3:
      return encode_rr(Opcode::kStoreR, sx, rng.below(16));
    case 4:
      return encode(Opcode::kFetchS, sx, rng.below(256));
    case 5:
      return encode_rr(Opcode::kFetchR, sx, rng.below(16));
    case 6:  // port I/O, immediate and register-indirect forms
      return encode(Opcode::kInputP, sx, rng.below(256));
    case 7:
      return encode_rr(Opcode::kInputR, sx, rng.below(16));
    case 8:
      return encode(Opcode::kOutputP, sx, rng.below(256));
    case 9:
      return encode_rr(Opcode::kOutputR, sx, rng.below(16));
    case 10: {  // jump (conditional or not) within the main block
      static constexpr Opcode kJ[] = {Opcode::kJump, Opcode::kJumpZ, Opcode::kJumpNz,
                                      Opcode::kJumpC, Opcode::kJumpNc};
      return encode_jump(kJ[rng.below(5)], rng.below(kMainLen));
    }
    case 11: {  // call into the subroutine pool
      static constexpr Opcode kC[] = {Opcode::kCall, Opcode::kCallZ, Opcode::kCallNz,
                                      Opcode::kCallC, Opcode::kCallNc};
      return encode_jump(kC[rng.below(5)], kSubBase + kSubStride * rng.below(kNumSubs));
    }
    case 12:
      return encode(rng.below(2) ? Opcode::kEnableInt : Opcode::kDisableInt, 0, 0);
    case 13:
      return rng.below(4) == 0 ? encode(Opcode::kHalt, 0, 0) : random_alu(rng);
    default:
      return random_alu(rng);
  }
}

std::vector<Word> random_program(Rng& rng) {
  std::vector<Word> img(kImemWords, encode(Opcode::kNop, 0, 0));
  for (unsigned i = 0; i < kMainLen; ++i) img[i] = random_main_instr(rng);
  img[kMainLen] = encode_jump(Opcode::kJump, 0);  // fall-through wraps
  for (unsigned s = 0; s < kNumSubs; ++s) {
    const unsigned base = kSubBase + s * kSubStride;
    img[base + 0] = random_alu(rng);
    img[base + 1] = random_alu(rng);
    img[base + 2] = random_alu(rng);
    img[base + 3] = encode(Opcode::kReturn, 0, 0);
  }
  img[kIsrBase + 0] = random_alu(rng);
  img[kIsrBase + 1] = random_alu(rng);
  img[kIsrBase + 2] =
      encode(rng.below(2) ? Opcode::kReturniEnable : Opcode::kReturniDisable, 0, 0);
  // Half the programs jump into the handler; the other half return
  // straight from the vector (an empty handler), so the flags saved at
  // vectoring are restored by the very next instruction.
  img[kInterruptVector] =
      rng.below(2) == 0
          ? encode(rng.below(2) ? Opcode::kReturniEnable : Opcode::kReturniDisable, 0, 0)
          : encode_jump(Opcode::kJump, kIsrBase);
  return img;
}

void expect_same_state(const Cpu& a, const testing::ReferenceCpu& b, std::uint64_t seed,
                       sim::Cycle cycle) {
  ASSERT_EQ(a.pc(), b.pc()) << "seed " << seed << " cycle " << cycle;
  ASSERT_EQ(a.zero_flag(), b.zero_flag()) << "seed " << seed << " cycle " << cycle;
  ASSERT_EQ(a.carry_flag(), b.carry_flag()) << "seed " << seed << " cycle " << cycle;
  ASSERT_EQ(a.halted(), b.halted()) << "seed " << seed << " cycle " << cycle;
  ASSERT_EQ(a.wake_pending(), b.wake_pending()) << "seed " << seed << " cycle " << cycle;
  ASSERT_EQ(a.interrupts_enabled(), b.interrupts_enabled())
      << "seed " << seed << " cycle " << cycle;
  ASSERT_EQ(a.instructions_retired(), b.instructions_retired())
      << "seed " << seed << " cycle " << cycle;
  ASSERT_EQ(a.stack(), b.stack()) << "seed " << seed << " cycle " << cycle;
  for (unsigned r = 0; r < kNumRegisters; ++r)
    ASSERT_EQ(a.reg(r), b.reg(r)) << "seed " << seed << " cycle " << cycle << " s" << r;
  for (unsigned i = 0; i < kScratchpadBytes; ++i)
    ASSERT_EQ(a.scratch(i), b.scratch(i)) << "seed " << seed << " cycle " << cycle
                                          << " scratch[" << i << "]";
}

TEST(CpuDifferential, CachedTickMatchesReferencePerCycle) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    Rng rng(seed);
    const std::vector<Word> img = random_program(rng);
    DetBus bus_a, bus_b;
    Cpu a{"cached", bus_a};
    testing::ReferenceCpu b{bus_b};
    a.load_program(img);
    b.load_program(img);
    for (sim::Cycle cycle = 0; cycle < 3000; ++cycle) {
      // Wake pulses: to a parked CPU every few cycles (so it stays parked
      // a while), and on a fixed schedule regardless, so some land before
      // a HALT executes (sticky: the HALT then falls through at once).
      if ((a.halted() && !a.wake_pending() && cycle % 8 == 0) || cycle % 61 == 17) {
        a.wake();
        b.wake();
      }
      if (cycle % 509 == 321) {  // same IRQ schedule for both
        a.request_interrupt();
        b.request_interrupt();
      }
      a.tick();
      b.tick();
      ASSERT_NO_FATAL_FAILURE(expect_same_state(a, b, seed, cycle));
    }
    ASSERT_EQ(bus_a.writes, bus_b.writes) << "seed " << seed;
    ASSERT_EQ(bus_a.reads_, bus_b.reads_) << "seed " << seed;
    ASSERT_GT(a.instructions_retired(), 100u) << "seed " << seed;  // program made progress
  }
}

// CryptoCore::advance_quiet must land a whole GCM task on exactly the cycle
// per-cycle tick() does — same result code, same ciphertext+tag words, same
// controller retirement count and busy cycles — when every quiet span the
// core reports is skipped in one call (split at random points). The stream
// is preloaded into the input FIFO so nothing external acts during a span.
TEST(CpuDifferential, CryptoCoreQuietAdvanceMatchesPerCycleTick) {
  const std::vector<std::uint8_t> key(16, 0x42);
  std::vector<std::uint8_t> iv(12), aad(8), pt(64);
  for (std::size_t i = 0; i < iv.size(); ++i) iv[i] = static_cast<std::uint8_t>(i + 1);
  for (std::size_t i = 0; i < aad.size(); ++i) aad[i] = static_cast<std::uint8_t>(0xA0 + i);
  for (std::size_t i = 0; i < pt.size(); ++i) pt[i] = static_cast<std::uint8_t>(i * 7);
  const core::CoreJob job = core::format_gcm_encrypt(iv, aad, pt);

  auto prime = [&](core::CryptoCore& c) {
    c.load_round_keys(crypto::aes_expand_key(key));
    c.connect_shift_in(&c.shift_out());
    // Let the firmware reach its idle HALT before the start strobe.
    for (int i = 0; i < 100 && !c.controller().halted(); ++i) c.tick();
    for (std::uint32_t w : job.stream) c.in_fifo().push(w);
    c.start_task(job.params);
  };

  core::CryptoCore ref{"ref"};
  prime(ref);
  sim::Cycle ref_cycles = 0;
  while (!ref.done_pending() && ref_cycles < 200000) {
    ref.tick();
    ++ref_cycles;
  }
  ASSERT_TRUE(ref.done_pending());

  Rng rng(7);
  core::CryptoCore fast{"fast"};
  prime(fast);
  sim::Cycle fast_cycles = 0, skipped = 0;
  while (!fast.done_pending() && fast_cycles < 200000) {
    const std::uint64_t h = fast.quiet_horizon();
    if (h == 0) {
      fast.tick();
      ++fast_cycles;
      continue;
    }
    const std::uint64_t n = 1 + rng.below(static_cast<unsigned>(std::min<std::uint64_t>(h, 500)));
    fast.advance_quiet(n);
    fast_cycles += n;
    skipped += n;
  }
  ASSERT_TRUE(fast.done_pending());

  EXPECT_GT(skipped, 0u);  // the AES/GHASH waits were fast-forwarded
  EXPECT_EQ(fast_cycles, ref_cycles);
  EXPECT_EQ(fast.busy_cycles(), ref.busy_cycles());
  EXPECT_EQ(fast.result(), ref.result());
  EXPECT_EQ(fast.controller().instructions_retired(),
            ref.controller().instructions_retired());
  std::vector<std::uint32_t> out_ref, out_fast;
  while (!ref.out_fifo().empty()) out_ref.push_back(ref.out_fifo().pop());
  while (!fast.out_fifo().empty()) out_fast.push_back(fast.out_fifo().pop());
  EXPECT_EQ(out_fast, out_ref);
  EXPECT_EQ(out_ref.size(), job.expected_output_words);
}

}  // namespace
}  // namespace mccp::pb
