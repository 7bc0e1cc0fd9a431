// x86 hardware kernel tiers: AES-NI + PCLMULQDQ, and VAES/VPCLMULQDQ/AVX2
// on top.
//
// Everything here is gated on GCC/Clang x86 builds; per-function
// `__attribute__((target(...)))` markers let the intrinsics compile inside a
// translation unit built with the project's baseline flags, and CPUID
// feature detection (run once) decides whether the resulting function
// pointers are ever published. Other architectures (and other compilers)
// fall through to the stubs at the bottom, which report "no hardware tier"
// and leave the portable kernels in charge.
//
// Bit-identity notes:
//  * AESENC/AESDEC implement exactly the FIPS-197 rounds the T-tables
//    implement; the repo's round-key layout (16 big-endian bytes per
//    Block128) is byte-for-byte the layout the instructions consume, and
//    the equivalent-inverse `drk` schedule is precisely AESDEC's expected
//    key order.
//  * Counters live byte-swapped in one SIMD lane (bytes 12..15 as 32-bit
//    lane 3 for inc32, bytes 14..15 as 16-bit lane 7 for inc16) and step
//    with one lane add per block. A lane add wraps modulo 2^32 / 2^16 and
//    never carries into its neighbour, exactly like inc32/inc16 — so the
//    INC core's 16-bit wrap at 0xFFFF is preserved bit for bit.
//  * GHASH uses the reflected-operand carry-less multiply of Intel's GCM
//    white paper (Gueron & Kounavis): data is byte-reversed on load and
//    the cached powers of H are stored multiplied by x^-1, so the 255-bit
//    product needs no one-bit shift; it is reduced modulo
//    1 + x + x^2 + x^7 + x^128 with two carry-less folds. Aggregating N
//    blocks per reduction is the same polynomial regrouped. Same field,
//    same math, identical bits — enforced by
//    tests/crypto/kernel_dispatch_test.cpp against the Shoup table and the
//    bit-serial reference.

#include "crypto/kernels.h"

#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__) && \
    !defined(MCCP_NO_X86_KERNELS)
#define MCCP_X86_KERNELS 1
#endif

#ifdef MCCP_X86_KERNELS

#include <cpuid.h>
#include <immintrin.h>

#include <algorithm>
#include <span>

namespace mccp::crypto {
namespace {

#define MCCP_TARGET_AESNI __attribute__((target("aes,pclmul,ssse3")))
#define MCCP_TARGET_VAES __attribute__((target("vaes,vpclmulqdq,avx2,aes,pclmul,ssse3")))
// Lane loops must unroll fully so the lanes live in registers, not in a
// stack array (-O2 does not unroll on its own).
#define MCCP_LANES _Pragma("GCC unroll 8")
// Step helpers of the hot loops: a call would spill every live register
// (and, out of a YMM loop, clear the upper halves) once per batch.
#define MCCP_INLINE inline __attribute__((always_inline))

// ---- feature detection ------------------------------------------------------

bool os_ymm_enabled() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx)) return false;
  if (!(ecx & (1u << 27))) return false;  // OSXSAVE: xgetbv is usable
  unsigned lo, hi;
  // xgetbv(0), raw-encoded so the TU needs no -mxsave.
  __asm__ volatile(".byte 0x0f, 0x01, 0xd0" : "=a"(lo), "=d"(hi) : "c"(0));
  return (lo & 0x6) == 0x6;  // XMM and YMM state enabled
}

bool cpu_has_aesni() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx)) return false;
  const unsigned want = (1u << 25) | (1u << 1) | (1u << 9);  // AES, PCLMULQDQ, SSSE3
  return (ecx & want) == want;
}

bool cpu_has_vaes() {
  if (!cpu_has_aesni() || !os_ymm_enabled()) return false;
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (!__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) return false;
  return (ebx & (1u << 5)) && (ecx & (1u << 9)) && (ecx & (1u << 10));  // AVX2, VAES, VPCLMULQDQ
}

// ---- AES block pipeline (AES-NI) -------------------------------------------

MCCP_TARGET_AESNI inline __m128i load_data(const std::uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

MCCP_TARGET_AESNI inline __m128i load_block(const Block128& b) { return load_data(b.b.data()); }

/// Encrypt `n` (1..8) independent blocks in lockstep: one round-key load
/// feeds every lane, so the AESENC latency of lane 0 hides behind the
/// issue slots of lanes 1..n-1.
MCCP_TARGET_AESNI inline void encrypt_lanes(const AesRoundKeys& keys, __m128i* x, int n) {
  const int nr = keys.rounds();
  __m128i k = load_block(keys.rk[0]);
  MCCP_LANES
  for (int j = 0; j < n; ++j) x[j] = _mm_xor_si128(x[j], k);
  for (int r = 1; r < nr; ++r) {
    k = load_block(keys.rk[static_cast<std::size_t>(r)]);
    MCCP_LANES
    for (int j = 0; j < n; ++j) x[j] = _mm_aesenc_si128(x[j], k);
  }
  k = load_block(keys.rk[static_cast<std::size_t>(nr)]);
  MCCP_LANES
  for (int j = 0; j < n; ++j) x[j] = _mm_aesenclast_si128(x[j], k);
}

MCCP_TARGET_AESNI Block128 aesni_encrypt(const AesRoundKeys& keys, const Block128& in) {
  __m128i x = load_block(in);
  encrypt_lanes(keys, &x, 1);
  Block128 out;
  _mm_storeu_si128(reinterpret_cast<__m128i*>(out.b.data()), x);
  return out;
}

MCCP_TARGET_AESNI Block128 aesni_decrypt(const AesRoundKeys& keys, const Block128& in) {
  // The equivalent-inverse schedule (drk[0] = rk[nr], InvMixColumns on the
  // middle keys, drk[nr] = rk[0]) is exactly what AESDEC's round order
  // expects.
  const int nr = keys.rounds();
  __m128i x = load_block(in);
  x = _mm_xor_si128(x, load_block(keys.drk[0]));
  for (int r = 1; r < nr; ++r)
    x = _mm_aesdec_si128(x, load_block(keys.drk[static_cast<std::size_t>(r)]));
  x = _mm_aesdeclast_si128(x, load_block(keys.drk[static_cast<std::size_t>(nr)]));
  Block128 out;
  _mm_storeu_si128(reinterpret_cast<__m128i*>(out.b.data()), x);
  return out;
}

// ---- CTR keystream ----------------------------------------------------------

/// The counter field byte-swapped into a little-endian lane. The shuffle is
/// its own inverse: it maps a counter block to its lane form and back.
template <bool Wide>
MCCP_TARGET_AESNI inline __m128i counter_swap() {
  return Wide ? _mm_setr_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 15, 14, 13, 12)
              : _mm_setr_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 15, 14);
}

/// Add `step` (lane form) to the counter lane: inc32 or inc16 `step` times.
template <bool Wide>
MCCP_TARGET_AESNI inline __m128i counter_add(__m128i lane, std::uint32_t step) {
  return Wide ? _mm_add_epi32(lane, _mm_setr_epi32(0, 0, 0, static_cast<int>(step)))
              : _mm_add_epi16(lane, _mm_setr_epi16(0, 0, 0, 0, 0, 0, 0,
                                                   static_cast<short>(step)));
}

MCCP_TARGET_AESNI inline void xor_store(const std::uint8_t* in, std::uint8_t* out, __m128i ks) {
  _mm_storeu_si128(reinterpret_cast<__m128i*>(out), _mm_xor_si128(load_data(in), ks));
}

template <bool Wide>
MCCP_TARGET_AESNI void aesni_ctr_xor_impl(const AesRoundKeys& keys, const Block128& ctr0,
                                          const std::uint8_t* in, std::uint8_t* out,
                                          std::size_t len) {
  const __m128i swap = counter_swap<Wide>();
  __m128i lane = _mm_shuffle_epi8(load_block(ctr0), swap);
  std::size_t off = 0;
  // Whole 128-byte batches: a fixed 8-lane pipeline.
  for (; len - off >= 16 * 8; off += 16 * 8) {
    __m128i x[8];
    MCCP_LANES
    for (int j = 0; j < 8; ++j) {
      x[j] = _mm_shuffle_epi8(lane, swap);
      lane = counter_add<Wide>(lane, 1);
    }
    encrypt_lanes(keys, x, 8);
    MCCP_LANES
    for (int j = 0; j < 8; ++j) xor_store(in + off + 16 * j, out + off + 16 * j, x[j]);
  }
  if (off == len) return;
  // Tail: 1..8 blocks, the last possibly partial.
  const std::size_t n = len - off;
  const std::size_t blocks = (n + 15) / 16;
  __m128i x[8];
  for (std::size_t b = 0; b < blocks; ++b) {
    x[b] = _mm_shuffle_epi8(lane, swap);
    lane = counter_add<Wide>(lane, 1);
  }
  encrypt_lanes(keys, x, static_cast<int>(blocks));
  std::size_t b = 0;
  for (; 16 * (b + 1) <= n; ++b) xor_store(in + off + 16 * b, out + off + 16 * b, x[b]);
  if (16 * b < n) {  // partial final block
    alignas(16) std::uint8_t ks[16];
    _mm_store_si128(reinterpret_cast<__m128i*>(ks), x[b]);
    for (std::size_t i = 16 * b; i < n; ++i) out[off + i] = in[off + i] ^ ks[i - 16 * b];
  }
}

MCCP_TARGET_AESNI void aesni_ctr_xor(const AesRoundKeys& keys, const Block128& ctr0,
                                     bool wide_counter, const std::uint8_t* in, std::uint8_t* out,
                                     std::size_t len) {
  if (wide_counter)
    aesni_ctr_xor_impl<true>(keys, ctr0, in, out, len);
  else
    aesni_ctr_xor_impl<false>(keys, ctr0, in, out, len);
}

MCCP_TARGET_VAES inline __m256i broadcast_rk(const Block128& rk) {
  return _mm256_broadcastsi128_si256(load_block(rk));
}

/// 16 blocks per iteration as 8 YMM registers of 2 counter blocks each;
/// returns the number of bytes done (a multiple of 256) and advances `ctr`
/// past them. Every YMM instruction of the tier lives here, and it clears
/// the upper halves before returning, so the SSE-encoded AES-NI code that
/// runs next never meets dirty upper state.
template <bool Wide>
MCCP_TARGET_VAES std::size_t vaes_ctr_batches(const AesRoundKeys& keys, Block128& ctr,
                                              const std::uint8_t* in, std::uint8_t* out,
                                              std::size_t len) {
  const __m128i swap = counter_swap<Wide>();
  const __m128i lane0 = _mm_shuffle_epi8(load_block(ctr), swap);
  const __m256i swap2 = _mm256_broadcastsi128_si256(swap);
  __m256i lanes = _mm256_inserti128_si256(_mm256_castsi128_si256(lane0),
                                          counter_add<Wide>(lane0, 1), 1);
  const __m256i two = Wide ? _mm256_setr_epi32(0, 0, 0, 2, 0, 0, 0, 2)
                           : _mm256_setr_epi16(0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 2);
  const int nr = keys.rounds();
  std::size_t off = 0;
  for (; len - off >= 16 * 16; off += 16 * 16) {
    __m256i x[8];
    MCCP_LANES
    for (int j = 0; j < 8; ++j) {
      x[j] = _mm256_shuffle_epi8(lanes, swap2);
      lanes = Wide ? _mm256_add_epi32(lanes, two) : _mm256_add_epi16(lanes, two);
    }
    __m256i k = broadcast_rk(keys.rk[0]);
    MCCP_LANES
    for (int j = 0; j < 8; ++j) x[j] = _mm256_xor_si256(x[j], k);
    for (int r = 1; r < nr; ++r) {
      k = broadcast_rk(keys.rk[static_cast<std::size_t>(r)]);
      MCCP_LANES
      for (int j = 0; j < 8; ++j) x[j] = _mm256_aesenc_epi128(x[j], k);
    }
    k = broadcast_rk(keys.rk[static_cast<std::size_t>(nr)]);
    MCCP_LANES
    for (int j = 0; j < 8; ++j) x[j] = _mm256_aesenclast_epi128(x[j], k);
    MCCP_LANES
    for (int j = 0; j < 8; ++j) {
      __m256i d = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(in + off + 32 * j));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + off + 32 * j),
                          _mm256_xor_si256(d, x[j]));
    }
  }
  _mm_storeu_si128(reinterpret_cast<__m128i*>(ctr.b.data()),
                   _mm_shuffle_epi8(_mm256_castsi256_si128(lanes), swap));
  _mm256_zeroupper();
  return off;
}

MCCP_TARGET_VAES void vaes_ctr_xor(const AesRoundKeys& keys, const Block128& ctr0,
                                   bool wide_counter, const std::uint8_t* in, std::uint8_t* out,
                                   std::size_t len) {
  Block128 ctr = ctr0;
  std::size_t off = 0;
  // Short inputs never touch YMM state: a dirty upper half would slow the
  // SSE-encoded tail and every small packet after it.
  if (len >= 16 * 16)
    off = wide_counter ? vaes_ctr_batches<true>(keys, ctr, in, out, len)
                       : vaes_ctr_batches<false>(keys, ctr, in, out, len);
  if (off < len) aesni_ctr_xor(keys, ctr, wide_counter, in + off, out + off, len - off);
}

// ---- CBC-MAC chain ------------------------------------------------------------

/// All NR + 1 round keys of one schedule, loaded once per call. NR is a
/// compile-time constant so the round loops unroll and the keys stay in
/// XMM registers across the whole chain.
template <int NR>
struct RoundKeyRegs {
  __m128i k[NR + 1];

  MCCP_TARGET_AESNI explicit RoundKeyRegs(const AesRoundKeys& keys) {
#pragma GCC unroll 15
    for (int r = 0; r <= NR; ++r) k[r] = load_block(keys.rk[static_cast<std::size_t>(r)]);
  }

  /// E(K, x ^ rk0) given x ^ rk0: the round-key whitening is left to the
  /// caller so it can fold it into an XOR that is off the MAC chain.
  MCCP_TARGET_AESNI __m128i rounds(__m128i x) const {
#pragma GCC unroll 14
    for (int r = 1; r < NR; ++r) x = _mm_aesenc_si128(x, k[r]);
    return _mm_aesenclast_si128(x, k[NR]);
  }
};

/// Call `fn.template operator()<NR>()` with the schedule's round count as a
/// compile-time constant.
template <typename Fn>
MCCP_TARGET_AESNI inline void with_rounds(const AesRoundKeys& keys, Fn&& fn) {
  switch (keys.rounds()) {
    case 10: return fn.template operator()<10>();
    case 12: return fn.template operator()<12>();
    default: return fn.template operator()<14>();
  }
}

MCCP_TARGET_AESNI void aesni_cbc_mac_blocks(const AesRoundKeys& keys, Block128& x,
                                            const std::uint8_t* data, std::size_t nblocks) {
  if (nblocks == 0) return;
  with_rounds(keys, [&]<int NR>() MCCP_TARGET_AESNI {
    const RoundKeyRegs<NR> rk(keys);
    __m128i s = load_block(x);
    for (std::size_t i = 0; i < nblocks; ++i)
      // B_i ^ rk0 is off the chain; the chain is one XOR and NR rounds.
      s = rk.rounds(_mm_xor_si128(s, _mm_xor_si128(load_data(data + 16 * i), rk.k[0])));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(x.b.data()), s);
  });
}

// ---- multi-buffer CCM --------------------------------------------------------
//
// Each lane's step i: out_i = in_i ^ ks, the MAC absorbs the plaintext
// (in_i ^ (ks & dm): `dm` is all-ones for an opening lane, so no branch),
// and the keystream block for step i + 1 is computed beside the MAC block,
// round for round. The lanes' chains are independent, so L lanes fill the
// AESENC latency of one chain with L - 1 others. A ccm_lanes call runs in
// phases: every live lane advances until the shortest runs out and leaves;
// the lanes still running start the next phase without it. A step costs
// about the same with 1 and 4 lanes (latency-bound), so crypto::CcmLanes
// hands this kernel only as many blocks of each lane as the packet it is
// finishing has left, and resumes the other lanes in later calls.

/// One lane's live state between phases. `ks` is the keystream for the
/// lane's next block (computed one step ahead) and `ctr` the counter after
/// it, in lane form.
struct LaneState {
  __m128i m, ks, ctr, dm;
  const Block128* rk;
  const std::uint8_t* in;
  std::uint8_t* out;
  std::size_t left;
  CcmLane* lane;
};

/// Advance `steps` blocks of a phase's live lanes.
using CcmPhase = void (*)(LaneState* st, std::size_t steps);

/// L lanes as XMM registers, each loading its own round keys every round.
/// L may be 0 (a phase with no XMM lanes).
template <int NR, int L>
struct XmmLanes {
  static constexpr int kN = L > 0 ? L : 1;  // zero-length arrays are ill-formed
  __m128i m[kN], ks[kN], ctr[kN], dm[kN], c[kN];
  const Block128* rk[kN];
  const std::uint8_t* in[kN];
  std::uint8_t* out[kN];

  MCCP_TARGET_AESNI explicit XmmLanes(const LaneState* st) {
    MCCP_LANES
    for (int j = 0; j < L; ++j) {
      m[j] = st[j].m, ks[j] = st[j].ks, ctr[j] = st[j].ctr, dm[j] = st[j].dm;
      rk[j] = st[j].rk, in[j] = st[j].in, out[j] = st[j].out;
    }
  }

  /// Emit block i, absorb its plaintext, whiten the MAC and the next
  /// counter block.
  MCCP_TARGET_AESNI void begin(std::size_t i) {
    MCCP_LANES
    for (int j = 0; j < L; ++j) {
      const __m128i k0 = load_block(rk[j][0]);
      const __m128i x = load_data(in[j] + 16 * i);
      _mm_storeu_si128(reinterpret_cast<__m128i*>(out[j] + 16 * i), _mm_xor_si128(x, ks[j]));
      const __m128i p = _mm_xor_si128(x, _mm_and_si128(ks[j], dm[j]));
      m[j] = _mm_xor_si128(m[j], _mm_xor_si128(p, k0));
      c[j] = _mm_xor_si128(_mm_shuffle_epi8(ctr[j], counter_swap<true>()), k0);
      ctr[j] = counter_add<true>(ctr[j], 1);
    }
  }

  MCCP_TARGET_AESNI void round(int r) {
    MCCP_LANES
    for (int j = 0; j < L; ++j) {
      const __m128i k = load_block(rk[j][r]);
      m[j] = _mm_aesenc_si128(m[j], k);
      c[j] = _mm_aesenc_si128(c[j], k);
    }
  }

  MCCP_TARGET_AESNI void last() {
    MCCP_LANES
    for (int j = 0; j < L; ++j) {
      const __m128i k = load_block(rk[j][NR]);
      m[j] = _mm_aesenclast_si128(m[j], k);
      ks[j] = _mm_aesenclast_si128(c[j], k);
    }
  }

  MCCP_TARGET_AESNI void save(LaneState* st, std::size_t steps) const {
    MCCP_LANES
    for (int j = 0; j < L; ++j) {
      st[j].m = m[j], st[j].ks = ks[j], st[j].ctr = ctr[j];
      st[j].in += 16 * steps, st[j].out += 16 * steps;
    }
  }
};

MCCP_TARGET_VAES inline __m256i pair_of(__m128i lo, __m128i hi) {
  return _mm256_inserti128_si256(_mm256_castsi128_si256(lo), hi, 1);
}

MCCP_TARGET_VAES inline __m128i half_of(__m256i x, int h) {
  return h ? _mm256_extracti128_si256(x, 1) : _mm256_castsi256_si128(x);
}

/// 2P lanes as P YMM registers: lanes 2p and 2p + 1 share register p, and
/// their two key schedules are interleaved into YMM round keys once per
/// phase.
template <int NR, int P>
struct YmmPairs {
  __m256i m[P], ks[P], ctr[P], dm[P], c[P], rk[P][NR + 1];
  const std::uint8_t* in[2 * P];
  std::uint8_t* out[2 * P];

  MCCP_TARGET_VAES explicit YmmPairs(const LaneState* st) {
    MCCP_LANES
    for (int p = 0; p < P; ++p) {
      const LaneState &a = st[2 * p], &b = st[2 * p + 1];
      m[p] = pair_of(a.m, b.m), ks[p] = pair_of(a.ks, b.ks);
      ctr[p] = pair_of(a.ctr, b.ctr), dm[p] = pair_of(a.dm, b.dm);
#pragma GCC unroll 15
      for (int r = 0; r <= NR; ++r) rk[p][r] = pair_of(load_block(a.rk[r]), load_block(b.rk[r]));
      in[2 * p] = a.in, in[2 * p + 1] = b.in, out[2 * p] = a.out, out[2 * p + 1] = b.out;
    }
  }

  MCCP_TARGET_VAES void begin(std::size_t i) {
    const __m256i swap = _mm256_broadcastsi128_si256(counter_swap<true>());
    const __m256i one = _mm256_setr_epi32(0, 0, 0, 1, 0, 0, 0, 1);
    MCCP_LANES
    for (int p = 0; p < P; ++p) {
      const std::size_t off = 16 * i;
      const __m256i x = pair_of(load_data(in[2 * p] + off), load_data(in[2 * p + 1] + off));
      const __m256i y = _mm256_xor_si256(x, ks[p]);
      _mm_storeu_si128(reinterpret_cast<__m128i*>(out[2 * p] + off), half_of(y, 0));
      _mm_storeu_si128(reinterpret_cast<__m128i*>(out[2 * p + 1] + off), half_of(y, 1));
      const __m256i pt = _mm256_xor_si256(x, _mm256_and_si256(ks[p], dm[p]));
      m[p] = _mm256_xor_si256(m[p], _mm256_xor_si256(pt, rk[p][0]));
      c[p] = _mm256_xor_si256(_mm256_shuffle_epi8(ctr[p], swap), rk[p][0]);
      ctr[p] = _mm256_add_epi32(ctr[p], one);
    }
  }

  MCCP_TARGET_VAES void round(int r) {
    MCCP_LANES
    for (int p = 0; p < P; ++p) {
      m[p] = _mm256_aesenc_epi128(m[p], rk[p][r]);
      c[p] = _mm256_aesenc_epi128(c[p], rk[p][r]);
    }
  }

  MCCP_TARGET_VAES void last() {
    MCCP_LANES
    for (int p = 0; p < P; ++p) {
      m[p] = _mm256_aesenclast_epi128(m[p], rk[p][NR]);
      ks[p] = _mm256_aesenclast_epi128(c[p], rk[p][NR]);
    }
  }

  MCCP_TARGET_VAES void save(LaneState* st, std::size_t steps) const {
    MCCP_LANES
    for (int l = 0; l < 2 * P; ++l) {
      st[l].m = half_of(m[l / 2], l % 2);
      st[l].ks = half_of(ks[l / 2], l % 2);
      st[l].ctr = half_of(ctr[l / 2], l % 2);
      st[l].in += 16 * steps, st[l].out += 16 * steps;
    }
  }
};

template <int NR, int L>
MCCP_TARGET_AESNI void aesni_ccm_phase(LaneState* st, std::size_t steps) {
  XmmLanes<NR, L> x(st);
  for (std::size_t i = 0; i < steps; ++i) {
    x.begin(i);
#pragma GCC unroll 14
    for (int r = 1; r < NR; ++r) x.round(r);
    x.last();
  }
  x.save(st, steps);
}

/// P YMM lane pairs plus S (0 or 1) XMM lanes, round for round. Clears the
/// upper YMM state before returning.
template <int NR, int P, int S>
MCCP_TARGET_VAES void vaes_ccm_phase(LaneState* st, std::size_t steps) {
  YmmPairs<NR, P> y(st);
  XmmLanes<NR, S> x(st + 2 * P);
  for (std::size_t i = 0; i < steps; ++i) {
    y.begin(i);
    x.begin(i);
#pragma GCC unroll 14
    for (int r = 1; r < NR; ++r) {
      y.round(r);
      x.round(r);
    }
    y.last();
    x.last();
  }
  y.save(st, steps);
  x.save(st + 2 * P, steps);
  _mm256_zeroupper();
}

/// Run a ccm_lanes call of round count NR: `phases[L - 1]` advances L live
/// lanes.
template <int NR>
MCCP_TARGET_AESNI void ccm_lanes_run(CcmLane* lanes, std::size_t n, const CcmPhase* phases) {
  const __m128i swap = counter_swap<true>();
  LaneState st[kMaxCcmLanes]{};
  std::size_t live = 0;
  for (CcmLane& l : std::span(lanes, n)) {
    if (l.nblocks == 0) continue;
    LaneState& s = st[live++];
    s.rk = l.keys->rk.data();
    s.m = load_block(l.mac);
    // The first keystream block; later ones are computed a step ahead.
    const __m128i c0 = load_block(l.ctr);
    __m128i ks = _mm_xor_si128(c0, load_block(s.rk[0]));
#pragma GCC unroll 14
    for (int r = 1; r < NR; ++r) ks = _mm_aesenc_si128(ks, load_block(s.rk[r]));
    s.ks = _mm_aesenclast_si128(ks, load_block(s.rk[NR]));
    s.ctr = counter_add<true>(_mm_shuffle_epi8(c0, swap), 1);
    s.dm = l.decrypt ? _mm_set1_epi32(-1) : _mm_setzero_si128();
    s.in = l.in, s.out = l.out, s.left = l.nblocks, s.lane = &l;
  }
  while (live > 0) {
    std::size_t steps = st[0].left;
    for (std::size_t j = 1; j < live; ++j) steps = std::min(steps, st[j].left);
    phases[live - 1](st, steps);
    std::size_t kept = 0;
    for (std::size_t j = 0; j < live; ++j) {
      LaneState& s = st[j];
      s.left -= steps;
      if (s.left > 0) {
        st[kept++] = s;
        continue;
      }
      // The lane's counter is one past the spare keystream block: step
      // back to the next unused counter.
      _mm_storeu_si128(reinterpret_cast<__m128i*>(s.lane->mac.b.data()), s.m);
      _mm_storeu_si128(reinterpret_cast<__m128i*>(s.lane->ctr.b.data()),
                       _mm_shuffle_epi8(counter_add<true>(s.ctr, 0xFFFFFFFFu), swap));
    }
    live = kept;
  }
}

MCCP_TARGET_AESNI void aesni_ccm_lanes(CcmLane* lanes, std::size_t n) {
  if (n == 0) return;
  with_rounds(*lanes[0].keys, [&]<int NR>() MCCP_TARGET_AESNI {
    static constexpr CcmPhase kPhases[kMaxCcmLanes] = {
        aesni_ccm_phase<NR, 1>, aesni_ccm_phase<NR, 2>, aesni_ccm_phase<NR, 3>,
        aesni_ccm_phase<NR, 4>};
    ccm_lanes_run<NR>(lanes, n, kPhases);
  });
}

/// A lone lane stays in XMM registers: YMM state is only worth touching
/// for two or more lanes.
MCCP_TARGET_AESNI void vaes_ccm_lanes(CcmLane* lanes, std::size_t n) {
  if (n == 0) return;
  with_rounds(*lanes[0].keys, [&]<int NR>() MCCP_TARGET_AESNI {
    static constexpr CcmPhase kPhases[kMaxCcmLanes] = {
        aesni_ccm_phase<NR, 1>, vaes_ccm_phase<NR, 1, 0>, vaes_ccm_phase<NR, 1, 1>,
        vaes_ccm_phase<NR, 2, 0>};
    ccm_lanes_run<NR>(lanes, n, kPhases);
  });
}

// ---- GHASH via carry-less multiply -----------------------------------------
//
// Aggregated reduction: N blocks absorbed into y fold to
// (y ^ X_0)·H^N ^ X_1·H^(N-1) ^ ... ^ X_(N-1)·H — N independent multiplies
// whose 256-bit products are summed and reduced once. The table's powers
// are stored H^16..H^1, so the multipliers of an N-block step are its last
// N entries in block order, and a YMM pair of blocks (2j, 2j + 1) of a
// 16-block step loads its two powers with one 32-byte load.

MCCP_TARGET_AESNI MCCP_INLINE __m128i bswap128(__m128i x) {
  const __m128i rev = _mm_setr_epi8(15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0);
  return _mm_shuffle_epi8(x, rev);
}

MCCP_TARGET_AESNI MCCP_INLINE __m128i load_reflected(const std::uint8_t* p) {
  return bswap128(load_data(p));
}

/// Reduce a 256-bit reflected product, held as its three partial sums
/// (lo at bits 0..127, mid at 64..191, hi at 128..255), modulo
/// P = 1 + x + x^2 + x^7 + x^128. In the reflected layout the low register
/// bits are the high-degree terms, and x^128 = 1 + x + x^2 + x^7 moves bit
/// p up to bits p + 128, p + 127, p + 126 and p + 121: the swap of two
/// 64-bit halves and one carry-less multiply by x^63 + x^62 + x^57 (the
/// 0xC2 byte) fold lo's low half into mid, then mid's into hi. Linear in
/// its inputs, so summing several products before one reduce is exact.
MCCP_TARGET_AESNI MCCP_INLINE __m128i ghash_reduce(__m128i lo, __m128i mid, __m128i hi) {
  const __m128i poly = _mm_set_epi64x(static_cast<long long>(0xC200000000000000ull), 0);
  mid = _mm_xor_si128(mid, _mm_xor_si128(_mm_shuffle_epi32(lo, 0x4E),
                                         _mm_clmulepi64_si128(lo, poly, 0x10)));
  return _mm_xor_si128(hi, _mm_xor_si128(_mm_shuffle_epi32(mid, 0x4E),
                                         _mm_clmulepi64_si128(mid, poly, 0x10)));
}

/// The same reduction on both 128-bit lanes of a YMM sum.
MCCP_TARGET_VAES MCCP_INLINE __m256i ghash_reduce(__m256i lo, __m256i mid, __m256i hi) {
  const __m256i poly = _mm256_set_epi64x(static_cast<long long>(0xC200000000000000ull), 0,
                                         static_cast<long long>(0xC200000000000000ull), 0);
  mid = _mm256_xor_si256(mid, _mm256_xor_si256(_mm256_shuffle_epi32(lo, 0x4E),
                                               _mm256_clmulepi64_epi128(lo, poly, 0x10)));
  return _mm256_xor_si256(hi, _mm256_xor_si256(_mm256_shuffle_epi32(mid, 0x4E),
                                               _mm256_clmulepi64_epi128(mid, poly, 0x10)));
}

/// The schoolbook partial products of an aggregated step, summed: the low
/// and high 64x64-bit products and the two cross terms.
struct ClmulSum {
  __m128i lo = _mm_setzero_si128(), mid = _mm_setzero_si128(), hi = _mm_setzero_si128();

  MCCP_TARGET_AESNI MCCP_INLINE void add(__m128i x, __m128i h) {
    lo = _mm_xor_si128(lo, _mm_clmulepi64_si128(x, h, 0x00));
    hi = _mm_xor_si128(hi, _mm_clmulepi64_si128(x, h, 0x11));
    mid = _mm_xor_si128(mid, _mm_xor_si128(_mm_clmulepi64_si128(x, h, 0x10),
                                           _mm_clmulepi64_si128(x, h, 0x01)));
  }

  MCCP_TARGET_AESNI MCCP_INLINE __m128i reduce() const { return ghash_reduce(lo, mid, hi); }
};

/// The same sums two blocks per YMM register; reduce() reduces both lanes
/// and adds them.
struct YmmClmulSum {
  __m256i lo, mid, hi;

  MCCP_TARGET_VAES MCCP_INLINE YmmClmulSum()
      : lo(_mm256_setzero_si256()), mid(_mm256_setzero_si256()), hi(_mm256_setzero_si256()) {}

  MCCP_TARGET_VAES MCCP_INLINE void add(__m256i x, __m256i h) {
    lo = _mm256_xor_si256(lo, _mm256_clmulepi64_epi128(x, h, 0x00));
    hi = _mm256_xor_si256(hi, _mm256_clmulepi64_epi128(x, h, 0x11));
    mid = _mm256_xor_si256(mid, _mm256_xor_si256(_mm256_clmulepi64_epi128(x, h, 0x10),
                                                 _mm256_clmulepi64_epi128(x, h, 0x01)));
  }

  /// Absorb blocks 2j and 2j + 1 of a 16-block step at `data`; block 0
  /// carries the running digest `acc`.
  MCCP_TARGET_VAES MCCP_INLINE void add_pair(int j, const std::uint8_t* data,
                                             const std::uint8_t* pw, __m128i acc) {
    const __m256i rev = _mm256_broadcastsi128_si256(
        _mm_setr_epi8(15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0));
    __m256i x = _mm256_shuffle_epi8(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(data + 32 * j)), rev);
    if (j == 0) x = _mm256_xor_si256(x, _mm256_zextsi128_si256(acc));
    add(x, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(pw + 32 * j)));
  }

  MCCP_TARGET_VAES MCCP_INLINE __m128i reduce() const {
    const __m256i r = ghash_reduce(lo, mid, hi);
    return _mm_xor_si128(half_of(r, 0), half_of(r, 1));
  }
};

/// Absorb N blocks with one reduction.
template <int N>
MCCP_TARGET_AESNI MCCP_INLINE __m128i ghash_step(__m128i acc, const std::uint8_t* data,
                                            const std::uint8_t* pw) {
  const std::uint8_t* h = pw + 16 * (kClmulPowers - N);
  ClmulSum s;
  // Block 0, the one that waits on the previous step, is summed last.
  MCCP_LANES
  for (int i = 1; i < N; ++i) s.add(load_reflected(data + 16 * i), load_data(h + 16 * i));
  s.add(_mm_xor_si128(load_reflected(data), acc), load_data(h));
  return s.reduce();
}

/// Absorb 16 blocks with one reduction, two per YMM register.
MCCP_TARGET_VAES MCCP_INLINE __m128i ghash_step16(__m128i acc, const std::uint8_t* data,
                                             const std::uint8_t* pw) {
  YmmClmulSum s;
  // Pair 0, the one that waits on the previous step, is summed last.
  MCCP_LANES
  for (int j = 1; j < 8; ++j) s.add_pair(j, data, pw, acc);
  s.add_pair(0, data, pw, acc);
  return s.reduce();
}

/// Absorb `nblocks` blocks in XMM registers: 8 per reduction, and what
/// is left (1..7 blocks) in one more.
MCCP_TARGET_AESNI __m128i ghash_xmm(__m128i acc, const std::uint8_t* data, std::size_t nblocks,
                                    const std::uint8_t* pw) {
  for (; nblocks >= 8; nblocks -= 8, data += 16 * 8) acc = ghash_step<8>(acc, data, pw);
  switch (nblocks) {
    case 1: return ghash_step<1>(acc, data, pw);
    case 2: return ghash_step<2>(acc, data, pw);
    case 3: return ghash_step<3>(acc, data, pw);
    case 4: return ghash_step<4>(acc, data, pw);
    case 5: return ghash_step<5>(acc, data, pw);
    case 6: return ghash_step<6>(acc, data, pw);
    case 7: return ghash_step<7>(acc, data, pw);
    default: return acc;
  }
}

/// x^-1 * a for a reflected `a`: a one-bit left shift of the register,
/// and, for a's x^0 term (bit 127) shifted out, x^-1 = 1 + x + x^6 + x^127
/// folded back in (bits 127, 126, 121 and 0).
MCCP_TARGET_AESNI __m128i times_x_inverse(__m128i a) {
  const __m128i carries = _mm_srli_epi64(a, 63);
  __m128i r = _mm_or_si128(_mm_slli_epi64(a, 1), _mm_slli_si128(carries, 8));
  if (_mm_extract_epi16(a, 7) & 0x8000)
    r = _mm_xor_si128(r, _mm_set_epi64x(static_cast<long long>(0xC200000000000000ull), 1));
  return r;
}

MCCP_TARGET_AESNI bool build_powers_impl(const Block128& h, std::uint8_t* out) {
  // H^(i+1) = H^i * H: a product with the stored (x^-1 scaled) H is H^(i+1)
  // itself.
  const __m128i h1 = load_reflected(h.b.data());
  const __m128i stored_h1 = times_x_inverse(h1);
  __m128i p = h1;
  for (std::size_t i = 1; i <= kClmulPowers; ++i) {
    const __m128i stored = i == 1 ? stored_h1 : times_x_inverse(p);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + 16 * (kClmulPowers - i)), stored);
    ClmulSum s;
    s.add(p, stored_h1);
    p = s.reduce();
  }
  return true;
}

MCCP_TARGET_AESNI Block128 clmul_ghash_mul(const Gf128Table& table, const Block128& x) {
  const std::uint8_t* pw = table.clmul_powers();
  if (!pw) return table.mul(x);  // table predates CLMUL support: exact fallback
  Block128 out;
  _mm_storeu_si128(reinterpret_cast<__m128i*>(out.b.data()),
                   bswap128(ghash_step<1>(_mm_setzero_si128(), x.b.data(), pw)));
  return out;
}

MCCP_TARGET_AESNI void clmul_ghash_blocks(const Gf128Table& table, Block128& y,
                                          const std::uint8_t* data, std::size_t nblocks) {
  const std::uint8_t* pw = table.clmul_powers();
  if (!pw) {  // table predates CLMUL support: exact fallback
    for (std::size_t i = 0; i < nblocks; ++i)
      y = table.mul(y ^ Block128::from_span(ByteSpan(data + 16 * i, 16)));
    return;
  }
  _mm_storeu_si128(reinterpret_cast<__m128i*>(y.b.data()),
                   bswap128(ghash_xmm(load_reflected(y.b.data()), data, nblocks, pw)));
}

/// 16 blocks per reduction in YMM registers; fewer than 16 blocks never
/// touch YMM state.
MCCP_TARGET_VAES void vaes_ghash_blocks(const Gf128Table& table, Block128& y,
                                        const std::uint8_t* data, std::size_t nblocks) {
  const std::uint8_t* pw = table.clmul_powers();
  if (!pw || nblocks < 16) return clmul_ghash_blocks(table, y, data, nblocks);
  __m128i acc = load_reflected(y.b.data());
  for (; nblocks >= 16; nblocks -= 16, data += 16 * 16) acc = ghash_step16(acc, data, pw);
  _mm256_zeroupper();
  acc = ghash_xmm(acc, data, nblocks, pw);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(y.b.data()), bswap128(acc));
}

// ---- kernel tables ----------------------------------------------------------

constexpr CryptoKernels kAesniKernels{
    "aesni",           aesni_encrypt,        aesni_decrypt,
    aesni_ctr_xor,     aesni_cbc_mac_blocks, aesni_ccm_lanes,
    clmul_ghash_mul,   clmul_ghash_blocks,
};

// One CBC-MAC chain is latency-bound, so the VAES tier shares the AES-NI
// chain kernel; CCM lanes pair up in YMM registers.
constexpr CryptoKernels kVaesKernels{
    "vaes",            aesni_encrypt,        aesni_decrypt,
    vaes_ctr_xor,      aesni_cbc_mac_blocks, vaes_ccm_lanes,
    clmul_ghash_mul,   vaes_ghash_blocks,
};

}  // namespace

namespace detail {

bool build_clmul_powers(const Block128& h, std::uint8_t* out) {
  static const bool have = cpu_has_aesni();  // needs PCLMULQDQ + SSSE3
  if (!have) return false;
  return build_powers_impl(h, out);
}

const CryptoKernels* aesni_kernels() {
  static const CryptoKernels* k = cpu_has_aesni() ? &kAesniKernels : nullptr;
  return k;
}

const CryptoKernels* vaes_kernels() {
  static const CryptoKernels* k = cpu_has_vaes() ? &kVaesKernels : nullptr;
  return k;
}

}  // namespace detail
}  // namespace mccp::crypto

#else  // !MCCP_X86_KERNELS — portable-only builds (non-x86, other compilers)

namespace mccp::crypto::detail {

bool build_clmul_powers(const Block128&, std::uint8_t*) { return false; }
const CryptoKernels* aesni_kernels() { return nullptr; }
const CryptoKernels* vaes_kernels() { return nullptr; }

}  // namespace mccp::crypto::detail

#endif
