// Runtime-dispatched crypto kernels.
//
// The portable T-table AES and Shoup-table GHASH in aes.cpp / gf128.cpp are
// the golden reference: always compiled, always the differential oracle. On
// x86 hardware with the AES-NI and PCLMULQDQ extensions (optionally VAES +
// VPCLMULQDQ + AVX2 for 2x-wide pipelining), a `CryptoKernels`
// function-pointer set selected once at startup routes the block-level hot
// paths — single-block AES, multi-block CTR keystream, the CBC-MAC chain,
// multi-buffer CCM, GHASH — through the hardware instructions instead. The
// hardware tiers keep round keys, counters and the MAC chains in registers:
// counters step with one SIMD lane add per block, the CCM kernel runs up
// to kMaxCcmLanes independent packets side by side, each lane interleaving
// its serial CBC-MAC chain with its CTR keystream — the way the paper runs
// independent packets on independent cores and pairs a CTR core with a
// CBC-MAC core — and GHASH makes one reduction per 16 blocks on `vaes` and
// per 8 on `aesni`. The GCM, CCM and CTR callers run these kernels in
// place (`in` == `out`) on one buffer: host::FastDevice's job payload, or a
// copy of the input for the out-of-place crypto:: calls. Outputs are
// bit-identical by construction (the instructions implement the same field
// math), and the cross-kernel suite in tests/crypto/kernel_dispatch_test.cpp
// plus the tier-parametrized KAT and backend-differential suites enforce it.
//
// Dispatch never touches the calibrated cost model: modeled cycles,
// `device_cycles` and completion stamps are computed from block counts, not
// from which kernel ran, so switching tiers changes wall clock only.
//
// Selection order: the `MCCP_CRYPTO_KERNEL` environment variable (or
// set_crypto_kernel(), which the benches' `--kernel` flag and the tests
// call) names a tier — "auto" picks the best the CPU supports, "portable"
// forces the reference, "aesni"/"vaes" force a specific hardware tier and
// throw when the CPU lacks it. An unrecognized env value warns and falls
// back to auto, so a stale deployment setting can never break startup.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.h"
#include "crypto/aes.h"
#include "crypto/gf128.h"

namespace mccp::crypto {

/// Most packets one ccm_lanes call runs side by side.
inline constexpr std::size_t kMaxCcmLanes = 4;

/// One packet's next full CCM payload blocks in a ccm_lanes call: out_i = in_i ^
/// E(K, ctr_i) with the inc32 counter walk, and the CBC-MAC chain absorbs
/// the plaintext — `in_i` when sealing, `out_i` when opening (`decrypt`).
/// The kernel leaves `mac` at the chained value and `ctr` at the next
/// unused counter, so a caller that moves `in` and `out` past the blocks
/// run can resume the packet in a later call; a lane of 0 blocks is left
/// untouched. `in` and `out` may alias exactly.
struct CcmLane {
  const AesRoundKeys* keys = nullptr;
  Block128 mac;
  Block128 ctr;
  bool decrypt = false;
  const std::uint8_t* in = nullptr;
  std::uint8_t* out = nullptr;
  std::size_t nblocks = 0;
};

/// The dispatchable hot-path kernel set. Every entry is bit-identical to
/// the portable reference; only throughput differs.
struct CryptoKernels {
  const char* name;  // "portable" | "aesni" | "vaes"

  Block128 (*aes_encrypt)(const AesRoundKeys& keys, const Block128& in);
  Block128 (*aes_decrypt)(const AesRoundKeys& keys, const Block128& in);

  /// CTR keystream XOR: out[i] = in[i] ^ E(K, ctr_i) with ctr_0 = `ctr` and
  /// ctr_{i+1} = inc32(ctr_i) when `wide_counter`, inc16(ctr_i, 1) otherwise
  /// (the MCCP INC core's 16-bit walk, wrapping at 0xFFFF). `in` and `out`
  /// may alias exactly; `len` need not be block-aligned.
  void (*ctr_xor)(const AesRoundKeys& keys, const Block128& ctr, bool wide_counter,
                  const std::uint8_t* in, std::uint8_t* out, std::size_t len);

  /// CBC-MAC chain over `nblocks` contiguous 16-byte blocks:
  /// x <- E(K, x ^ B_i) for each block in order. `nblocks` may be 0.
  void (*cbc_mac_blocks)(const AesRoundKeys& keys, Block128& x, const std::uint8_t* data,
                         std::size_t nblocks);

  /// Multi-buffer one-pass CCM over `n` (1..kMaxCcmLanes) independent
  /// lanes, see CcmLane. Every lane's keys must have the same round count.
  /// Lanes advance block for block, round for round; a lane that runs out
  /// leaves, and the rest carry on, still interleaved. A call runs about
  /// as long as its longest lane, so crypto::CcmLanes keeps the lanes
  /// full: it resumes a lane from its `mac` and `ctr` in a later call,
  /// beside lanes of packets that started later.
  void (*ccm_lanes)(CcmLane* lanes, std::size_t n);

  /// X * H in GF(2^128) for the table's fixed H — the GHASH absorb step.
  Block128 (*ghash_mul)(const Gf128Table& table, const Block128& x);

  /// Absorb `nblocks` contiguous 16-byte blocks: y <- (y ^ X_i) * H folded
  /// over all blocks. Hardware tiers aggregate blocks per reduction using
  /// the table's cached powers of H: 16 in YMM registers on `vaes` (for 16
  /// blocks or more), 8 in XMM, and the rest (1..7 blocks) in one more.
  void (*ghash_blocks)(const Gf128Table& table, Block128& y, const std::uint8_t* data,
                       std::size_t nblocks);
};

/// Kernel tiers, weakest to strongest.
enum class KernelTier : std::uint8_t { kPortable = 0, kAesni = 1, kVaes = 2 };

/// Best tier this CPU (and OS, for the YMM state of kVaes) supports. kVaes
/// needs VAES, VPCLMULQDQ and AVX2 besides kAesni's AES-NI, PCLMULQDQ and
/// SSSE3.
/// Detected once; never affected by the override.
KernelTier detected_kernel_tier();

/// The currently dispatched kernel set. First use resolves the
/// MCCP_CRYPTO_KERNEL environment override; afterwards it is a single
/// atomic pointer load, safe from any thread.
const CryptoKernels& active_kernels();

/// Name of the currently dispatched kernel set ("portable"|"aesni"|"vaes").
const char* active_kernel_name();

/// Force a tier at runtime: "auto" re-detects, "portable" forces the
/// reference kernels, "aesni"/"vaes" force a hardware tier. Throws
/// std::invalid_argument for unknown names or tiers this CPU cannot run.
/// Callers flipping tiers mid-process (tests, benches) must not race
/// in-flight crypto on other threads.
void set_crypto_kernel(std::string_view name);

/// Every tier name set_crypto_kernel() would accept on this host,
/// strongest last (always contains "portable" and "auto").
std::vector<std::string> supported_crypto_kernels();

namespace detail {

/// Fill `out` with H^16..H^1 (kClmulPowers entries of 16 bytes, highest
/// power first) in the byte-reflected form the CLMUL GHASH kernels consume.
/// Returns false (leaving `out` untouched) when the CPU lacks PCLMULQDQ —
/// Gf128Table::load() calls this eagerly so a table built before a tier
/// flip still carries the powers.
bool build_clmul_powers(const Block128& h, std::uint8_t* out);

/// Hardware kernel sets, or nullptr when this build/CPU cannot run them.
/// Implemented in kernels_x86.cpp (stubs elsewhere).
const CryptoKernels* aesni_kernels();
const CryptoKernels* vaes_kernels();

}  // namespace detail

}  // namespace mccp::crypto
