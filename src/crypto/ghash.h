// GHASH (SP 800-38D §6.4): the universal hash underlying GCM authentication.
//
// Besides the one-shot helper, an incremental `Ghash` object mirrors how the
// paper's GHASH processing core is driven: LOADH loads the hash subkey H,
// each SGFM instruction absorbs one 128-bit block, FGFM reads the digest.
#pragma once

#include <optional>

#include "common/bytes.h"
#include "crypto/gf128.h"
#include "crypto/kernels.h"

namespace mccp::crypto {

/// Incremental GHASH accumulator. Loading H precomputes Shoup 8-bit
/// multiplication tables (Gf128Table), so each absorbed block costs 16
/// table lookups instead of a 128-iteration bit-serial multiply; property
/// tests pin the result to the reference gf128_mul.
class Ghash {
 public:
  Ghash() : owned_(std::in_place) {}
  explicit Ghash(const Block128& h) : owned_(std::in_place, h) {}
  /// Borrow a prebuilt table (e.g. a cached per-key `crypto::GcmKey`):
  /// skips the 256-multiple table build, and holds no table of its own.
  /// The table must outlive this accumulator.
  explicit Ghash(const Gf128Table& shared) : shared_(&shared) {}

  /// Load a new hash subkey (resets the accumulator and owns the table).
  void load_h(const Block128& h) {
    owned_.emplace(h);
    shared_ = nullptr;
    y_ = Block128{};
  }

  /// Absorb one 128-bit block: Y <- (Y ^ X) * H. Dispatches to the active
  /// kernel tier (CLMUL where available; Shoup table otherwise).
  void update(const Block128& x) { y_ = active_kernels().ghash_mul(table(), y_ ^ x); }

  /// Absorb a byte string, zero-padding the final partial block. Full
  /// blocks go through the bulk ghash_blocks kernel (16 blocks per
  /// reduction on `vaes`, 8 on `aesni`); the padded tail joins the last
  /// few of them in one call.
  void update_padded(ByteSpan data);

  const Block128& digest() const { return y_; }
  const Block128& h() const { return table().h(); }

 private:
  const Gf128Table& table() const { return owned_ ? *owned_ : *shared_; }

  std::optional<Gf128Table> owned_;  // empty when borrowing
  const Gf128Table* shared_ = nullptr;
  Block128 y_{};
};

/// One-shot GHASH over `data` (must be a multiple of 16 bytes).
Block128 ghash(const Block128& h, ByteSpan data);

}  // namespace mccp::crypto
