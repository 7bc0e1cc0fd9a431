// The row-table Whirlpool against the byte-wise reference in
// support/whirlpool_reference.h: the raw compression on random chaining
// values and blocks, the padded hash at every message length across several
// blocks, and the incremental hasher fed in random pieces. All inputs are
// seeded, so a mismatch reproduces.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <vector>

#include "common/hex.h"
#include "common/rng.h"
#include "crypto/whirlpool.h"
#include "support/whirlpool_reference.h"

namespace mccp::crypto {
namespace {

namespace ref = mccp::testing::whirlpool_ref;

std::string hex(const std::array<std::uint8_t, 64>& a) {
  return to_hex(ByteSpan(a.data(), a.size()));
}

TEST(WhirlpoolDifferential, SboxMatchesOracle) {
  for (int x = 0; x < 256; ++x)
    EXPECT_EQ(whirlpool_sbox(static_cast<std::uint8_t>(x)),
              ref::sbox()[static_cast<std::size_t>(x)])
        << x;
}

TEST(WhirlpoolDifferential, CompressionMatchesOracleOnRandomPairs) {
  Rng rng(0x5EED'0001);
  std::vector<std::pair<ref::State, ref::State>> cases;
  // Fixed corners first: all-zero and all-ones chaining values and blocks.
  for (std::uint8_t hv : {0x00, 0xFF})
    for (std::uint8_t bv : {0x00, 0xFF}) {
      ref::State h, b;
      h.fill(hv);
      b.fill(bv);
      cases.emplace_back(h, b);
    }
  for (int i = 0; i < 10'000; ++i) {
    ref::State h, b;
    rng.fill(h.data(), h.size());
    rng.fill(b.data(), b.size());
    cases.emplace_back(h, b);
  }
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    auto [h, block] = cases[i];
    std::array<std::uint8_t, 64> got = h;
    whirlpool_compress(got, block.data());
    ref::compress(h, block.data());
    if (got != h && ++mismatches <= 3)
      ADD_FAILURE() << "case " << i << ": got " << hex(got) << ", oracle " << hex(h);
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(WhirlpoolDifferential, EveryLengthMatchesOracleHash) {
  // 0..1100 bytes covers every padding shape (the 0x80 and the length
  // field in the same block or spilling into the next) over 18 blocks.
  Rng rng(0x5EED'0002);
  const Bytes message = rng.bytes(1100);
  for (std::size_t n = 0; n <= message.size(); ++n) {
    ByteSpan m(message.data(), n);
    const Bytes padded = ref::pad(m);
    ASSERT_EQ(whirlpool_padded_len(n), padded.size()) << n;
    ASSERT_EQ(whirlpool_pad(m), padded) << n;
    ASSERT_EQ(hex(whirlpool(m)), hex(ref::hash(m))) << n;
  }
}

TEST(WhirlpoolDifferential, RandomlySplitUpdatesMatchOneShot) {
  Rng rng(0x5EED'0003);
  Whirlpool w;  // reused across trials through reset()
  for (int trial = 0; trial < 400; ++trial) {
    const Bytes message = rng.bytes(rng.next_below(1101));
    std::size_t off = 0;
    while (off < message.size()) {
      // Pieces from empty to just over two blocks, so buffered remainders
      // both fill up and get skipped past.
      std::size_t take = std::min<std::size_t>(rng.next_below(140), message.size() - off);
      w.update(ByteSpan(message.data() + off, take));
      off += take;
    }
    ASSERT_EQ(hex(w.digest()), hex(whirlpool(message)))
        << "trial " << trial << ", " << message.size() << " bytes";
    w.reset();
  }
}

}  // namespace
}  // namespace mccp::crypto
