#include "crypto/whirlpool.h"

#include <cstring>

namespace mccp::crypto {

namespace {

// --- S-box from the E / E^-1 / R mini-boxes (ISO/IEC 10118-3 annex) -------

constexpr std::uint8_t kE[16] = {0x1, 0xB, 0x9, 0xC, 0xD, 0x6, 0xF, 0x3,
                                 0xE, 0x8, 0x7, 0x4, 0xA, 0x2, 0x5, 0x0};
constexpr std::uint8_t kR[16] = {0x7, 0xC, 0xB, 0xD, 0xE, 0x4, 0x9, 0xF,
                                 0x6, 0x3, 0x8, 0xA, 0x2, 0x5, 0x1, 0x0};

// GF(2^8) with the Whirlpool polynomial x^8 + x^4 + x^3 + x^2 + 1 (0x11D).
constexpr std::uint8_t wp_xtime(std::uint8_t a) {
  return static_cast<std::uint8_t>((a << 1) ^ ((a & 0x80) ? 0x1D : 0x00));
}
constexpr std::uint8_t wp_mul(std::uint8_t a, std::uint8_t b) {
  std::uint8_t p = 0;
  for (int i = 0; i < 8; ++i) {
    if (b & 1) p ^= a;
    a = wp_xtime(a);
    b >>= 1;
  }
  return p;
}

// The MDS diffusion matrix is circulant: row 0 is (1, 1, 4, 1, 8, 5, 2, 9),
// row r is row 0 rotated right by r.
constexpr std::uint8_t kCir[8] = {0x01, 0x01, 0x04, 0x01, 0x08, 0x05, 0x02, 0x09};

constexpr std::uint64_t rotr64(std::uint64_t x, unsigned n) {
  return n == 0 ? x : (x >> n) | (x << (64 - n));
}

// The 512-bit state is an 8x8 byte matrix, byte k at row k/8, column k%8;
// each row is held as one big-endian word (column 0 in the top byte).
//
// One round's SubBytes + ShiftColumns + MixRows (rho) then reduces to eight
// lookups per output row: ShiftColumns moves column c of row i - c down to
// row i, and MixRows spreads a substituted byte b sitting in column c over
// the row as b * (circulant row 0 shifted right by c columns). So
// c[t][x] = c[0][x] rotated right by 8t bits, where c[0][x] packs
// S(x) * (1, 1, 4, 1, 8, 5, 2, 9).
struct WpTables {
  std::uint8_t sbox[256]{};
  std::uint64_t c[8][256]{};
  std::uint64_t rc[Whirlpool::kRounds + 1]{};  // rc[r] for rounds 1..kRounds

  constexpr WpTables() {
    std::uint8_t einv[16]{};
    for (int i = 0; i < 16; ++i) einv[kE[i]] = static_cast<std::uint8_t>(i);
    for (int x = 0; x < 256; ++x) {
      std::uint8_t hi = kE[x >> 4];
      std::uint8_t lo = einv[x & 0xF];
      std::uint8_t y = kR[hi ^ lo];
      sbox[x] = static_cast<std::uint8_t>((kE[hi ^ y] << 4) | einv[lo ^ y]);
    }
    for (int x = 0; x < 256; ++x) {
      std::uint64_t row = 0;
      for (int k = 0; k < 8; ++k) row = (row << 8) | wp_mul(sbox[x], kCir[k]);
      for (unsigned t = 0; t < 8; ++t) c[t][x] = rotr64(row, 8 * t);
    }
    // Round constant r: first row is S[8(r-1)] .. S[8(r-1)+7], rest zero.
    for (int r = 1; r <= Whirlpool::kRounds; ++r) {
      std::uint64_t row = 0;
      for (int j = 0; j < 8; ++j) row = (row << 8) | sbox[8 * (r - 1) + j];
      rc[r] = row;
    }
  }
};

constexpr WpTables kWp;

using Rows = std::uint64_t[8];

std::uint64_t load_be64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v = (v << 8) | p[i];
  return v;
}

void store_be64(std::uint8_t* p, std::uint64_t v) {
  for (int i = 7; i >= 0; --i) {
    p[i] = static_cast<std::uint8_t>(v);
    v >>= 8;
  }
}

// out = rho(in): SubBytes, ShiftColumns and MixRows through the row tables.
void rho(Rows out, const Rows in) {
  for (unsigned i = 0; i < 8; ++i) {
    out[i] = kWp.c[0][in[i] >> 56] ^
             kWp.c[1][(in[(i + 7) & 7] >> 48) & 0xFF] ^
             kWp.c[2][(in[(i + 6) & 7] >> 40) & 0xFF] ^
             kWp.c[3][(in[(i + 5) & 7] >> 32) & 0xFF] ^
             kWp.c[4][(in[(i + 4) & 7] >> 24) & 0xFF] ^
             kWp.c[5][(in[(i + 3) & 7] >> 16) & 0xFF] ^
             kWp.c[6][(in[(i + 2) & 7] >> 8) & 0xFF] ^
             kWp.c[7][in[(i + 1) & 7] & 0xFF];
  }
}

}  // namespace

std::uint8_t whirlpool_sbox(std::uint8_t x) { return kWp.sbox[x]; }

void whirlpool_compress(std::array<std::uint8_t, 64>& h, const std::uint8_t block[64]) {
  Rows m{}, k{}, s{}, next{};
  for (std::size_t i = 0; i < 8; ++i) {
    m[i] = load_be64(block + 8 * i);
    k[i] = load_be64(h.data() + 8 * i);
    s[i] = m[i] ^ k[i];  // sigma[K^0]
  }
  for (int r = 1; r <= Whirlpool::kRounds; ++r) {
    rho(next, k);
    next[0] ^= kWp.rc[r];
    std::memcpy(k, next, sizeof k);
    rho(next, s);
    for (std::size_t i = 0; i < 8; ++i) s[i] = next[i] ^ k[i];
  }
  // Miyaguchi-Preneel: H <- W(H, m) ^ H ^ m.
  for (std::size_t i = 0; i < 8; ++i) {
    std::uint8_t* row = h.data() + 8 * i;
    store_be64(row, load_be64(row) ^ s[i] ^ m[i]);
  }
}

Bytes whirlpool_pad(ByteSpan message) {
  Bytes out(whirlpool_padded_len(message.size()), 0);
  if (!message.empty()) std::memcpy(out.data(), message.data(), message.size());
  out[message.size()] = 0x80;
  // 256-bit big-endian length field; we carry the low 64 bits.
  store_be64(out.data() + out.size() - 8, static_cast<std::uint64_t>(message.size()) * 8);
  return out;
}

void Whirlpool::compress(const std::uint8_t* block) { whirlpool_compress(h_, block); }

void Whirlpool::update(ByteSpan data) {
  total_bytes_ += data.size();
  std::size_t off = 0;
  if (buf_len_ > 0) {
    std::size_t take = std::min(data.size(), kBlockSize - buf_len_);
    std::memcpy(buf_.data() + buf_len_, data.data(), take);
    buf_len_ += take;
    off = take;
    if (buf_len_ == kBlockSize) {
      compress(buf_.data());
      buf_len_ = 0;
    }
  }
  while (off + kBlockSize <= data.size()) {
    compress(data.data() + off);
    off += kBlockSize;
  }
  if (off < data.size()) {
    std::memcpy(buf_.data(), data.data() + off, data.size() - off);
    buf_len_ = data.size() - off;
  }
}

std::array<std::uint8_t, Whirlpool::kDigestSize> Whirlpool::digest() {
  // The tail of whirlpool_pad: 0x80, zeros, then the 256-bit big-endian bit
  // length (we only track 64 bits of it; the upper 192 bits are zero).
  // Padding depends only on the length mod 64, so the buffered remainder
  // gives its size.
  std::array<std::uint8_t, 2 * kBlockSize> pad{};
  const std::size_t pad_len = whirlpool_padded_len(buf_len_) - buf_len_;
  pad[0] = 0x80;
  store_be64(pad.data() + pad_len - 8, total_bytes_ * 8);
  update(ByteSpan(pad.data(), pad_len));
  // After padding, buf_len_ is zero and total length is block-aligned.
  std::array<std::uint8_t, kDigestSize> out;
  std::memcpy(out.data(), h_.data(), kDigestSize);
  return out;
}

void Whirlpool::reset() {
  h_.fill(0);
  buf_.fill(0);
  buf_len_ = 0;
  total_bytes_ = 0;
}

std::array<std::uint8_t, Whirlpool::kDigestSize> whirlpool(ByteSpan data) {
  Whirlpool w;
  w.update(data);
  return w.digest();
}

}  // namespace mccp::crypto
