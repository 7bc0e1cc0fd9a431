#include "crypto/ctr.h"

#include "crypto/kernels.h"

namespace mccp::crypto {

Block128 inc32(Block128 ctr) {
  std::uint32_t low = ctr.word(3) + 1;
  ctr.set_word(3, low);
  return ctr;
}

Block128 inc16(Block128 ctr, unsigned step) {
  std::uint16_t low = static_cast<std::uint16_t>((std::uint16_t{ctr.b[14]} << 8) | ctr.b[15]);
  low = static_cast<std::uint16_t>(low + step);
  ctr.b[14] = static_cast<std::uint8_t>(low >> 8);
  ctr.b[15] = static_cast<std::uint8_t>(low);
  return ctr;
}

namespace {

/// `data` copied and run through the keystream in place.
Bytes transform_copy(const AesRoundKeys& keys, const Block128& initial_ctr, bool wide_counter,
                     ByteSpan data) {
  Bytes out(data.begin(), data.end());
  active_kernels().ctr_xor(keys, initial_ctr, wide_counter, out.data(), out.data(), out.size());
  return out;
}

}  // namespace

Bytes ctr_transform(const AesRoundKeys& keys, const Block128& initial_ctr, ByteSpan data) {
  return transform_copy(keys, initial_ctr, /*wide_counter=*/true, data);
}

Bytes ctr_transform_inc16(const AesRoundKeys& keys, const Block128& initial_ctr, ByteSpan data) {
  return transform_copy(keys, initial_ctr, /*wide_counter=*/false, data);
}

void ctr_transform_inc16_in_place(const AesRoundKeys& keys, const Block128& initial_ctr,
                                  MutableByteSpan data) {
  active_kernels().ctr_xor(keys, initial_ctr, /*wide_counter=*/false, data.data(), data.data(),
                           data.size());
}

}  // namespace mccp::crypto
