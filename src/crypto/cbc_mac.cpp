#include "crypto/cbc_mac.h"

#include <stdexcept>

#include "crypto/kernels.h"

namespace mccp::crypto {

void CbcMac::update_padded(ByteSpan data) {
  const std::size_t full = data.size() / 16;
  active_kernels().cbc_mac_blocks(*keys_, x_, data.data(), full);
  if (16 * full < data.size()) update(Block128::from_span(data.subspan(16 * full)));
}

Block128 cbc_mac(const AesRoundKeys& keys, ByteSpan data) {
  if (data.size() % 16 != 0) throw std::invalid_argument("cbc_mac: data must be block-aligned");
  CbcMac m(keys);
  m.update_padded(data);
  return m.mac();
}

}  // namespace mccp::crypto
