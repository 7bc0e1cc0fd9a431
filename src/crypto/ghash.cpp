#include "crypto/ghash.h"

#include <cstring>
#include <stdexcept>

namespace mccp::crypto {

void Ghash::update_padded(ByteSpan data) {
  const CryptoKernels& k = active_kernels();
  const std::size_t full = data.size() / 16;
  if (data.size() % 16 == 0) {
    if (full != 0) k.ghash_blocks(table(), y_, data.data(), full);
    return;
  }
  // The zero-padded tail goes through the bulk kernel together with up to
  // seven full blocks before it, so a short input (an AAD, an IV) costs
  // one aggregated reduction rather than a chain of single-block ones.
  constexpr std::size_t kCopied = 8;
  const std::size_t head = full >= kCopied ? full - (kCopied - 1) : 0;
  if (head != 0) k.ghash_blocks(table(), y_, data.data(), head);
  const std::size_t rest = data.size() - 16 * head;
  std::uint8_t buf[16 * kCopied];
  std::memcpy(buf, data.data() + 16 * head, rest);
  std::memset(buf + rest, 0, 16 - rest % 16);
  k.ghash_blocks(table(), y_, buf, rest / 16 + 1);
}

Block128 ghash(const Block128& h, ByteSpan data) {
  if (data.size() % 16 != 0) throw std::invalid_argument("ghash: data must be block-aligned");
  Ghash g(h);
  g.update_padded(data);
  return g.digest();
}

}  // namespace mccp::crypto
