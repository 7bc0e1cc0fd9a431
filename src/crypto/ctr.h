// AES-CTR mode (NIST SP 800-38A §6.5).
//
// The counter block is incremented as a 32-bit big-endian integer in its
// least significant word (the GCM "inc32" convention), which also covers the
// MCCP hardware behaviour: the Cryptographic Unit's INC core increments the
// 16 LSBs, sufficient for the <= 128-block packets the FIFOs can hold.
#pragma once

#include "common/bytes.h"
#include "crypto/aes.h"

namespace mccp::crypto {

/// Increment the low 32 bits of a counter block (GCM inc32).
Block128 inc32(Block128 ctr);

/// Increment the low 16 bits by `step` (1..4), exactly what the paper's INC
/// processing core implements ("Inc Core allows 16-bit incrementation by
/// 1, 2, 3 or 4 of a 128-bit word").
Block128 inc16(Block128 ctr, unsigned step);

/// CTR keystream transform: out[i] = in[i] ^ E(K, ctr + i). Encryption and
/// decryption are the same operation. Internally generates the keystream in
/// multi-block batches and XORs it in word-wide.
Bytes ctr_transform(const AesRoundKeys& keys, const Block128& initial_ctr, ByteSpan data);

/// The same transform with the MCCP INC core's counter semantics: only the
/// low 16 bits increment (inc16), so the counter wraps at 0xFFFF instead
/// of carrying into byte 13. This is what the simulated hardware computes.
/// Identical to ctr_transform whenever the initial counter's low 16 bits
/// stay at least `blocks` below 0x10000. It copies `data` and runs
/// ctr_transform_inc16_in_place on the copy.
Bytes ctr_transform_inc16(const AesRoundKeys& keys, const Block128& initial_ctr, ByteSpan data);

/// The inc16 transform in place: data[i] ^= E(K, ctr + i). host::FastDevice
/// runs it on the job's own payload buffer, so both backends stay
/// bit-identical even on counter wrap.
void ctr_transform_inc16_in_place(const AesRoundKeys& keys, const Block128& initial_ctr,
                                  MutableByteSpan data);

}  // namespace mccp::crypto
