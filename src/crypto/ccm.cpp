#include "crypto/ccm.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "crypto/kernels.h"

namespace mccp::crypto {

bool ccm_params_valid(const CcmParams& p) {
  bool tag_ok = p.tag_len >= 4 && p.tag_len <= 16 && p.tag_len % 2 == 0;
  bool nonce_ok = p.nonce_len >= 7 && p.nonce_len <= 13;
  return tag_ok && nonce_ok;
}

Block128 ccm_b0(const CcmParams& p, ByteSpan nonce, std::size_t aad_len, std::size_t msg_len) {
  if (!ccm_length_fits(p.nonce_len, msg_len))
    throw std::invalid_argument("ccm: message too long for nonce length");
  const std::size_t q = 15 - p.nonce_len;
  Block128 b0{};
  std::uint8_t flags = 0;
  if (aad_len > 0) flags |= 0x40;
  flags |= static_cast<std::uint8_t>(((p.tag_len - 2) / 2) << 3);
  flags |= static_cast<std::uint8_t>(q - 1);
  b0.b[0] = flags;
  for (std::size_t i = 0; i < p.nonce_len; ++i) b0.b[1 + i] = nonce[i];
  std::uint64_t len = msg_len;
  for (std::size_t i = 0; i < q; ++i) {
    b0.b[15 - i] = static_cast<std::uint8_t>(len);
    len >>= 8;
  }
  return b0;
}

namespace {

/// The 2-, 6- or 10-byte a-encoding of a non-zero AAD length into `out`;
/// returns its length.
std::size_t aad_length_prefix(std::size_t a, std::uint8_t* out) {
  if (a < 0xFF00) {
    out[0] = static_cast<std::uint8_t>(a >> 8);
    out[1] = static_cast<std::uint8_t>(a);
    return 2;
  }
  const bool wide = a > 0xFFFFFFFFULL;
  const int bytes = wide ? 8 : 4;
  out[0] = 0xFF;
  out[1] = wide ? 0xFF : 0xFE;
  for (int i = 0; i < bytes; ++i)
    out[2 + i] = static_cast<std::uint8_t>(static_cast<std::uint64_t>(a) >> (8 * (bytes - 1 - i)));
  return 2 + static_cast<std::size_t>(bytes);
}

}  // namespace

Bytes ccm_encode_aad(ByteSpan aad) {
  Bytes out;
  if (aad.empty()) return out;
  std::uint8_t prefix[10];
  out.reserve(16 * ccm_aad_blocks(aad.size()));
  out.assign(prefix, prefix + aad_length_prefix(aad.size(), prefix));
  out.insert(out.end(), aad.begin(), aad.end());
  // Zero-pad to a block boundary (the padded-AAD blocks feed CBC-MAC).
  out.resize(16 * ccm_aad_blocks(aad.size()), 0);
  return out;
}

Block128 ccm_ctr_block(const CcmParams& p, ByteSpan nonce, std::uint64_t index) {
  const std::size_t q = 15 - p.nonce_len;
  Block128 ctr{};
  ctr.b[0] = static_cast<std::uint8_t>(q - 1);
  for (std::size_t i = 0; i < p.nonce_len; ++i) ctr.b[1 + i] = nonce[i];
  for (std::size_t i = 0; i < q; ++i) {
    ctr.b[15 - i] = static_cast<std::uint8_t>(index);
    index >>= 8;
  }
  return ctr;
}

namespace {

/// The CBC-MAC chain over B0 and the encoded AAD: everything the tag covers
/// before the payload.
Block128 ccm_header_mac(const CryptoKernels& k, const CcmJob& job) {
  Block128 x{};
  const Block128 b0 = ccm_b0(job.params, job.nonce, job.aad.size(), job.input.size());
  k.cbc_mac_blocks(*job.keys, x, b0.b.data(), 1);
  // ccm_encode_aad(job.aad), streamed through a stack buffer instead of
  // built on the heap for every packet.
  const std::size_t a = job.aad.size();
  if (a == 0) return x;
  std::uint8_t buf[16 * 16];
  std::size_t fill = aad_length_prefix(a, buf);
  for (std::size_t pos = 0; pos < a;) {
    const std::size_t take = std::min(sizeof buf - fill, a - pos);
    std::memcpy(buf + fill, job.aad.data() + pos, take);
    fill += take;
    pos += take;
    if (pos == a) {
      const std::size_t padded = (fill + 15) / 16 * 16;
      std::memset(buf + fill, 0, padded - fill);
      fill = padded;
    }
    k.cbc_mac_blocks(*job.keys, x, buf, fill / 16);
    fill = 0;
  }
  return x;
}

/// The one buffer a job is computed in: an in-place job's own, or
/// `output`, which ccm_start fills with a copy of the input.
MutableByteSpan job_buffer(CcmJob& job) {
  return job.in_place.empty() ? MutableByteSpan(job.output) : job.in_place;
}

/// Throw std::invalid_argument if `job` cannot be computed.
void ccm_check(const CcmJob& job) {
  if (!ccm_params_valid(job.params)) throw std::invalid_argument("ccm: invalid parameters");
  if (job.nonce.size() != job.params.nonce_len)
    throw std::invalid_argument("ccm: nonce length mismatch");
  if (!ccm_length_fits(job.params.nonce_len, job.input.size()))
    throw std::invalid_argument("ccm: message too long for nonce length");
}

/// Start a job: its header MAC, and its full payload blocks as a kernel
/// lane from Ctr_1 (the inc32 walk, as ctr_transform), in place.
CcmLane ccm_start(const CryptoKernels& k, CcmJob& job) {
  if (job.in_place.empty()) job.output.assign(job.input.begin(), job.input.end());
  const MutableByteSpan buf = job_buffer(job);
  return CcmLane{.keys = job.keys,
                 .mac = ccm_header_mac(k, job),
                 .ctr = ccm_ctr_block(job.params, job.nonce, 1),
                 .decrypt = job.decrypt,
                 .in = buf.data(),
                 .out = buf.data(),
                 .nblocks = buf.size() / 16};
}

/// A failed open: zero its buffer (the unverified plaintext, or the
/// ciphertext of an open never computed) before `output` lets it go.
void ccm_fail(CcmJob& job) {
  secure_wipe(job_buffer(job));
  job.output.clear();
  job.ok = false;
}

/// Finish a job after its lane ran to its end: the zero-padded tail, then
/// the tag T ^ E(K, Ctr_0), truncated to tag_len — sealed, or checked.
void ccm_finish(const CryptoKernels& k, CcmJob& job, CcmLane& lane) {
  const MutableByteSpan buf = job_buffer(job);
  const std::size_t done = buf.size() / 16 * 16;
  if (done < buf.size()) {
    // The MAC covers the plaintext tail: a seal's before the keystream
    // overwrites it in place, an open's after.
    const MutableByteSpan tail = buf.subspan(done);
    Block128 plain = Block128::from_span(tail);
    k.ctr_xor(*job.keys, lane.ctr, /*wide_counter=*/true, tail.data(), tail.data(), tail.size());
    if (job.decrypt) plain = Block128::from_span(tail);
    k.cbc_mac_blocks(*job.keys, lane.mac, plain.b.data(), 1);
  }
  const Block128 full =
      lane.mac ^ k.aes_encrypt(*job.keys, ccm_ctr_block(job.params, job.nonce, 0));
  const ByteSpan tag(full.b.data(), job.params.tag_len);
  if (!job.decrypt) {
    job.sealed_tag.assign(tag.begin(), tag.end());
    job.ok = true;
    return;
  }
  job.ok = ct_equal(tag, job.tag);
  if (!job.ok) ccm_fail(job);
}

}  // namespace

std::size_t CcmLanes::submit(CcmJob job) {
  ccm_check(job);
  std::size_t h = 0;
  if (live_ == slots_.size()) {
    h = slots_.size();
    slots_.emplace_back();
  } else {
    while (slots_[h].live) ++h;
  }
  Slot& slot = slots_[h];
  slot.job = std::move(job);
  CcmJob& j = slot.job;
  j.output.clear();
  j.sealed_tag.clear();
  j.ok = false;
  slot.failed = j.decrypt && j.tag.size() != j.params.tag_len;
  if (slot.failed)
    ccm_fail(j);
  else
    slot.lane = ccm_start(active_kernels(), j);
  slot.live = true;
  ++live_;
  return h;
}

CcmJob& CcmLanes::finish(std::size_t handle) {
  const CryptoKernels& k = active_kernels();
  Slot& target = slots_[handle];
  const int rounds = target.failed ? 0 : target.job.keys->rounds();
  while (!target.failed && target.lane.nblocks > 0) {
    // The target's lane, and the first other parked lanes of its round
    // count with blocks left. While one more waits beyond the kernel's
    // lanes, run only until the first of them ends, so the next pass
    // refills its lane.
    Slot* run[kMaxCcmLanes] = {&target};
    std::size_t n = 1;
    std::size_t steps = target.lane.nblocks;
    bool waiting = false;
    for (Slot& s : slots_) {
      if (&s == &target || !s.live || s.failed || s.lane.nblocks == 0 ||
          s.job.keys->rounds() != rounds)
        continue;
      if (n == kMaxCcmLanes) {
        waiting = true;
        break;
      }
      run[n++] = &s;
    }
    if (waiting)
      for (std::size_t i = 1; i < n; ++i) steps = std::min(steps, run[i]->lane.nblocks);
    CcmLane lanes[kMaxCcmLanes];
    for (std::size_t i = 0; i < n; ++i) {
      lanes[i] = run[i]->lane;
      lanes[i].nblocks = std::min(lanes[i].nblocks, steps);
    }
    k.ccm_lanes(lanes, n);
    // The kernel left each chained MAC and next counter; move the rest on.
    for (std::size_t i = 0; i < n; ++i) {
      CcmLane& lane = run[i]->lane;
      const std::size_t ran = lanes[i].nblocks;
      lane.mac = lanes[i].mac;
      lane.ctr = lanes[i].ctr;
      lane.in += 16 * ran;
      lane.out += 16 * ran;
      lane.nblocks -= ran;
    }
  }
  if (!target.failed) ccm_finish(k, target.job, target.lane);
  target.live = false;
  --live_;
  return target.job;
}

void ccm_batch(std::span<CcmJob> jobs) {
  for (const CcmJob& job : jobs) ccm_check(job);
  // One manager per thread, kept between batches so a batch no larger
  // than an earlier one allocates no slots. Between batches it holds no
  // live job, so it hands out handles 0, 1, ... in submit order.
  thread_local CcmLanes lanes;
  try {
    for (CcmJob& job : jobs) lanes.submit(std::move(job));
    for (std::size_t i = 0; i < jobs.size(); ++i) jobs[i] = std::move(lanes.finish(i));
  } catch (...) {
    lanes = CcmLanes();  // drop a half-run batch's lanes
    throw;
  }
}

CcmSealed ccm_seal(const AesRoundKeys& keys, const CcmParams& p, ByteSpan nonce, ByteSpan aad,
                   ByteSpan plaintext) {
  CcmJob job = CcmJob::seal(keys, p, nonce, aad, plaintext);
  ccm_batch({&job, 1});
  return {std::move(job.output), std::move(job.sealed_tag)};
}

std::optional<Bytes> ccm_open(const AesRoundKeys& keys, const CcmParams& p, ByteSpan nonce,
                              ByteSpan aad, ByteSpan ciphertext, ByteSpan tag) {
  CcmJob job = CcmJob::open(keys, p, nonce, aad, ciphertext, tag);
  ccm_batch({&job, 1});
  if (!job.ok) return std::nullopt;
  return std::move(job.output);
}

}  // namespace mccp::crypto
