#include "jobs.h"

#include "crypto/cbc_mac.h"
#include "crypto/ccm.h"
#include "crypto/ctr.h"
#include "crypto/whirlpool.h"

namespace mbench {

using namespace mccp;

std::uint64_t Workset::payload_bytes() const {
  std::uint64_t n = 0;
  for (const Job& j : jobs) n += j.payload.size();
  return n;
}

Reference::Reference(const Workset& ws) : ws_(&ws) {
  for (const KeyDef& k : ws.keys) {
    Prepared& p = keys_[k.id];
    p.round_keys = crypto::aes_expand_key(k.key);
    p.gcm = crypto::GcmKey(p.round_keys);
  }
}

Output Reference::run(const Job& job) const {
  const ChannelDef& ch = ws_->channels.at(job.channel);
  Output out;
  if (ch.mode == ChannelMode::kWhirlpool) {
    const auto digest = crypto::whirlpool(job.payload);
    out.payload.assign(digest.begin(), digest.end());
    return out;
  }
  const Prepared& key = keys_.at(ch.key);
  switch (ch.mode) {
    case ChannelMode::kGcm:
      if (job.decrypt) {
        auto pt = crypto::gcm_open(key.gcm, job.iv, job.aad, job.payload, job.tag);
        out.ok = pt.has_value();
        if (pt) out.payload = std::move(*pt);
      } else {
        auto sealed = crypto::gcm_seal(key.gcm, job.iv, job.aad, job.payload, ch.tag_len);
        out.payload = std::move(sealed.ciphertext);
        out.tag = std::move(sealed.tag);
      }
      break;
    case ChannelMode::kCcm: {
      const crypto::CcmParams p{ch.tag_len, ch.nonce_len};
      if (job.decrypt) {
        auto pt = crypto::ccm_open(key.round_keys, p, job.iv, job.aad, job.payload, job.tag);
        out.ok = pt.has_value();
        if (pt) out.payload = std::move(*pt);
      } else {
        auto sealed = crypto::ccm_seal(key.round_keys, p, job.iv, job.aad, job.payload);
        out.payload = std::move(sealed.ciphertext);
        out.tag = std::move(sealed.tag);
      }
      break;
    }
    case ChannelMode::kCtr:
      out.payload = crypto::ctr_transform_inc16(key.round_keys, Block128::from_span(job.iv),
                                                job.payload);
      break;
    case ChannelMode::kCbcMac: {
      crypto::CbcMac mac(key.round_keys);
      mac.update_padded(job.payload);
      const Block128& t = mac.mac();
      if (job.decrypt) {
        // The verify core compares the channel's tag_len bytes against the
        // submitted tag zero-padded to a block, and streams no plaintext:
        // the device reports a zero placeholder of message length.
        const Block128 submitted = Block128::from_span(job.tag);
        out.ok = ct_equal(ByteSpan(t.b.data(), ch.tag_len),
                          ByteSpan(submitted.b.data(), ch.tag_len));
        if (out.ok) out.payload.assign(job.payload.size(), 0);
      } else {
        out.tag.assign(t.b.begin(), t.b.begin() + ch.tag_len);
      }
      break;
    }
    case ChannelMode::kWhirlpool:
      break;
  }
  return out;
}

Bytes make_iv(Rng& rng, const ChannelDef& ch) {
  switch (ch.mode) {
    case ChannelMode::kGcm:
    case ChannelMode::kCcm:
      return rng.bytes(ch.nonce_len);
    case ChannelMode::kCtr: {
      Bytes iv = rng.bytes(16);
      iv[14] = iv[15] = 0;
      return iv;
    }
    default:
      return {};
  }
}

std::size_t draw_len(Rng& rng, std::size_t lo, std::size_t hi) {
  return 16 * (lo / 16 + rng.next_below(hi / 16 - lo / 16 + 1));
}

void expect(const Reference& ref, Job& job) {
  Output o = ref.run(job);
  job.want_ok = o.ok;
  job.want_payload = std::move(o.payload);
  job.want_tag = std::move(o.tag);
}

Job open_of(const Workset& ws, const Job& sealed, bool tamper, Rng& rng) {
  const ChannelDef& ch = ws.channels.at(sealed.channel);
  Job o;
  o.channel = sealed.channel;
  o.decrypt = true;
  o.priority = sealed.priority;
  o.iv = sealed.iv;
  o.aad = sealed.aad;
  // CBC-MAC verifies the message itself; every other mode opens the
  // ciphertext it sealed.
  o.payload = ch.mode == ChannelMode::kCbcMac ? sealed.payload : sealed.want_payload;
  o.tag = sealed.want_tag;
  if (tamper && !o.tag.empty())
    o.tag[rng.next_below(o.tag.size())] ^= static_cast<std::uint8_t>(1u << rng.next_below(8));
  return o;
}

bool matches(const Job& job, bool ok, const Bytes& payload, const Bytes& tag) {
  return ok == job.want_ok && payload == job.want_payload && tag == job.want_tag;
}

CryptoReplay::CryptoReplay(const Workset& ws, Results& res) : ref_(ws), jobs_(ws.jobs.size()) {
  std::uint64_t mismatches = 0;
  for (const Job& j : ws.jobs) {
    Group& g = groups_[ws.channels[j.channel].mode == ChannelMode::kWhirlpool ? 2
                       : j.decrypt                                        ? 1
                                                                          : 0];
    g.jobs.push_back(&j);
    g.bytes += j.payload.size();
    const Output out = ref_.run(j);
    mismatches += !matches(j, out.ok, out.payload, out.tag);
  }
  res.checks(ws.jobs.size(), mismatches, "crypto replay vs references");
}

void CryptoReplay::pass() {
  for (Group& g : groups_) {
    if (g.jobs.empty()) continue;
    const std::int64_t t0 = now_ns();
    for (const Job* j : g.jobs) ref_.run(*j);
    g.pass_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
}

void CryptoReplay::report(Results& res, double host_ns_per_pkt) const {
  static const char* const kRates[3] = {"crypto.seal_mb_per_s", "crypto.open_mb_per_s",
                                        "crypto.whirlpool_mb_per_s"};
  double total_s = 0;
  for (int i = 0; i < 3; ++i) {
    const Group& g = groups_[i];
    if (g.pass_s.empty()) continue;
    const double s = fastest_time(g.pass_s);
    total_s += s;
    res.metric(kRates[i], static_cast<double>(g.bytes) / s / 1e6, "MB/s", "crypto");
  }
  const double ns_per_pkt = total_s * 1e9 / static_cast<double>(jobs_);
  res.metric("crypto.ns_per_pkt", ns_per_pkt, "ns", "crypto");
  res.metric("crypto.share", ns_per_pkt / host_ns_per_pkt, "ratio", "crypto");
}

}  // namespace mbench
