#include "workload/profile.h"

#include <numeric>
#include <sstream>
#include <stdexcept>

#include "core/stream_format.h"

namespace mccp::workload {

SizeDist SizeDist::fixed(std::size_t n) {
  SizeDist d(Kind::kFixed);
  d.lo_ = d.hi_ = n;
  return d;
}

SizeDist SizeDist::uniform(std::size_t lo, std::size_t hi) {
  if (lo > hi) throw std::invalid_argument("SizeDist::uniform: lo > hi");
  SizeDist d(Kind::kUniform);
  d.lo_ = lo;
  d.hi_ = hi;
  return d;
}

SizeDist SizeDist::empirical(std::vector<std::size_t> values, std::vector<double> weights) {
  if (values.empty()) throw std::invalid_argument("SizeDist::empirical: need at least one value");
  if (!weights.empty() && weights.size() != values.size())
    throw std::invalid_argument("SizeDist::empirical: weights/values size mismatch");
  SizeDist d(Kind::kEmpirical);
  d.values_ = std::move(values);
  d.cumulative_.reserve(d.values_.size());
  double total = 0.0;
  for (std::size_t i = 0; i < d.values_.size(); ++i) {
    double w = weights.empty() ? 1.0 : weights[i];
    if (w < 0.0) throw std::invalid_argument("SizeDist::empirical: negative weight");
    total += w;
    d.cumulative_.push_back(total);
  }
  if (!(total > 0.0)) throw std::invalid_argument("SizeDist::empirical: weights sum to zero");
  for (double& c : d.cumulative_) c /= total;
  return d;
}

std::size_t SizeDist::sample(Rng& rng) const {
  switch (kind_) {
    case Kind::kFixed: return lo_;
    case Kind::kUniform: return lo_ + static_cast<std::size_t>(rng.next_below(hi_ - lo_ + 1));
    case Kind::kEmpirical: {
      double u = rng.next_double();
      for (std::size_t i = 0; i < cumulative_.size(); ++i)
        if (u < cumulative_[i]) return values_[i];
      return values_.back();
    }
  }
  return lo_;
}

double SizeDist::mean() const {
  switch (kind_) {
    case Kind::kFixed: return static_cast<double>(lo_);
    case Kind::kUniform: return (static_cast<double>(lo_) + static_cast<double>(hi_)) / 2.0;
    case Kind::kEmpirical: {
      double mean = 0.0, prev = 0.0;
      for (std::size_t i = 0; i < values_.size(); ++i) {
        mean += static_cast<double>(values_[i]) * (cumulative_[i] - prev);
        prev = cumulative_[i];
      }
      return mean;
    }
  }
  return 0.0;
}

std::string SizeDist::describe() const {
  std::ostringstream s;
  switch (kind_) {
    case Kind::kFixed: s << "fixed(" << lo_ << ")"; break;
    case Kind::kUniform: s << "uniform(" << lo_ << ".." << hi_ << ")"; break;
    case Kind::kEmpirical: s << "empirical(" << values_.size() << " values)"; break;
  }
  return s.str();
}

std::size_t normalize_payload(std::size_t sampled) {
  std::size_t blocks = (sampled + 15) / 16;
  if (blocks < 1) blocks = 1;
  if (blocks > core::kMaxInstructionBlocks) blocks = core::kMaxInstructionBlocks;
  return blocks * 16;
}

std::size_t normalize_aad(std::size_t sampled) {
  // kMaxInstructionBlocks formatted 16-byte header blocks; stay a block
  // under to leave room for CCM's length-encoding prefix.
  constexpr std::size_t kMax = (core::kMaxInstructionBlocks - 1) * 16;
  return sampled > kMax ? kMax : sampled;
}

ChannelClass voip_class() {
  ChannelClass c;
  c.name = "voip";
  c.mode = ChannelMode::kCtr;
  c.key_len = 16;
  c.tag_len = 16;  // unused by CTR; registered value only
  c.priority = 0;
  c.payload = SizeDist::fixed(160);  // one 20 ms narrowband voice frame
  c.aad = SizeDist::fixed(0);
  c.arrival = ArrivalSpec::fixed(0.25);  // every 4 kcycles
  return c;
}

ChannelClass video_class() {
  ChannelClass c;
  c.name = "video";
  c.mode = ChannelMode::kGcm;
  c.key_len = 16;
  c.tag_len = 16;
  c.nonce_len = 12;
  c.priority = 64;
  c.payload = SizeDist::uniform(512, 1424);  // fragmented I/P frames
  c.aad = SizeDist::fixed(16);               // RTP-style header in the clear
  c.arrival = ArrivalSpec::onoff(0.8, 0.02, 60.0, 120.0);
  return c;
}

ChannelClass bulk_class() {
  ChannelClass c;
  c.name = "bulk";
  c.mode = ChannelMode::kCcm;
  c.key_len = 32;
  c.tag_len = 8;
  c.nonce_len = 13;
  c.priority = 192;
  c.payload = SizeDist::fixed(2048);  // full MPDUs
  c.aad = SizeDist::fixed(0);
  c.arrival = ArrivalSpec::poisson_at(0.5);
  return c;
}

ChannelClass control_class() {
  ChannelClass c;
  c.name = "control";
  c.mode = ChannelMode::kCbcMac;
  c.key_len = 16;
  c.tag_len = 16;
  c.priority = 16;
  c.payload = SizeDist::fixed(64);  // authenticated-only telemetry
  c.aad = SizeDist::fixed(0);
  c.arrival = ArrivalSpec::poisson_at(0.05);
  return c;
}

ChannelClass whirlpool_class() {
  ChannelClass c;
  c.name = "whirlpool";
  c.mode = ChannelMode::kWhirlpool;
  c.key_len = 16;  // unused: hash channels are unkeyed
  c.tag_len = 16;  // registered value only
  c.priority = 96;
  c.payload = SizeDist::uniform(256, 1024);  // firmware / attestation blobs
  c.aad = SizeDist::fixed(0);
  c.arrival = ArrivalSpec::poisson_at(0.2);
  return c;
}

ChannelClass preset_class(const std::string& name) {
  if (name == "voip") return voip_class();
  if (name == "video") return video_class();
  if (name == "bulk") return bulk_class();
  if (name == "control") return control_class();
  if (name == "whirlpool") return whirlpool_class();
  throw std::invalid_argument("preset_class: unknown preset \"" + name +
                              "\" (known: voip, video, bulk, control, whirlpool)");
}

const char* mode_name(ChannelMode mode) {
  switch (mode) {
    case ChannelMode::kGcm: return "gcm";
    case ChannelMode::kCcm: return "ccm";
    case ChannelMode::kCtr: return "ctr";
    case ChannelMode::kCbcMac: return "cbc_mac";
    case ChannelMode::kWhirlpool: return "whirlpool";
  }
  return "?";
}

ChannelMode mode_from_name(const std::string& name) {
  if (name == "gcm") return ChannelMode::kGcm;
  if (name == "ccm") return ChannelMode::kCcm;
  if (name == "ctr") return ChannelMode::kCtr;
  if (name == "cbc_mac") return ChannelMode::kCbcMac;
  if (name == "whirlpool") return ChannelMode::kWhirlpool;
  throw std::invalid_argument("mode_from_name: unknown mode \"" + name +
                              "\" (known: gcm, ccm, ctr, cbc_mac, whirlpool)");
}

}  // namespace mccp::workload
