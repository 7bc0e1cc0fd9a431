#include "net/protocol.h"

#include <cstring>
#include <stdexcept>

namespace mccp::net {

const char* error_code_name(ErrorCode code) {
  switch (code) {
    case ErrorCode::kMalformedFrame: return "malformed_frame";
    case ErrorCode::kVersionMismatch: return "version_mismatch";
    case ErrorCode::kUnknownOpcode: return "unknown_opcode";
    case ErrorCode::kNotReady: return "not_ready";
    case ErrorCode::kUnknownChannel: return "unknown_channel";
    case ErrorCode::kOpenFailed: return "open_failed";
    case ErrorCode::kKeyRejected: return "key_rejected";
    case ErrorCode::kBusy: return "busy";
    case ErrorCode::kTenantThrottled: return "tenant_throttled";
    case ErrorCode::kTenantQuotaExceeded: return "tenant_quota_exceeded";
    case ErrorCode::kUnknownTenant: return "unknown_tenant";
  }
  return "unknown_error";
}

const char* op_name(Op op) {
  switch (op) {
    case Op::kHello: return "HELLO";
    case Op::kWelcome: return "WELCOME";
    case Op::kError: return "ERROR";
    case Op::kAck: return "ACK";
    case Op::kProvisionKey: return "PROVISION_KEY";
    case Op::kOpenChannel: return "OPEN_CHANNEL";
    case Op::kOpenOk: return "OPEN_OK";
    case Op::kCloseChannel: return "CLOSE_CHANNEL";
    case Op::kSubmit: return "SUBMIT";
    case Op::kSubmitBatch: return "SUBMIT_BATCH";
    case Op::kCompletion: return "COMPLETION";
    case Op::kStatsSubscribe: return "STATS_SUBSCRIBE";
    case Op::kStats: return "STATS";
    case Op::kGoodbye: return "GOODBYE";
  }
  return "UNKNOWN";
}

Op frame_op(const Frame& frame) {
  struct Visitor {
    Op operator()(const HelloFrame&) const { return Op::kHello; }
    Op operator()(const WelcomeFrame&) const { return Op::kWelcome; }
    Op operator()(const ErrorFrame&) const { return Op::kError; }
    Op operator()(const AckFrame&) const { return Op::kAck; }
    Op operator()(const ProvisionKeyFrame&) const { return Op::kProvisionKey; }
    Op operator()(const OpenChannelFrame&) const { return Op::kOpenChannel; }
    Op operator()(const OpenOkFrame&) const { return Op::kOpenOk; }
    Op operator()(const CloseChannelFrame&) const { return Op::kCloseChannel; }
    Op operator()(const SubmitFrame&) const { return Op::kSubmit; }
    Op operator()(const SubmitBatchFrame&) const { return Op::kSubmitBatch; }
    Op operator()(const CompletionFrame&) const { return Op::kCompletion; }
    Op operator()(const StatsSubscribeFrame&) const { return Op::kStatsSubscribe; }
    Op operator()(const StatsFrame&) const { return Op::kStats; }
    Op operator()(const GoodbyeFrame&) const { return Op::kGoodbye; }
  };
  return std::visit(Visitor{}, frame);
}

// ---- Reader / Writer --------------------------------------------------------

bool Reader::take(std::size_t n) {
  if (!ok_ || data_.size() - pos_ < n) {
    ok_ = false;
    return false;
  }
  return true;
}

std::uint8_t Reader::u8() {
  if (!take(1)) return 0;
  return data_[pos_++];
}

std::uint16_t Reader::u16() {
  if (!take(2)) return 0;
  std::uint16_t v = static_cast<std::uint16_t>(data_[pos_] | (data_[pos_ + 1] << 8));
  pos_ += 2;
  return v;
}

std::uint32_t Reader::u32() {
  if (!take(4)) return 0;
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | data_[pos_ + static_cast<std::size_t>(i)];
  pos_ += 4;
  return v;
}

std::uint64_t Reader::u64() {
  if (!take(8)) return 0;
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | data_[pos_ + static_cast<std::size_t>(i)];
  pos_ += 8;
  return v;
}

Bytes Reader::bytes8() {
  std::size_t n = u8();
  if (!take(n)) return {};
  Bytes b(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
          data_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
  pos_ += n;
  return b;
}

Bytes Reader::bytes32() {
  std::size_t n = u32();
  // The length prefix itself is bounded by the already-validated frame
  // length: take() rejects anything claiming more than the body holds.
  if (!take(n)) return {};
  Bytes b(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
          data_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
  pos_ += n;
  return b;
}

std::string Reader::str8() {
  std::size_t n = u8();
  if (!take(n)) return {};
  std::string s(reinterpret_cast<const char*>(data_.data()) + pos_, n);
  pos_ += n;
  return s;
}

void Writer::bytes8(ByteSpan b) {
  if (b.size() > 255) throw std::length_error("net: bytes8 field exceeds 255 bytes");
  u8(static_cast<std::uint8_t>(b.size()));
  out_.insert(out_.end(), b.begin(), b.end());
}

void Writer::bytes32(ByteSpan b) {
  if (b.size() > kMaxFrameBytes) throw std::length_error("net: bytes32 field exceeds frame cap");
  u32(static_cast<std::uint32_t>(b.size()));
  out_.insert(out_.end(), b.begin(), b.end());
}

void Writer::str8(const std::string& s) {
  if (s.size() > 255) throw std::length_error("net: str8 field exceeds 255 bytes");
  u8(static_cast<std::uint8_t>(s.size()));
  out_.insert(out_.end(), s.begin(), s.end());
}

// ---- encode -----------------------------------------------------------------

namespace {

void encode_submit_job(Writer& w, const SubmitJob& job) {
  w.u64(job.job_id);
  w.u8(job.decrypt ? 1 : 0);
  w.u8(job.priority);
  w.bytes8(job.iv);
  w.bytes32(job.aad);
  w.bytes32(job.payload);
  w.bytes8(job.tag);
}

SubmitJob decode_submit_job(Reader& r) {
  SubmitJob job;
  job.job_id = r.u64();
  job.decrypt = r.u8() != 0;
  job.priority = r.u8();
  job.iv = r.bytes8();
  job.aad = r.bytes32();
  job.payload = r.bytes32();
  job.tag = r.bytes8();
  return job;
}

void encode_completion_body(Writer& w, const CompletionView& c) {
  w.u64(c.job_id);
  w.u8(c.auth_ok ? 1 : 0);
  w.u32(c.rejections);
  w.u64(c.submit_cycle);
  w.u64(c.accept_cycle);
  w.u64(c.complete_cycle);
  w.bytes32(c.payload);
  w.bytes8(c.tag);
}

struct Encoder {
  Writer& w;

  void operator()(const HelloFrame& f) const {
    w.u32(kHelloMagic);
    w.u16(f.ver_min);
    w.u16(f.ver_max);
    w.u16(f.tenant);
    w.str8(f.client_name);
  }
  void operator()(const WelcomeFrame& f) const {
    w.u16(f.version);
    w.u8(f.backend);
    w.u16(f.devices);
    w.u16(f.cores_per_device);
    w.str8(f.server_name);
  }
  void operator()(const ErrorFrame& f) const {
    w.u16(static_cast<std::uint16_t>(f.code));
    w.u64(f.ref);
    w.str8(f.message.size() > 255 ? f.message.substr(0, 255) : f.message);
  }
  void operator()(const AckFrame& f) const { w.u32(f.request_id); }
  void operator()(const ProvisionKeyFrame& f) const {
    w.u32(f.request_id);
    w.u8(f.key_id);
    w.bytes8(f.key);
  }
  void operator()(const OpenChannelFrame& f) const {
    w.u32(f.request_id);
    w.u8(f.mode);
    w.u8(f.key_id);
    w.u8(f.tag_len);
    w.u8(f.nonce_len);
  }
  void operator()(const OpenOkFrame& f) const {
    w.u32(f.request_id);
    w.u32(f.channel);
    w.u8(f.mode);
    w.u8(f.tag_len);
    w.u8(f.nonce_len);
    w.u16(f.device_index);
  }
  void operator()(const CloseChannelFrame& f) const {
    w.u32(f.request_id);
    w.u32(f.channel);
  }
  void operator()(const SubmitFrame& f) const {
    w.u32(f.channel);
    encode_submit_job(w, f.job);
  }
  void operator()(const SubmitBatchFrame& f) const {
    w.u32(f.channel);
    if (f.jobs.size() > 0xFFFF) throw std::length_error("net: SUBMIT_BATCH exceeds 65535 jobs");
    w.u16(static_cast<std::uint16_t>(f.jobs.size()));
    for (const SubmitJob& job : f.jobs) encode_submit_job(w, job);
  }
  void operator()(const CompletionFrame& f) const {
    encode_completion_body(w, {.job_id = f.job_id,
                               .auth_ok = f.auth_ok,
                               .rejections = f.rejections,
                               .submit_cycle = f.submit_cycle,
                               .accept_cycle = f.accept_cycle,
                               .complete_cycle = f.complete_cycle,
                               .payload = f.payload,
                               .tag = f.tag});
  }
  void operator()(const StatsSubscribeFrame& f) const {
    w.u32(f.request_id);
    w.u64(f.interval_cycles);
  }
  void operator()(const StatsFrame& f) const {
    w.u64(f.engine_cycle);
    w.u64(f.completed_jobs);
    w.u64(f.inflight);
    w.u64(f.reconfigurations);
    w.u64(f.reconfig_stall_cycles);
    w.u32(f.sessions);
    w.u16(f.devices);
  }
  void operator()(const GoodbyeFrame&) const {}
};

/// Append the length prefix and opcode, let `body` write the rest, then
/// patch the prefix; a frame over kMaxFrameBytes is taken back out.
template <typename Body>
void encode_framed(Op op, std::vector<std::uint8_t>& out, Body&& body) {
  const std::size_t header_at = out.size();
  Writer w(out);
  w.u32(0);  // length placeholder
  w.u8(static_cast<std::uint8_t>(op));
  body(w);

  const std::size_t length = out.size() - header_at - 4;
  if (length > kMaxFrameBytes) {
    out.resize(header_at);
    throw std::length_error("net: encoded frame exceeds kMaxFrameBytes");
  }
  for (int i = 0; i < 4; ++i)
    out[header_at + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(length >> (8 * i));
}

}  // namespace

void encode_frame(const Frame& frame, std::vector<std::uint8_t>& out) {
  encode_framed(frame_op(frame), out, [&frame](Writer& w) { std::visit(Encoder{w}, frame); });
}

void encode_completion(const CompletionView& c, std::vector<std::uint8_t>& out) {
  encode_framed(Op::kCompletion, out, [&c](Writer& w) { encode_completion_body(w, c); });
}

std::vector<std::uint8_t> encode_frame(const Frame& frame) {
  std::vector<std::uint8_t> out;
  encode_frame(frame, out);
  return out;
}

// ---- decode -----------------------------------------------------------------

namespace {

Decoded bad(ErrorCode code, std::string why) {
  Decoded d;
  d.status = DecodeStatus::kBad;
  d.error_code = code;
  d.error = std::move(why);
  return d;
}

/// Body decoder for one opcode; Reader is already positioned past the
/// opcode byte. Returns false for an unknown opcode.
bool decode_body(Op op, Reader& r, Frame& out) {
  switch (op) {
    case Op::kHello: {
      HelloFrame f;
      if (r.u32() != kHelloMagic) return false;
      f.ver_min = r.u16();
      f.ver_max = r.u16();
      f.tenant = r.u16();
      f.client_name = r.str8();
      out = std::move(f);
      return true;
    }
    case Op::kWelcome: {
      WelcomeFrame f;
      f.version = r.u16();
      f.backend = r.u8();
      f.devices = r.u16();
      f.cores_per_device = r.u16();
      f.server_name = r.str8();
      out = std::move(f);
      return true;
    }
    case Op::kError: {
      ErrorFrame f;
      f.code = static_cast<ErrorCode>(r.u16());
      f.ref = r.u64();
      f.message = r.str8();
      out = std::move(f);
      return true;
    }
    case Op::kAck: {
      AckFrame f;
      f.request_id = r.u32();
      out = f;
      return true;
    }
    case Op::kProvisionKey: {
      ProvisionKeyFrame f;
      f.request_id = r.u32();
      f.key_id = r.u8();
      f.key = r.bytes8();
      out = std::move(f);
      return true;
    }
    case Op::kOpenChannel: {
      OpenChannelFrame f;
      f.request_id = r.u32();
      f.mode = r.u8();
      f.key_id = r.u8();
      f.tag_len = r.u8();
      f.nonce_len = r.u8();
      out = f;
      return true;
    }
    case Op::kOpenOk: {
      OpenOkFrame f;
      f.request_id = r.u32();
      f.channel = r.u32();
      f.mode = r.u8();
      f.tag_len = r.u8();
      f.nonce_len = r.u8();
      f.device_index = r.u16();
      out = f;
      return true;
    }
    case Op::kCloseChannel: {
      CloseChannelFrame f;
      f.request_id = r.u32();
      f.channel = r.u32();
      out = f;
      return true;
    }
    case Op::kSubmit: {
      SubmitFrame f;
      f.channel = r.u32();
      f.job = decode_submit_job(r);
      out = std::move(f);
      return true;
    }
    case Op::kSubmitBatch: {
      SubmitBatchFrame f;
      f.channel = r.u32();
      std::size_t count = r.u16();
      // Every job is at least 24 bytes on the wire; a count the remaining
      // body cannot possibly hold is rejected before any allocation.
      if (count * 24 > r.remaining() + 24) return false;
      f.jobs.reserve(count);
      for (std::size_t i = 0; i < count && r.ok(); ++i)
        f.jobs.push_back(decode_submit_job(r));
      out = std::move(f);
      return true;
    }
    case Op::kCompletion: {
      CompletionFrame f;
      f.job_id = r.u64();
      f.auth_ok = r.u8() != 0;
      f.rejections = r.u32();
      f.submit_cycle = r.u64();
      f.accept_cycle = r.u64();
      f.complete_cycle = r.u64();
      f.payload = r.bytes32();
      f.tag = r.bytes8();
      out = std::move(f);
      return true;
    }
    case Op::kStatsSubscribe: {
      StatsSubscribeFrame f;
      f.request_id = r.u32();
      f.interval_cycles = r.u64();
      out = f;
      return true;
    }
    case Op::kStats: {
      StatsFrame f;
      f.engine_cycle = r.u64();
      f.completed_jobs = r.u64();
      f.inflight = r.u64();
      f.reconfigurations = r.u64();
      f.reconfig_stall_cycles = r.u64();
      f.sessions = r.u32();
      f.devices = r.u16();
      out = f;
      return true;
    }
    case Op::kGoodbye: {
      out = GoodbyeFrame{};
      return true;
    }
  }
  return false;
}

bool known_op(std::uint8_t op) {
  return op >= static_cast<std::uint8_t>(Op::kHello) &&
         op <= static_cast<std::uint8_t>(Op::kGoodbye);
}

}  // namespace

Decoded decode_frame(std::span<const std::uint8_t> buf) {
  Decoded d;
  if (buf.size() < 4) return d;  // kNeedMore

  std::uint32_t length = 0;
  for (int i = 3; i >= 0; --i) length = (length << 8) | buf[static_cast<std::size_t>(i)];
  if (length < 1)
    return bad(ErrorCode::kMalformedFrame, "zero-length frame (missing opcode)");
  // Reject a hostile length prefix immediately — do NOT wait for the bytes
  // to "arrive" (they would make the session buffer unbounded input).
  if (length > kMaxFrameBytes)
    return bad(ErrorCode::kMalformedFrame,
               "length prefix " + std::to_string(length) + " exceeds frame cap");
  if (buf.size() - 4 < length) return d;  // kNeedMore

  const std::uint8_t op_byte = buf[4];
  if (!known_op(op_byte))
    return bad(ErrorCode::kUnknownOpcode, "unknown opcode " + std::to_string(op_byte));

  Reader r(buf.subspan(5, length - 1));
  Frame frame;
  if (!decode_body(static_cast<Op>(op_byte), r, frame))
    return bad(ErrorCode::kMalformedFrame,
               std::string("undecodable ") + op_name(static_cast<Op>(op_byte)) + " body");
  if (!r.ok())
    return bad(ErrorCode::kMalformedFrame,
               std::string(op_name(static_cast<Op>(op_byte))) + " body truncated");
  if (!r.exhausted())
    return bad(ErrorCode::kMalformedFrame,
               std::string(op_name(static_cast<Op>(op_byte))) + " body has " +
                   std::to_string(r.remaining()) + " trailing bytes");

  d.status = DecodeStatus::kFrame;
  d.frame = std::move(frame);
  d.consumed = 4u + length;
  return d;
}

}  // namespace mccp::net
