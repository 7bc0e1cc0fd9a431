#include "net/protocol.h"

#include <concepts>
#include <stdexcept>
#include <string_view>
#include <type_traits>
#include <utility>

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

template <Op op, class F>
constexpr bool kOpIs =
    std::is_same_v<std::variant_alternative_t<static_cast<std::size_t>(op) - 1, Frame>, F>;
static_assert(std::variant_size_v<Frame> == static_cast<std::size_t>(Op::kGoodbye) &&
                  kOpIs<Op::kHello, HelloFrame> && kOpIs<Op::kWelcome, WelcomeFrame> &&
                  kOpIs<Op::kError, ErrorFrame> && kOpIs<Op::kAck, AckFrame> &&
                  kOpIs<Op::kProvisionKey, ProvisionKeyFrame> &&
                  kOpIs<Op::kOpenChannel, OpenChannelFrame> && kOpIs<Op::kOpenOk, OpenOkFrame> &&
                  kOpIs<Op::kCloseChannel, CloseChannelFrame> &&
                  kOpIs<Op::kSubmit, SubmitFrame> && kOpIs<Op::kSubmitBatch, SubmitBatchFrame> &&
                  kOpIs<Op::kCompletion, CompletionFrame> &&
                  kOpIs<Op::kStatsSubscribe, StatsSubscribeFrame> &&
                  kOpIs<Op::kStats, StatsFrame> && kOpIs<Op::kGoodbye, GoodbyeFrame>,
              "frame_op: Frame's alternatives must be in opcode order");

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

void Writer::str8(std::string_view s) {
  if (s.size() > 255) throw std::length_error("net: str8 field exceeds 255 bytes");
  u8(static_cast<std::uint8_t>(s.size()));
  out_.insert(out_.end(), s.begin(), s.end());
}

// ---- field lists ------------------------------------------------------------
//
// Each frame's wire layout is written once, as a `fields(io, frame)` list
// that a Writer runs to encode and a Reader runs to decode (the Reader's
// by-reference getters fill the frame in place). The few fields whose wire
// form is not their type's go through a write/read pair of helpers.

namespace {

template <class T, class U>
concept Is = std::same_as<std::remove_const_t<T>, U>;

/// HELLO's first field: written on encode, checked on decode.
void magic(Writer& w) { w.u32(kHelloMagic); }
void magic(Reader& r) {
  if (r.u32() != kHelloMagic) r.refuse();
}

/// Bools travel as u8 (any nonzero byte reads as true).
void flag(Writer& w, bool v) { w.u8(v ? 1 : 0); }
void flag(Reader& r, bool& v) { v = r.u8() != 0; }

void code(Writer& w, ErrorCode c) { w.u16(static_cast<std::uint16_t>(c)); }
void code(Reader& r, ErrorCode& c) { c = static_cast<ErrorCode>(r.u16()); }

/// ERROR's message is diagnostics: one over 255 bytes is cut, not refused.
void message(Writer& w, std::string_view s) { w.str8(s.substr(0, 255)); }
void message(Reader& r, std::string& s) { r.str8(s); }

/// The job record of SUBMIT and SUBMIT_BATCH.
template <class Io, Is<SubmitJob> J>
void fields(Io& io, J& job) {
  io.u64(job.job_id);
  flag(io, job.decrypt);
  io.u8(job.priority);
  io.bytes8(job.iv);
  io.bytes32(job.aad);
  io.bytes32(job.payload);
  io.bytes8(job.tag);
}

/// SUBMIT_BATCH's u16 count and job records.
void jobs(Writer& w, const std::vector<SubmitJob>& jobs) {
  if (jobs.size() > 0xFFFF) throw std::length_error("net: SUBMIT_BATCH exceeds 65535 jobs");
  w.u16(static_cast<std::uint16_t>(jobs.size()));
  for (const SubmitJob& job : jobs) fields(w, job);
}
void jobs(Reader& r, std::vector<SubmitJob>& jobs) {
  const std::size_t count = r.u16();
  // Every job is at least 24 bytes on the wire; a count the remaining
  // body cannot possibly hold is refused before any allocation.
  if (count * 24 > r.remaining() + 24) return r.refuse();
  jobs.reserve(count);
  for (std::size_t i = 0; i < count && r.ok(); ++i) fields(r, jobs.emplace_back());
}

template <class Io, Is<HelloFrame> F>
void fields(Io& io, F& f) {
  magic(io);
  io.u16(f.ver_min);
  io.u16(f.ver_max);
  io.u16(f.tenant);
  io.str8(f.client_name);
}

template <class Io, Is<WelcomeFrame> F>
void fields(Io& io, F& f) {
  io.u16(f.version);
  io.u8(f.backend);
  io.u16(f.devices);
  io.u16(f.cores_per_device);
  io.str8(f.server_name);
}

template <class Io, Is<ErrorFrame> F>
void fields(Io& io, F& f) {
  code(io, f.code);
  io.u64(f.ref);
  message(io, f.message);
}

template <class Io, Is<AckFrame> F>
void fields(Io& io, F& f) {
  io.u32(f.request_id);
}

template <class Io, Is<ProvisionKeyFrame> F>
void fields(Io& io, F& f) {
  io.u32(f.request_id);
  io.u8(f.key_id);
  io.bytes8(f.key);
}

template <class Io, Is<OpenChannelFrame> F>
void fields(Io& io, F& f) {
  io.u32(f.request_id);
  io.u8(f.mode);
  io.u8(f.key_id);
  io.u8(f.tag_len);
  io.u8(f.nonce_len);
}

template <class Io, Is<OpenOkFrame> F>
void fields(Io& io, F& f) {
  io.u32(f.request_id);
  io.u32(f.channel);
  io.u8(f.mode);
  io.u8(f.tag_len);
  io.u8(f.nonce_len);
  io.u16(f.device_index);
}

template <class Io, Is<CloseChannelFrame> F>
void fields(Io& io, F& f) {
  io.u32(f.request_id);
  io.u32(f.channel);
}

template <class Io, Is<SubmitFrame> F>
void fields(Io& io, F& f) {
  io.u32(f.channel);
  fields(io, f.job);
}

template <class Io, Is<SubmitBatchFrame> F>
void fields(Io& io, F& f) {
  io.u32(f.channel);
  jobs(io, f.jobs);
}

/// One list for the owned CompletionFrame and the borrowed CompletionView
/// the server encodes a finished job from.
template <class Io, class F>
  requires Is<F, CompletionFrame> || Is<F, CompletionView>
void fields(Io& io, F& f) {
  io.u64(f.job_id);
  flag(io, f.auth_ok);
  io.u32(f.rejections);
  io.u64(f.submit_cycle);
  io.u64(f.accept_cycle);
  io.u64(f.complete_cycle);
  io.bytes32(f.payload);
  io.bytes8(f.tag);
}

template <class Io, Is<StatsSubscribeFrame> F>
void fields(Io& io, F& f) {
  io.u32(f.request_id);
  io.u64(f.interval_cycles);
}

template <class Io, Is<StatsFrame> F>
void fields(Io& io, F& f) {
  io.u64(f.engine_cycle);
  io.u64(f.completed_jobs);
  io.u64(f.inflight);
  io.u64(f.reconfigurations);
  io.u64(f.reconfig_stall_cycles);
  io.u32(f.sessions);
  io.u16(f.devices);
}

template <class Io, Is<GoodbyeFrame> F>
void fields(Io&, F&) {}

// ---- encode -----------------------------------------------------------------

/// Append the length prefix and opcode, then `frame`'s fields, then patch
/// the prefix. A frame that cannot be encoded (a field over its limit, or
/// the whole over kMaxFrameBytes) is taken back out before the throw.
template <class F>
void encode_framed(Op op, const F& frame, std::vector<std::uint8_t>& out) {
  const std::size_t header_at = out.size();
  try {
    Writer w(out);
    w.u32(0);  // length placeholder
    w.u8(static_cast<std::uint8_t>(op));
    fields(w, frame);
    if (out.size() - header_at - 4 > kMaxFrameBytes)
      throw std::length_error("net: encoded frame exceeds kMaxFrameBytes");
  } catch (...) {
    out.resize(header_at);
    throw;
  }
  const std::size_t length = out.size() - header_at - 4;
  for (int i = 0; i < 4; ++i)
    out[header_at + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(length >> (8 * i));
}

}  // namespace

void encode_frame(const Frame& frame, std::vector<std::uint8_t>& out) {
  std::visit([&](const auto& f) { encode_framed(frame_op(frame), f, out); }, frame);
}

void encode_completion(const CompletionView& c, std::vector<std::uint8_t>& out) {
  encode_framed(Op::kCompletion, c, out);
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

/// Make `out` the Frame alternative `index` and read its fields from `r`.
template <std::size_t... I>
void decode_fields(std::size_t index, Reader& r, Frame& out, std::index_sequence<I...>) {
  ((I == index && (fields(r, out.emplace<I>()), true)) || ...);
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
  if (op_byte == 0 || op_byte > std::variant_size_v<Frame>)
    return bad(ErrorCode::kUnknownOpcode, "unknown opcode " + std::to_string(op_byte));
  const char* name = op_name(static_cast<Op>(op_byte));

  Reader r(buf.subspan(5, length - 1));
  decode_fields(op_byte - 1u, r, d.frame, std::make_index_sequence<std::variant_size_v<Frame>>());
  if (r.refused())
    return bad(ErrorCode::kMalformedFrame, std::string("undecodable ") + name + " body");
  if (!r.ok()) return bad(ErrorCode::kMalformedFrame, std::string(name) + " body truncated");
  if (!r.exhausted())
    return bad(ErrorCode::kMalformedFrame, std::string(name) + " body has " +
                                               std::to_string(r.remaining()) + " trailing bytes");

  d.status = DecodeStatus::kFrame;
  d.consumed = 4u + length;
  return d;
}

}  // namespace mccp::net
