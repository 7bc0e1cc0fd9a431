// MCCP/1 — the networked crypto-offload wire protocol.
//
// The Engine so far is an in-process driver; the ROADMAP's "millions of
// users" direction needs a network boundary, with thousands of client
// circuits multiplexed onto the fleet (the Channel Access client/server
// split is the exemplar: per-client sessions, server-side channel
// interfaces, subscription push with flow control). This header defines the
// versioned, length-prefixed binary framing both sides speak, and the
// encode/decode helpers — strictly bounds-checked, allocation-sane, and
// fuzz-testable in isolation from any socket (tests/net/protocol_test.cpp
// feeds them truncations, oversized prefixes and random mutations).
//
// Framing (all integers little-endian):
//
//   u32 length     bytes that follow (opcode + body); 1 <= length <= kMaxFrameBytes
//   u8  opcode     Op below
//   ...body        per-opcode layout (docs/PROTOCOL.md has the full tables)
//
// A frame's body layout is defined in one place: its field list in
// protocol.cpp (`fields(io, frame)`), which a Writer runs to encode and a
// Reader runs to decode. The opcode is the frame's Frame alternative index
// + 1 (checked below). Protocol.EveryWireLayoutIsPinned holds every
// frame's bytes to docs/PROTOCOL.md's tables.
//
// A connection starts with HELLO (magic + supported version range) and is
// answered by WELCOME (chosen version + fleet shape) or a typed ERROR.
// Control ops (PROVISION_KEY / OPEN_CHANNEL / CLOSE_CHANNEL /
// STATS_SUBSCRIBE) carry a client-chosen request id echoed by the reply;
// data ops (SUBMIT / SUBMIT_BATCH) carry client-chosen job ids echoed by
// COMPLETION frames. ERROR frames reference the offending request/job id
// where one exists.
//
// Decoding never over-reads: `decode_frame` first validates the length
// prefix against kMaxFrameBytes, then parses the body through a
// bounds-checked Reader and rejects any frame with missing or trailing
// bytes. A malformed frame is a protocol violation — the peer is expected
// to send ERROR (when the direction allows) and drop the connection.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "common/bytes.h"

namespace mccp::net {

/// Protocol version this build speaks. HELLO advertises a [min, max]
/// range; the server picks its own version if the range covers it and
/// rejects the connection with kVersionMismatch otherwise.
inline constexpr std::uint16_t kProtocolVersion = 1;

/// First field of HELLO ("MCCP" little-endian); rejects strays that
/// connected to the wrong port before any other parsing happens.
inline constexpr std::uint32_t kHelloMagic = 0x5043434Du;

/// Hard ceiling on `length` (opcode + body). Large enough for a maximal
/// SUBMIT_BATCH burst, small enough that a hostile length prefix cannot
/// make a session buffer gigabytes.
inline constexpr std::uint32_t kMaxFrameBytes = 1u << 20;

enum class Op : std::uint8_t {
  kHello = 0x01,          // client -> server
  kWelcome = 0x02,        // server -> client
  kError = 0x03,          // server -> client (typed, see ErrorCode)
  kAck = 0x04,            // server -> client: PROVISION_KEY / CLOSE_CHANNEL / STATS_SUBSCRIBE ok
  kProvisionKey = 0x05,   // client -> server
  kOpenChannel = 0x06,    // client -> server
  kOpenOk = 0x07,         // server -> client
  kCloseChannel = 0x08,   // client -> server
  kSubmit = 0x09,         // client -> server: one job
  kSubmitBatch = 0x0A,    // client -> server: burst on one channel
  kCompletion = 0x0B,     // server -> client: one finished job
  kStatsSubscribe = 0x0C, // client -> server (interval 0 = unsubscribe)
  kStats = 0x0D,          // server -> client: subscription push
  kGoodbye = 0x0E,        // client -> server: clean close
};

enum class ErrorCode : std::uint16_t {
  kMalformedFrame = 1,   // undecodable body, bad length prefix, bad magic
  kVersionMismatch = 2,  // HELLO range does not cover the server's version
  kUnknownOpcode = 3,
  kNotReady = 4,         // op before the HELLO/WELCOME handshake finished
  kUnknownChannel = 5,   // SUBMIT/CLOSE on a channel this session never opened
  kOpenFailed = 6,       // device-side OPEN rejection (no slots, bad key, ...)
  kKeyRejected = 7,      // PROVISION_KEY with an unusable key
  kBusy = 8,             // server at max_sessions
  // Tenant QoS refusals (src/qos/): job-referenced, non-fatal — the
  // session stays up and the client backs off / sheds the work.
  kTenantThrottled = 9,      // tenant over its contracted rate
  kTenantQuotaExceeded = 10, // tenant at its in-flight quota
  kUnknownTenant = 11,       // HELLO named a tenant id the fleet has not registered
};
const char* error_code_name(ErrorCode code);

// ---- frame payloads ---------------------------------------------------------

struct HelloFrame {
  std::uint16_t ver_min = kProtocolVersion;
  std::uint16_t ver_max = kProtocolVersion;
  /// Tenant this session submits under (qos::TenantTable id; 0 = none).
  /// Every channel the session opens binds to it, so per-session
  /// admission shares the tenant's rate/quota budget fleet-wide. An
  /// unregistered id is rejected with kUnknownTenant at HELLO time.
  std::uint16_t tenant = 0;
  std::string client_name;  // <= 255 bytes, diagnostics only
};

struct WelcomeFrame {
  std::uint16_t version = kProtocolVersion;
  std::uint8_t backend = 0;  // host::Backend underneath (0 sim, 1 fast)
  std::uint16_t devices = 0;
  std::uint16_t cores_per_device = 0;
  std::string server_name;
};

struct ErrorFrame {
  ErrorCode code{};
  std::uint64_t ref = 0;  // offending request/job id, 0 when none applies
  std::string message;
};

struct AckFrame {
  std::uint32_t request_id = 0;
};

struct ProvisionKeyFrame {
  std::uint32_t request_id = 0;
  std::uint8_t key_id = 0;
  Bytes key;
};

struct OpenChannelFrame {
  std::uint32_t request_id = 0;
  std::uint8_t mode = 0;  // top::ChannelMode
  std::uint8_t key_id = 0;
  std::uint8_t tag_len = 16;
  std::uint8_t nonce_len = 13;
};

struct OpenOkFrame {
  std::uint32_t request_id = 0;
  std::uint32_t channel = 0;  // server-assigned, session-scoped
  std::uint8_t mode = 0;
  std::uint8_t tag_len = 16;
  std::uint8_t nonce_len = 13;
  std::uint16_t device_index = 0;  // which fleet device the channel landed on
};

struct CloseChannelFrame {
  std::uint32_t request_id = 0;
  std::uint32_t channel = 0;
};

/// One job of a SUBMIT / SUBMIT_BATCH. `job_id` is client-chosen and must
/// be session-unique among unfinished jobs; COMPLETION echoes it.
struct SubmitJob {
  std::uint64_t job_id = 0;
  bool decrypt = false;
  std::uint8_t priority = 128;
  Bytes iv;       // <= 255 bytes
  Bytes aad;      // <= kMaxFrameBytes
  Bytes payload;  // <= kMaxFrameBytes
  Bytes tag;      // <= 255 bytes, decrypt only
};

struct SubmitFrame {
  std::uint32_t channel = 0;
  SubmitJob job;
};

struct SubmitBatchFrame {
  std::uint32_t channel = 0;
  std::vector<SubmitJob> jobs;
};

struct CompletionFrame {
  std::uint64_t job_id = 0;
  bool auth_ok = false;
  std::uint32_t rejections = 0;
  std::uint64_t submit_cycle = 0;
  std::uint64_t accept_cycle = 0;
  std::uint64_t complete_cycle = 0;
  Bytes payload;  // ciphertext (encrypt) / plaintext (decrypt)
  Bytes tag;      // encrypt only
};

struct StatsSubscribeFrame {
  std::uint32_t request_id = 0;
  /// Push a STATS frame whenever the engine clock advances this far past
  /// the previous push (0 = unsubscribe). Subscribing also triggers one
  /// immediate push, so a snapshot is a subscribe with a huge interval.
  std::uint64_t interval_cycles = 0;
};

struct StatsFrame {
  std::uint64_t engine_cycle = 0;
  std::uint64_t completed_jobs = 0;  // engine-lifetime completions
  std::uint64_t inflight = 0;
  std::uint64_t reconfigurations = 0;
  std::uint64_t reconfig_stall_cycles = 0;
  std::uint32_t sessions = 0;
  std::uint16_t devices = 0;
};

struct GoodbyeFrame {};

using Frame = std::variant<HelloFrame, WelcomeFrame, ErrorFrame, AckFrame, ProvisionKeyFrame,
                           OpenChannelFrame, OpenOkFrame, CloseChannelFrame, SubmitFrame,
                           SubmitBatchFrame, CompletionFrame, StatsSubscribeFrame, StatsFrame,
                           GoodbyeFrame>;

/// A frame's opcode is its Frame alternative's index + 1 (protocol.cpp
/// checks that the two orders agree).
inline Op frame_op(const Frame& frame) { return static_cast<Op>(frame.index() + 1); }
const char* op_name(Op op);

// ---- encode -----------------------------------------------------------------

/// Append the length-prefixed encoding of `frame` to `out`. Throws
/// std::length_error, leaving `out` as it was, if a field exceeds its wire
/// limit (string > 255, iv/tag > 255, frame > kMaxFrameBytes).
void encode_frame(const Frame& frame, std::vector<std::uint8_t>& out);
std::vector<std::uint8_t> encode_frame(const Frame& frame);

/// A COMPLETION's fields with its payload and tag borrowed, so a finished
/// job is encoded straight from the bytes that hold its result.
struct CompletionView {
  std::uint64_t job_id = 0;
  bool auth_ok = false;
  std::uint32_t rejections = 0;
  std::uint64_t submit_cycle = 0;
  std::uint64_t accept_cycle = 0;
  std::uint64_t complete_cycle = 0;
  ByteSpan payload;
  ByteSpan tag;
};

/// Append one COMPLETION frame. encode_frame writes a CompletionFrame
/// through the same field list, so the two produce identical bytes.
void encode_completion(const CompletionView& c, std::vector<std::uint8_t>& out);

// ---- decode -----------------------------------------------------------------

enum class DecodeStatus : std::uint8_t {
  kFrame,     // one frame decoded; `consumed` bytes eaten
  kNeedMore,  // `buf` holds a frame prefix; read more and retry
  kBad,       // protocol violation; `error`/`error_code` say why. The
              // buffer is poisoned — drop the connection.
};

struct Decoded {
  DecodeStatus status = DecodeStatus::kNeedMore;
  Frame frame{};              // valid when status == kFrame
  std::size_t consumed = 0;   // valid when status == kFrame
  ErrorCode error_code{};     // valid when status == kBad
  std::string error;          // valid when status == kBad
};

/// Decode the first complete frame at the start of `buf`. Never reads past
/// `buf.size()`; never accepts a frame whose body has missing or trailing
/// bytes; rejects length prefixes above kMaxFrameBytes outright (without
/// waiting for the bytes to arrive).
Decoded decode_frame(std::span<const std::uint8_t> buf);

// ---- low-level helpers (exposed for the fuzz/negative tests) ----------------

/// Bounds-checked little-endian reader over one frame body. All getters
/// return zero values after the first underflow and latch `ok() == false`;
/// callers check once at the end instead of after every field.
class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  /// Length-prefixed byte strings (u8 / u32 prefixes).
  Bytes bytes8();
  Bytes bytes32();
  std::string str8();

  /// The same reads into a field, so a Reader runs the field lists that
  /// a Writer encodes with.
  void u8(std::uint8_t& v) { v = u8(); }
  void u16(std::uint16_t& v) { v = u16(); }
  void u32(std::uint32_t& v) { v = u32(); }
  void u64(std::uint64_t& v) { v = u64(); }
  void bytes8(Bytes& v) { v = bytes8(); }
  void bytes32(Bytes& v) { v = bytes32(); }
  void str8(std::string& v) { v = str8(); }

  /// Latch !ok() on a value the frame cannot take (bad HELLO magic, a
  /// SUBMIT_BATCH count the body cannot hold); decode_frame then reports
  /// the body undecodable rather than truncated.
  void refuse() {
    ok_ = false;
    refused_ = true;
  }
  bool refused() const { return refused_; }

  bool ok() const { return ok_; }
  std::size_t remaining() const { return data_.size() - pos_; }
  /// True when every byte of the body was consumed and nothing underflowed.
  bool exhausted() const { return ok_ && pos_ == data_.size(); }

 private:
  bool take(std::size_t n);  // false (and latch !ok_) on underflow

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
  bool refused_ = false;
};

/// Little-endian appender; the encode_* counterpart of Reader. Each
/// fixed-width field grows the buffer once and is stored whole.
class Writer {
 public:
  explicit Writer(std::vector<std::uint8_t>& out) : out_(out) {}

  void u8(std::uint8_t v) { out_.push_back(v); }
  void u16(std::uint16_t v) { put_le(v); }
  void u32(std::uint32_t v) { put_le(v); }
  void u64(std::uint64_t v) { put_le(v); }
  void bytes8(ByteSpan b);   // u8 length prefix; throws above 255
  void bytes32(ByteSpan b);  // u32 length prefix
  void str8(std::string_view s);

 private:
  template <typename T>
  void put_le(T v) {
    const std::size_t at = out_.size();
    out_.resize(at + sizeof(T));
    std::uint8_t* p = out_.data() + at;
    for (std::size_t i = 0; i < sizeof(T); ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
  }

  std::vector<std::uint8_t>& out_;
};

}  // namespace mccp::net
