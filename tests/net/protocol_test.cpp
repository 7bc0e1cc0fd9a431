// net/protocol.h — wire-format round-trips plus the negative paths that
// matter on a network: truncated frames, hostile length prefixes, unknown
// opcodes, trailing body bytes, and a deterministic mutation fuzz sweep.
// The decoder must reject cleanly (kBad/kNeedMore) and never over-read.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.h"
#include "net/protocol.h"

namespace mccp::net {
namespace {

// Every frame type with every field off its default, so a round-trip
// failure in any field is caught.
std::vector<Frame> sample_frames() {
  std::vector<Frame> frames;

  HelloFrame hello;
  hello.ver_min = 1;
  hello.ver_max = 7;
  hello.tenant = 42;
  hello.client_name = "fuzz-client";
  frames.push_back(hello);

  WelcomeFrame welcome;
  welcome.version = 3;
  welcome.backend = 1;
  welcome.devices = 12;
  welcome.cores_per_device = 8;
  welcome.server_name = "fleet-a";
  frames.push_back(welcome);

  ErrorFrame error;
  error.code = ErrorCode::kUnknownChannel;
  error.ref = 0xDEADBEEFCAFEull;
  error.message = "no such channel";
  frames.push_back(error);

  AckFrame ack;
  ack.request_id = 0x01020304u;
  frames.push_back(ack);

  ProvisionKeyFrame key;
  key.request_id = 9;
  key.key_id = 3;
  key.key = Bytes(32, 0xAB);
  frames.push_back(key);

  OpenChannelFrame open;
  open.request_id = 10;
  open.mode = 4;
  open.key_id = 3;
  open.tag_len = 12;
  open.nonce_len = 11;
  frames.push_back(open);

  OpenOkFrame open_ok;
  open_ok.request_id = 10;
  open_ok.channel = 77;
  open_ok.mode = 4;
  open_ok.tag_len = 12;
  open_ok.nonce_len = 11;
  open_ok.device_index = 2;
  frames.push_back(open_ok);

  CloseChannelFrame close;
  close.request_id = 11;
  close.channel = 77;
  frames.push_back(close);

  SubmitFrame submit;
  submit.channel = 77;
  submit.job.job_id = (1ull << 32) + 5;
  submit.job.decrypt = true;
  submit.job.priority = 200;
  submit.job.iv = Bytes(12, 0x11);
  submit.job.aad = Bytes(20, 0x22);
  submit.job.payload = Bytes(300, 0x33);
  submit.job.tag = Bytes(16, 0x44);
  frames.push_back(submit);

  SubmitBatchFrame batch;
  batch.channel = 78;
  for (int i = 0; i < 3; ++i) {
    SubmitJob j;
    j.job_id = (1ull << 32) + 100 + static_cast<std::uint64_t>(i);
    j.priority = static_cast<std::uint8_t>(i);
    j.iv = Bytes(13, static_cast<std::uint8_t>(i));
    j.payload = Bytes(64 + static_cast<std::size_t>(i), 0x55);
    batch.jobs.push_back(std::move(j));
  }
  frames.push_back(batch);

  CompletionFrame completion;
  completion.job_id = (1ull << 32) + 5;
  completion.auth_ok = true;
  completion.rejections = 4;
  completion.submit_cycle = 1000;
  completion.accept_cycle = 1010;
  completion.complete_cycle = 2000;
  completion.payload = Bytes(300, 0x66);
  completion.tag = Bytes(16, 0x77);
  frames.push_back(completion);

  StatsSubscribeFrame sub;
  sub.request_id = 12;
  sub.interval_cycles = 50'000;
  frames.push_back(sub);

  StatsFrame stats;
  stats.engine_cycle = 123456;
  stats.completed_jobs = 999;
  stats.inflight = 42;
  stats.reconfigurations = 7;
  stats.reconfig_stall_cycles = 7000;
  stats.sessions = 3;
  stats.devices = 4;
  frames.push_back(stats);

  frames.push_back(GoodbyeFrame{});
  return frames;
}

bool frames_equal(const Frame& a, const Frame& b) {
  // Compare via re-encoding: the encoding is canonical (no padding, no
  // optional layouts), so byte equality is frame equality.
  return encode_frame(a) == encode_frame(b);
}

TEST(Protocol, RoundTripsEveryFrameType) {
  const std::vector<Frame> frames = sample_frames();
  ASSERT_EQ(frames.size(), std::variant_size_v<Frame>);
  for (const Frame& f : frames) {
    std::vector<std::uint8_t> wire = encode_frame(f);
    Decoded d = decode_frame(wire);
    ASSERT_EQ(d.status, DecodeStatus::kFrame) << op_name(frame_op(f)) << ": " << d.error;
    EXPECT_EQ(d.consumed, wire.size()) << op_name(frame_op(f));
    EXPECT_EQ(d.frame.index(), f.index());
    EXPECT_TRUE(frames_equal(d.frame, f)) << op_name(frame_op(f));
  }
}

TEST(Protocol, DecodesBackToBackFramesFromOneBuffer) {
  const std::vector<Frame> frames = sample_frames();
  std::vector<std::uint8_t> wire;
  for (const Frame& f : frames) encode_frame(f, wire);

  std::size_t offset = 0;
  for (const Frame& f : frames) {
    Decoded d = decode_frame(std::span<const std::uint8_t>(wire).subspan(offset));
    ASSERT_EQ(d.status, DecodeStatus::kFrame) << op_name(frame_op(f));
    EXPECT_TRUE(frames_equal(d.frame, f));
    offset += d.consumed;
  }
  EXPECT_EQ(offset, wire.size());
}

TEST(Protocol, EveryTruncationAsksForMoreOrRejects) {
  // A frame cut at any byte boundary must never decode; a prefix is
  // kNeedMore (mid-frame disconnect looks like this) — never a bogus
  // frame, never a read past the buffer.
  for (const Frame& f : sample_frames()) {
    std::vector<std::uint8_t> wire = encode_frame(f);
    for (std::size_t cut = 0; cut < wire.size(); ++cut) {
      Decoded d = decode_frame(std::span<const std::uint8_t>(wire.data(), cut));
      EXPECT_EQ(d.status, DecodeStatus::kNeedMore)
          << op_name(frame_op(f)) << " truncated to " << cut << " bytes";
    }
  }
}

TEST(Protocol, OversizedLengthPrefixRejectedImmediately) {
  // A hostile length prefix must be refused from the 4 prefix bytes alone
  // — the decoder must not ask the session to buffer a gigabyte first.
  std::vector<std::uint8_t> wire(4);
  const std::uint32_t huge = kMaxFrameBytes + 1;
  std::memcpy(wire.data(), &huge, sizeof(huge));
  Decoded d = decode_frame(wire);
  EXPECT_EQ(d.status, DecodeStatus::kBad);
  EXPECT_EQ(d.error_code, ErrorCode::kMalformedFrame);

  const std::uint32_t max_u32 = 0xFFFFFFFFu;
  std::memcpy(wire.data(), &max_u32, sizeof(max_u32));
  EXPECT_EQ(decode_frame(wire).status, DecodeStatus::kBad);
}

TEST(Protocol, ZeroLengthFrameRejected) {
  // length must cover at least the opcode byte.
  const std::vector<std::uint8_t> wire(4, 0);
  Decoded d = decode_frame(wire);
  EXPECT_EQ(d.status, DecodeStatus::kBad);
  EXPECT_EQ(d.error_code, ErrorCode::kMalformedFrame);
}

TEST(Protocol, UnknownOpcodeRejected) {
  for (std::uint8_t op : {std::uint8_t{0x00}, std::uint8_t{0x0F}, std::uint8_t{0x7F},
                          std::uint8_t{0xFF}}) {
    std::vector<std::uint8_t> wire = {1, 0, 0, 0, op};
    Decoded d = decode_frame(wire);
    EXPECT_EQ(d.status, DecodeStatus::kBad) << "opcode " << int(op);
    EXPECT_EQ(d.error_code, ErrorCode::kUnknownOpcode) << "opcode " << int(op);
  }
}

TEST(Protocol, TrailingBytesInBodyRejected) {
  // A correct body followed by extra bytes inside the declared length is a
  // framing bug (or smuggling attempt); the decoder requires exhaustion.
  for (const Frame& f : sample_frames()) {
    std::vector<std::uint8_t> wire = encode_frame(f);
    wire.push_back(0xAA);  // extra body byte...
    std::uint32_t len;
    std::memcpy(&len, wire.data(), sizeof(len));
    ++len;  // ...covered by the length prefix
    std::memcpy(wire.data(), &len, sizeof(len));
    Decoded d = decode_frame(wire);
    EXPECT_EQ(d.status, DecodeStatus::kBad) << op_name(frame_op(f));
    EXPECT_EQ(d.error_code, ErrorCode::kMalformedFrame) << op_name(frame_op(f));
  }
}

TEST(Protocol, TruncatedBodyWithinDeclaredLengthRejected) {
  // Shrink the body but keep the original length prefix pointing past it:
  // the reader underflows and must latch a clean kBad once the declared
  // bytes are present.
  for (const Frame& f : sample_frames()) {
    std::vector<std::uint8_t> wire = encode_frame(f);
    if (wire.size() <= 6) continue;  // nothing to cut beyond the opcode
    std::vector<std::uint8_t> cut(wire.begin(), wire.end() - 1);
    std::uint32_t len = static_cast<std::uint32_t>(cut.size() - 4);
    std::memcpy(cut.data(), &len, sizeof(len));
    Decoded d = decode_frame(cut);
    EXPECT_EQ(d.status, DecodeStatus::kBad) << op_name(frame_op(f));
  }
}

TEST(Protocol, HelloMagicChecked) {
  HelloFrame hello;
  hello.client_name = "x";
  std::vector<std::uint8_t> wire = encode_frame(Frame{hello});
  // The magic is the first body field after the opcode.
  wire[5] ^= 0xFF;
  Decoded d = decode_frame(wire);
  EXPECT_EQ(d.status, DecodeStatus::kBad);
  EXPECT_EQ(d.error_code, ErrorCode::kMalformedFrame);
}

TEST(Protocol, HelloCarriesTheSessionTenant) {
  // The tenant id rides in HELLO (between the version range and the client
  // name) so per-session admission can bind to the tenant's fleet-wide
  // budget before any channel opens. Zero = untenanted, and both extremes
  // of the id space survive the round-trip.
  for (std::uint16_t tenant : {std::uint16_t{0}, std::uint16_t{1}, std::uint16_t{0xFFFF}}) {
    HelloFrame hello;
    hello.tenant = tenant;
    hello.client_name = "tenant-client";
    Decoded d = decode_frame(encode_frame(Frame{hello}));
    ASSERT_EQ(d.status, DecodeStatus::kFrame);
    EXPECT_EQ(std::get<HelloFrame>(d.frame).tenant, tenant);
  }
}

TEST(Protocol, TenantErrorCodesHaveStableNames) {
  EXPECT_STREQ(error_code_name(ErrorCode::kTenantThrottled), "tenant_throttled");
  EXPECT_STREQ(error_code_name(ErrorCode::kTenantQuotaExceeded), "tenant_quota_exceeded");
  EXPECT_STREQ(error_code_name(ErrorCode::kUnknownTenant), "unknown_tenant");
  EXPECT_STREQ(error_code_name(static_cast<ErrorCode>(0xFFFF)), "unknown_error");
}

TEST(Protocol, EncodeRejectsOversizedFields) {
  HelloFrame hello;
  hello.client_name.assign(256, 'x');  // str8 limit is 255
  EXPECT_THROW(encode_frame(Frame{hello}), std::length_error);

  SubmitFrame submit;
  submit.job.iv = Bytes(256, 0);  // bytes8 limit is 255
  EXPECT_THROW(encode_frame(Frame{submit}), std::length_error);

  SubmitFrame big;
  big.job.payload = Bytes(kMaxFrameBytes, 0);  // frame total over the cap
  EXPECT_THROW(encode_frame(Frame{big}), std::length_error);

  // A frame that cannot be encoded leaves the buffer as it was, so a
  // caller's queue of frames never holds a torn one.
  for (const Frame& f : {Frame{hello}, Frame{submit}, Frame{big}}) {
    std::vector<std::uint8_t> out = {0xEE};
    EXPECT_THROW(encode_frame(f, out), std::length_error);
    EXPECT_EQ(out, std::vector<std::uint8_t>{0xEE}) << op_name(frame_op(f));
  }
}

TEST(Protocol, SubmitBatchCountBeyondTheBodyRefused) {
  // Every job record is at least 24 bytes, so a count the rest of the body
  // cannot hold is refused outright, before the decoder reserves room for
  // the jobs; a count that could fit but is cut short reads as truncated.
  for (std::uint16_t count : {std::uint16_t{2}, std::uint16_t{0xFFFF}}) {
    const std::vector<std::uint8_t> wire = {7,    0,    0,    0,    0x0A, 1, 0, 0, 0,
                                            static_cast<std::uint8_t>(count),
                                            static_cast<std::uint8_t>(count >> 8)};
    Decoded d = decode_frame(wire);
    EXPECT_EQ(d.status, DecodeStatus::kBad) << count;
    EXPECT_EQ(d.error_code, ErrorCode::kMalformedFrame) << count;
    EXPECT_EQ(d.error, "undecodable SUBMIT_BATCH body") << count;
  }
  const std::vector<std::uint8_t> one = {7, 0, 0, 0, 0x0A, 1, 0, 0, 0, 1, 0};
  Decoded d = decode_frame(one);
  EXPECT_EQ(d.status, DecodeStatus::kBad);
  EXPECT_EQ(d.error_code, ErrorCode::kMalformedFrame);
  EXPECT_EQ(d.error, "SUBMIT_BATCH body truncated");
}

TEST(Protocol, ReaderLatchesOnUnderflow) {
  const std::uint8_t raw[] = {1, 2, 3};
  Reader r{std::span<const std::uint8_t>(raw, sizeof(raw))};
  EXPECT_EQ(r.u16(), 0x0201u);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.u32(), 0u);  // underflow: zero value, latch !ok
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.u64(), 0u);  // stays latched
  EXPECT_FALSE(r.exhausted());
}

/// Wire bytes built by hand from docs/PROTOCOL.md's tables, without the
/// Writer: every fixed-width field little-endian, every byte string after
/// its length prefix.
struct Wire {
  std::vector<std::uint8_t> b;

  Wire& le(std::uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) b.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    return *this;
  }
  Wire& raw(const std::vector<std::uint8_t>& bytes) {
    b.insert(b.end(), bytes.begin(), bytes.end());
    return *this;
  }
  Wire& text(const std::string& s) { return raw(std::vector<std::uint8_t>(s.begin(), s.end())); }
  Wire& job(const SubmitJob& j) {
    le(j.job_id, 8).le(j.decrypt ? 1 : 0, 1).le(j.priority, 1);
    le(j.iv.size(), 1).raw(j.iv);
    le(j.aad.size(), 4).raw(j.aad);
    le(j.payload.size(), 4).raw(j.payload);
    return le(j.tag.size(), 1).raw(j.tag);
  }
  /// The whole frame: length prefix (opcode + body), opcode, this body.
  std::vector<std::uint8_t> frame(std::uint8_t op) const {
    Wire w;
    w.le(1 + b.size(), 4).le(op, 1).raw(b);
    return w.b;
  }
};

TEST(Protocol, EveryWireLayoutIsPinned) {
  // Each frame type of docs/PROTOCOL.md against its bytes, with every
  // field a distinct value so a dropped, swapped or resized field shows —
  // also one dropped from encode and decode at once, which a round-trip
  // cannot see. The bytes must decode back to a frame that encodes to them.
  struct Case {
    Frame frame;
    std::vector<std::uint8_t> want;
  };
  std::vector<Case> cases;

  HelloFrame hello{.ver_min = 0x0102, .ver_max = 0x0304, .tenant = 0x0506, .client_name = "cli"};
  cases.push_back({hello, Wire{}
                              .le(0x5043434D, 4)
                              .le(0x0102, 2)
                              .le(0x0304, 2)
                              .le(0x0506, 2)
                              .le(3, 1)
                              .text("cli")
                              .frame(0x01)});

  WelcomeFrame welcome{
      .version = 0x0102, .backend = 0x03, .devices = 0x0405, .cores_per_device = 0x0607,
      .server_name = "srv!"};
  cases.push_back({welcome, Wire{}
                                .le(0x0102, 2)
                                .le(0x03, 1)
                                .le(0x0405, 2)
                                .le(0x0607, 2)
                                .le(4, 1)
                                .text("srv!")
                                .frame(0x02)});

  // A message over 255 bytes is cut to its first 255 on encode.
  std::string long_message(300, 'm');
  long_message[254] = 'z';
  long_message[255] = 'y';
  ErrorFrame error{.code = ErrorCode::kTenantQuotaExceeded, .ref = 0x0102030405060708ull,
                   .message = long_message};
  cases.push_back({error, Wire{}
                              .le(10, 2)
                              .le(0x0102030405060708ull, 8)
                              .le(255, 1)
                              .text(long_message.substr(0, 255))
                              .frame(0x03)});

  cases.push_back({AckFrame{.request_id = 0x01020304u}, Wire{}.le(0x01020304u, 4).frame(0x04)});

  ProvisionKeyFrame key{.request_id = 0x01020304u, .key_id = 0x05, .key = {0xA1, 0xA2, 0xA3}};
  cases.push_back({key, Wire{}
                            .le(0x01020304u, 4)
                            .le(0x05, 1)
                            .le(3, 1)
                            .raw(key.key)
                            .frame(0x05)});

  OpenChannelFrame open{
      .request_id = 0x01020304u, .mode = 0x05, .key_id = 0x06, .tag_len = 0x07, .nonce_len = 0x08};
  cases.push_back({open, Wire{}
                             .le(0x01020304u, 4)
                             .le(0x05, 1)
                             .le(0x06, 1)
                             .le(0x07, 1)
                             .le(0x08, 1)
                             .frame(0x06)});

  OpenOkFrame open_ok{.request_id = 0x01020304u, .channel = 0x05060708u, .mode = 0x09,
                      .tag_len = 0x0A, .nonce_len = 0x0B, .device_index = 0x0C0D};
  cases.push_back({open_ok, Wire{}
                                .le(0x01020304u, 4)
                                .le(0x05060708u, 4)
                                .le(0x09, 1)
                                .le(0x0A, 1)
                                .le(0x0B, 1)
                                .le(0x0C0D, 2)
                                .frame(0x07)});

  CloseChannelFrame close{.request_id = 0x01020304u, .channel = 0x05060708u};
  cases.push_back({close, Wire{}.le(0x01020304u, 4).le(0x05060708u, 4).frame(0x08)});

  const SubmitJob job_a{.job_id = 0x0102030405060708ull, .decrypt = true, .priority = 0x09,
                        .iv = {0xC1, 0xC2}, .aad = {0xD1, 0xD2, 0xD3},
                        .payload = {0xE1, 0xE2, 0xE3, 0xE4}, .tag = {0xF1}};
  const SubmitJob job_b{.job_id = 0x1112131415161718ull, .decrypt = false, .priority = 0x19,
                        .iv = {0xC9}, .aad = {}, .payload = {0xE9, 0xEA}, .tag = {}};
  SubmitFrame submit{.channel = 0x21222324u, .job = job_a};
  cases.push_back({submit, Wire{}.le(0x21222324u, 4).job(job_a).frame(0x09)});

  SubmitBatchFrame empty_batch{.channel = 0x21222324u, .jobs = {}};
  cases.push_back({empty_batch, Wire{}.le(0x21222324u, 4).le(0, 2).frame(0x0A)});
  SubmitBatchFrame batch{.channel = 0x31323334u, .jobs = {job_a, job_b}};
  cases.push_back(
      {batch, Wire{}.le(0x31323334u, 4).le(2, 2).job(job_a).job(job_b).frame(0x0A)});

  CompletionFrame c{.job_id = 0x0102030405060708ull, .auth_ok = true, .rejections = 0x0A0B0C0Du,
                    .submit_cycle = 0x1112131415161718ull,
                    .accept_cycle = 0x2122232425262728ull,
                    .complete_cycle = 0x3132333435363738ull, .payload = {0xA1, 0xA2, 0xA3},
                    .tag = {0xB1, 0xB2}};
  cases.push_back({c, Wire{}
                          .le(c.job_id, 8)
                          .le(1, 1)
                          .le(c.rejections, 4)
                          .le(c.submit_cycle, 8)
                          .le(c.accept_cycle, 8)
                          .le(c.complete_cycle, 8)
                          .le(3, 4)
                          .raw(c.payload)
                          .le(2, 1)
                          .raw(c.tag)
                          .frame(0x0B)});

  StatsSubscribeFrame sub{.request_id = 0x01020304u, .interval_cycles = 0x05060708090A0B0Cull};
  cases.push_back(
      {sub, Wire{}.le(0x01020304u, 4).le(0x05060708090A0B0Cull, 8).frame(0x0C)});

  StatsFrame stats{.engine_cycle = 0x0102030405060708ull,
                   .completed_jobs = 0x1112131415161718ull,
                   .inflight = 0x2122232425262728ull,
                   .reconfigurations = 0x3132333435363738ull,
                   .reconfig_stall_cycles = 0x4142434445464748ull,
                   .sessions = 0x51525354u,
                   .devices = 0x6162};
  cases.push_back({stats, Wire{}
                              .le(stats.engine_cycle, 8)
                              .le(stats.completed_jobs, 8)
                              .le(stats.inflight, 8)
                              .le(stats.reconfigurations, 8)
                              .le(stats.reconfig_stall_cycles, 8)
                              .le(stats.sessions, 4)
                              .le(stats.devices, 2)
                              .frame(0x0D)});

  cases.push_back({GoodbyeFrame{}, Wire{}.frame(0x0E)});

  std::vector<bool> covered(std::variant_size_v<Frame>, false);
  for (const Case& k : cases) {
    const char* name = op_name(frame_op(k.frame));
    covered[k.frame.index()] = true;
    EXPECT_EQ(encode_frame(k.frame), k.want) << name;
    Decoded d = decode_frame(k.want);
    ASSERT_EQ(d.status, DecodeStatus::kFrame) << name << ": " << d.error;
    EXPECT_EQ(d.consumed, k.want.size()) << name;
    EXPECT_EQ(d.frame.index(), k.frame.index()) << name;
    EXPECT_EQ(encode_frame(d.frame), k.want) << name;
  }
  EXPECT_EQ(std::count(covered.begin(), covered.end(), true), std::ssize(covered));
}

TEST(Protocol, EncodeCompletionMatchesEncodeFrame) {
  // The server encodes a finished job straight from its result bytes; the
  // frame it appends must be the one encode_frame writes for the same
  // fields, after whatever the egress buffer already holds.
  CompletionFrame failed;  // auth failure: empty payload, no tag
  failed.job_id = 77;
  failed.rejections = 2;
  std::vector<CompletionFrame> cases = {failed};
  for (const Frame& f : sample_frames())
    if (const auto* c = std::get_if<CompletionFrame>(&f)) cases.push_back(*c);
  ASSERT_EQ(cases.size(), 2u);

  for (const CompletionFrame& c : cases) {
    std::vector<std::uint8_t> via_frame = {0xEE};
    encode_frame(Frame{c}, via_frame);
    std::vector<std::uint8_t> via_view = {0xEE};
    encode_completion({.job_id = c.job_id,
                       .auth_ok = c.auth_ok,
                       .rejections = c.rejections,
                       .submit_cycle = c.submit_cycle,
                       .accept_cycle = c.accept_cycle,
                       .complete_cycle = c.complete_cycle,
                       .payload = c.payload,
                       .tag = c.tag},
                      via_view);
    EXPECT_EQ(via_view, via_frame) << "job " << c.job_id;
  }

  // Over the frame cap: throws and leaves the buffer as it was.
  const Bytes huge(kMaxFrameBytes, 0);
  std::vector<std::uint8_t> out = {0xEE};
  EXPECT_THROW(encode_completion({.job_id = 1, .payload = huge, .tag = {}}, out), std::length_error);
  EXPECT_EQ(out, std::vector<std::uint8_t>{0xEE});
}

TEST(Protocol, MutationFuzzNeverCrashesOrOverReads) {
  // Deterministic fuzz: take valid encodings, flip bytes / truncate /
  // splice with seeded randomness, and require the decoder to return one
  // of its three statuses without throwing. consumed must never exceed
  // the buffer.
  Rng rng(0xF022BA11u);
  const std::vector<Frame> frames = sample_frames();
  for (int iter = 0; iter < 20'000; ++iter) {
    std::vector<std::uint8_t> wire =
        encode_frame(frames[rng.next_u64() % frames.size()]);
    const int mutations = 1 + static_cast<int>(rng.next_u64() % 8);
    for (int m = 0; m < mutations; ++m) {
      switch (rng.next_u64() % 4) {
        case 0:  // flip a byte
          if (!wire.empty()) wire[rng.next_u64() % wire.size()] ^= 1u << (rng.next_u64() % 8);
          break;
        case 1:  // truncate
          if (!wire.empty()) wire.resize(rng.next_u64() % wire.size());
          break;
        case 2:  // append noise
          wire.push_back(static_cast<std::uint8_t>(rng.next_u64()));
          break;
        case 3: {  // splice a chunk of another frame
          std::vector<std::uint8_t> other =
              encode_frame(frames[rng.next_u64() % frames.size()]);
          std::size_t n = rng.next_u64() % (other.size() + 1);
          wire.insert(wire.end(), other.begin(), other.begin() + static_cast<std::ptrdiff_t>(n));
          break;
        }
      }
    }
    Decoded d = decode_frame(wire);
    switch (d.status) {
      case DecodeStatus::kFrame:
        ASSERT_LE(d.consumed, wire.size());
        ASSERT_GE(d.consumed, 5u);  // prefix + opcode at minimum
        break;
      case DecodeStatus::kNeedMore:
        // Only believable while under the max frame size.
        if (wire.size() >= 4) {
          std::uint32_t len;
          std::memcpy(&len, wire.data(), sizeof(len));
          ASSERT_LE(len, kMaxFrameBytes);
        }
        break;
      case DecodeStatus::kBad:
        ASSERT_FALSE(d.error.empty());
        break;
    }
  }
}

}  // namespace
}  // namespace mccp::net
