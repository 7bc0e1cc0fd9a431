// FastDevice behaviour tests: control-plane error codes, scheduling
// (priority, core occupancy, CCM pair mapping), key-cache accounting, the
// event-driven clock, deferred compute in live CCM lanes (retired, forgotten
// and re-keyed around), mixed sim/fast fleets — and the calibration check
// that pins the cost model to the cycle-accurate simulator's steady-state
// packet occupancy.
#include <gtest/gtest.h>

#include <array>
#include <cstdlib>
#include <memory>
#include <vector>

#include "common/hex.h"
#include "common/rng.h"
#include "core/stream_format.h"
#include "crypto/ccm.h"
#include "crypto/gcm.h"
#include "host/cost_model.h"
#include "host/engine.h"
#include "mccp/timing.h"

namespace mccp::host {
namespace {

TEST(FastDevice, OpenChannelValidatesLikeTheScheduler) {
  FastDevice dev({.num_cores = 2});
  EXPECT_FALSE(dev.open_channel(ChannelMode::kGcm, 1).has_value());
  EXPECT_EQ(top::return_error(dev.last_error()), top::ControlError::kNoKey);

  dev.provision_key(1, Bytes(16, 7));
  EXPECT_FALSE(dev.open_channel(ChannelMode::kCcm, 1, /*tag_len=*/3).has_value());
  EXPECT_EQ(top::return_error(dev.last_error()), top::ControlError::kBadParameters);

  // Whirlpool channels are unkeyed, like the simulated scheduler's OPEN.
  EXPECT_TRUE(dev.open_channel(ChannelMode::kWhirlpool, 99).has_value());

  for (int i = 0; i < 63; ++i)
    ASSERT_TRUE(dev.open_channel(ChannelMode::kGcm, 1, 16, 12).has_value()) << i;
  EXPECT_FALSE(dev.open_channel(ChannelMode::kGcm, 1, 16, 12).has_value());
  EXPECT_EQ(top::return_error(dev.last_error()), top::ControlError::kChannelsExhausted);

  EXPECT_FALSE(dev.close_channel(200));
  EXPECT_EQ(top::return_error(dev.last_error()), top::ControlError::kNoChannel);
}

TEST(FastDevice, SubmitOnUnknownChannelFailsTheJob) {
  FastDevice dev({.num_cores = 1});
  dev.provision_key(1, Bytes(16, 1));
  JobSpec spec;
  spec.channel = ChannelInfo{42, ChannelMode::kGcm, 1, 16, 12};
  spec.iv_or_nonce = Bytes(12, 0);
  spec.payload = Bytes(32, 0);
  DeviceJobId id = dev.submit(std::move(spec));
  while (!dev.idle()) dev.step();
  const JobResult* r = dev.result(id);
  ASSERT_NE(r, nullptr);
  EXPECT_TRUE(r->complete);
  EXPECT_FALSE(r->auth_ok);
  EXPECT_TRUE(r->payload.empty());
}

TEST(FastDevice, PriorityOrderBeatsArrivalOrder) {
  Engine engine({.num_devices = 1, .device = {.num_cores = 1}, .backend = Backend::kFast});
  Rng rng(11);
  engine.provision_key(1, rng.bytes(16));
  Channel ch = engine.open_channel(ChannelMode::kGcm, 1, 16, 12);
  ASSERT_TRUE(ch.valid());

  // Fill the single core so the next three packets genuinely queue.
  Completion filler = engine.submit_encrypt(ch, rng.bytes(12), {}, rng.bytes(2048));
  Completion low = engine.submit_encrypt(ch, rng.bytes(12), {}, rng.bytes(64), /*priority=*/200);
  Completion mid = engine.submit_encrypt(ch, rng.bytes(12), {}, rng.bytes(64), /*priority=*/128);
  Completion urgent = engine.submit_encrypt(ch, rng.bytes(12), {}, rng.bytes(64), /*priority=*/0);
  engine.wait_all();

  EXPECT_LT(urgent.result().complete_cycle, mid.result().complete_cycle);
  EXPECT_LT(mid.result().complete_cycle, low.result().complete_cycle);
}

TEST(FastDevice, CoresRunInParallelAndQueueWhenBusy) {
  Rng rng(12);
  Bytes key = rng.bytes(16);
  auto span_for_cores = [&](std::size_t cores) {
    Engine engine({.num_devices = 1, .device = {.num_cores = cores}, .backend = Backend::kFast});
    engine.provision_key(1, key);
    Channel ch = engine.open_channel(ChannelMode::kGcm, 1, 16, 12);
    std::vector<Completion> jobs;
    for (int i = 0; i < 4; ++i)
      jobs.push_back(engine.submit_encrypt(ch, rng.bytes(12), {}, rng.bytes(1024)));
    engine.wait_all();
    sim::Cycle last = 0;
    for (auto& j : jobs) last = std::max(last, j.result().complete_cycle);
    return last;
  };
  sim::Cycle serial = span_for_cores(1);
  sim::Cycle parallel = span_for_cores(4);
  EXPECT_GT(serial, 3 * parallel);  // 4 cores ≈ 4x the single-core makespan
}

TEST(FastDevice, KeyRotationInvalidatesCoreCaches) {
  // Second packet on a warm key cache completes faster than the first;
  // re-provisioning the key makes the next packet pay expansion again.
  Engine engine({.num_devices = 1, .device = {.num_cores = 1}, .backend = Backend::kFast});
  Rng rng(13);
  Bytes key = rng.bytes(32);
  engine.provision_key(1, key);
  Channel ch = engine.open_channel(ChannelMode::kGcm, 1, 16, 12);

  auto latency = [&](const Completion& c) {
    return c.result().complete_cycle - c.result().accept_cycle;
  };
  Completion cold = engine.submit_encrypt(ch, rng.bytes(12), {}, rng.bytes(256));
  cold.wait();
  Completion warm = engine.submit_encrypt(ch, rng.bytes(12), {}, rng.bytes(256));
  warm.wait();
  EXPECT_EQ(latency(cold), latency(warm) + top::key_expansion_cycles(crypto::AesKeySize::k256));

  engine.provision_key(1, key);  // rotation epoch bump, same bytes
  Completion rotated = engine.submit_encrypt(ch, rng.bytes(12), {}, rng.bytes(256));
  rotated.wait();
  EXPECT_EQ(latency(rotated), latency(cold));
}

TEST(FastDevice, EventDrivenClockStillTicksWhenIdle) {
  FastDevice dev({.num_cores = 2});
  sim::Cycle before = dev.now();
  dev.step();
  dev.step();
  EXPECT_EQ(dev.now(), before + 2);
}

TEST(FastDevice, MixedFleetProducesIdenticalResults) {
  // The adopting constructor hosts heterogeneous fleets: one cycle-accurate
  // device and one fast device behind the same engine.
  std::vector<std::unique_ptr<Device>> fleet;
  fleet.push_back(std::make_unique<SimDevice>(top::MccpConfig{.num_cores = 2}, "sim0"));
  fleet.push_back(std::make_unique<FastDevice>(top::MccpConfig{.num_cores = 2}, "fast0"));
  Engine engine(std::move(fleet));

  Rng rng(14);
  Bytes key = rng.bytes(16);
  engine.provision_key(1, key);
  auto keys = crypto::aes_expand_key(key);

  Channel a = engine.open_channel(ChannelMode::kGcm, 1, 16, 12);
  Channel b = engine.open_channel(ChannelMode::kGcm, 1, 16, 12);
  ASSERT_TRUE(a.valid() && b.valid());
  ASSERT_NE(a.device_index(), b.device_index());

  Bytes iv = rng.bytes(12), pt = rng.bytes(512);
  Completion on_a = engine.submit_encrypt(a, iv, {}, pt);
  Completion on_b = engine.submit_encrypt(b, iv, {}, pt);
  engine.wait_all();

  auto ref = crypto::gcm_seal(keys, iv, {}, pt);
  for (const Completion* c : {&on_a, &on_b}) {
    EXPECT_EQ(to_hex(c->result().payload), to_hex(ref.ciphertext));
    EXPECT_EQ(to_hex(c->result().tag), to_hex(ref.tag));
  }
}

// --- cost-model calibration ---------------------------------------------------

struct CalibrationCase {
  ChannelMode mode;
  top::CcmMapping mapping;
  std::size_t key_len;
  std::size_t payload_len;
  std::size_t aad_len;
  unsigned tag_len;
  unsigned nonce_len;
  double tolerance;  // |fast - sim| / sim bound on steady-state occupancy
};

sim::Cycle steady_state_occupancy(Backend backend, const CalibrationCase& c) {
  Engine engine({.num_devices = 1,
                 .device = {.num_cores = 2, .ccm_mapping = c.mapping},
                 .backend = backend});
  Rng rng(99);
  engine.provision_key(1, rng.bytes(c.key_len));
  Channel ch = engine.open_channel(c.mode, 1, c.tag_len, c.nonce_len);
  EXPECT_TRUE(ch.valid());
  Bytes iv;
  if (c.mode == ChannelMode::kGcm) iv = rng.bytes(c.nonce_len);
  else if (c.mode == ChannelMode::kCcm) iv = rng.bytes(c.nonce_len);
  else if (c.mode == ChannelMode::kCtr) {
    iv = rng.bytes(16);
    iv[14] = iv[15] = 0;
  }
  // Two packets: the second runs on a warm key cache (steady state).
  engine.submit_encrypt(ch, iv, rng.bytes(c.aad_len), rng.bytes(c.payload_len)).wait();
  const JobResult& r =
      engine.submit_encrypt(ch, iv, rng.bytes(c.aad_len), rng.bytes(c.payload_len)).wait();
  return r.complete_cycle - r.accept_cycle;
}

TEST(FastDevice, BatchedCcmMixedWithGcmMatchesReferencesAndStamps) {
  // Deferred compute: each wave is submitted to an idle 4-core device, so
  // all of a wave's first four jobs are dispatched in one step, and each
  // CCM job's lane runs beside the other running CCM lanes of its round
  // count as jobs retire — four CCM jobs side by side (AES-128 and AES-256
  // keys, so lanes group by round count), CCM beside GCM, and seals beside
  // opens (some tampered), with deeper waves queueing behind busy cores.
  // Every result must equal the crypto::* reference, and every stamp the
  // cost model's (pinned: when the host computes moves no cycle).
  FastDevice dev({.num_cores = 4});
  Rng rng(2024);
  const Bytes key1 = rng.bytes(16), key2 = rng.bytes(32);
  const auto keys1 = crypto::aes_expand_key(key1), keys2 = crypto::aes_expand_key(key2);
  dev.provision_key(1, key1);
  dev.provision_key(2, key2);
  const ChannelInfo gcm1 = *dev.open_channel(ChannelMode::kGcm, 1, 16, 12);
  const ChannelInfo ccm1 = *dev.open_channel(ChannelMode::kCcm, 1, 16, 13);
  const ChannelInfo ccm2 = *dev.open_channel(ChannelMode::kCcm, 2, 8, 13);
  const ChannelInfo gcm2 = *dev.open_channel(ChannelMode::kGcm, 2, 12, 12);

  struct Case {
    JobSpec spec;
    bool want_ok = true;
    Bytes want_payload, want_tag;
  };
  // A seal on `ch`, or (open) the open of a fresh seal, tampered on request.
  auto make = [&](const ChannelInfo& ch, std::size_t len, bool open, bool tamper) {
    Case c;
    JobSpec& s = c.spec;
    s.channel = ch;
    s.iv_or_nonce = rng.bytes(ch.nonce_len);
    s.aad = rng.bytes(len % 3 == 0 ? 0 : 20);
    const Bytes pt = rng.bytes(len);
    const auto& keys = ch.key_id == 1 ? keys1 : keys2;
    Bytes ct, tag;
    if (ch.mode == ChannelMode::kGcm) {
      auto sealed = crypto::gcm_seal(keys, s.iv_or_nonce, s.aad, pt, ch.tag_len);
      ct = std::move(sealed.ciphertext), tag = std::move(sealed.tag);
    } else {
      auto sealed = crypto::ccm_seal(keys, {ch.tag_len, ch.nonce_len}, s.iv_or_nonce, s.aad, pt);
      ct = std::move(sealed.ciphertext), tag = std::move(sealed.tag);
    }
    if (!open) {
      s.payload = pt;
      c.want_payload = ct, c.want_tag = tag;
      return c;
    }
    s.decrypt = true;
    s.payload = ct;
    s.tag = tag;
    if (tamper) s.tag[len % tag.size()] ^= 0x10;
    c.want_ok = !tamper;
    if (!tamper) c.want_payload = pt;
    return c;
  };
  std::vector<std::vector<Case>> waves(4);
  // Four CCM seals: four lanes.
  waves[0] = {make(ccm1, 4096, false, false), make(ccm2, 1000, false, false),
              make(ccm1, 17, false, false), make(ccm2, 2048, false, false)};
  // Two CCM beside two GCM, seals and opens.
  waves[1] = {make(gcm1, 512, false, false), make(ccm1, 3000, true, false),
              make(gcm2, 4000, true, false), make(ccm2, 0, false, false)};
  // Nine jobs on four cores: lanes refill as cores free up.
  waves[2] = {make(ccm1, 1500, true, true),  make(ccm2, 2500, true, false),
              make(ccm1, 64, false, false),  make(ccm2, 255, true, false),
              make(gcm1, 700, true, true),   make(ccm1, 4080, false, false),
              make(gcm2, 33, false, false),  make(ccm2, 1024, true, true),
              make(ccm1, 160, true, false)};
  // Five CCM opens of one key: four lanes, then one.
  waves[3] = {make(ccm1, 800, true, false), make(ccm1, 801, true, false),
              make(ccm1, 1600, true, true), make(ccm1, 16, true, false),
              make(ccm1, 2222, true, false)};

  // (submit, accept, complete) per job: the cost model's stamps, which
  // the lanes must not move.
  const std::vector<std::array<sim::Cycle, 3>> want_stamps = {
      {0, 25, 27124}, {0, 25, 9164}, {0, 25, 708}, {0, 25, 18004}, {27124, 27149, 29193},
      {27124, 27149, 47038}, {27124, 27149, 43967}, {27124, 27149, 27490}, {47038, 47063, 57132},
      {47038, 47063, 68986}, {47038, 47063, 47954}, {47038, 47063, 49580}, {47038, 47979, 50611},
      {47038, 49605, 76462}, {47038, 50636, 51319}, {47038, 51344, 60559}, {47038, 57157, 58628},
      {76462, 76487, 82118}, {76462, 76487, 82128}, {76462, 76487, 87362}, {76462, 76487, 77022},
      {76462, 77047, 91934}};
  std::vector<std::array<sim::Cycle, 3>> stamps;
  for (std::vector<Case>& wave : waves) {
    std::vector<DeviceJobId> ids;
    for (const Case& c : wave) ids.push_back(dev.submit(c.spec));
    while (!dev.idle()) dev.step();
    for (std::size_t i = 0; i < wave.size(); ++i) {
      const JobResult* r = dev.result(ids[i]);
      ASSERT_NE(r, nullptr);
      ASSERT_TRUE(r->complete);
      EXPECT_EQ(r->auth_ok, wave[i].want_ok) << "job " << ids[i];
      EXPECT_EQ(r->payload, wave[i].want_payload) << "job " << ids[i];
      EXPECT_EQ(r->tag, wave[i].want_tag) << "job " << ids[i];
      stamps.push_back({r->submit_cycle, r->accept_cycle, r->complete_cycle});
    }
  }
  EXPECT_EQ(stamps, want_stamps);
}

// -- live CCM lanes ------------------------------------------------------------
//
// A running CCM job is parked in its device's crypto::CcmLanes from
// dispatch to retirement, and each retirement advances the other parked
// lanes. These cases retire, forget, re-key and (fault_injection_test)
// kill around lanes that are part way through; the ASan/UBSan job runs
// them.

/// A CCM seal, or the open of a fresh seal (tampered on request), of `len`
/// bytes on `ch` under `key`, and the result the reference expects.
struct CcmCase {
  JobSpec spec;
  bool want_ok = true;
  Bytes want_payload, want_tag;
};
CcmCase ccm_case(Rng& rng, const ChannelInfo& ch, const Bytes& key, std::size_t len, bool open,
                 bool tamper = false) {
  CcmCase c;
  JobSpec& s = c.spec;
  s.channel = ch;
  s.iv_or_nonce = rng.bytes(ch.nonce_len);
  s.aad = rng.bytes(len % 2 == 0 ? 11 : 0);
  const Bytes pt = rng.bytes(len);
  auto sealed = crypto::ccm_seal(crypto::aes_expand_key(key), {ch.tag_len, ch.nonce_len},
                                 s.iv_or_nonce, s.aad, pt);
  if (!open) {
    s.payload = pt;
    c.want_payload = std::move(sealed.ciphertext);
    c.want_tag = std::move(sealed.tag);
    return c;
  }
  s.decrypt = true;
  s.payload = std::move(sealed.ciphertext);
  s.tag = std::move(sealed.tag);
  if (tamper) s.tag[0] ^= 0x01;
  c.want_ok = !tamper;
  if (!tamper) c.want_payload = pt;
  return c;
}

void expect_ccm_result(const Device& dev, DeviceJobId id, const CcmCase& c) {
  const JobResult* r = dev.result(id);
  ASSERT_NE(r, nullptr) << id;
  ASSERT_TRUE(r->complete) << id;
  EXPECT_EQ(r->auth_ok, c.want_ok) << id;
  EXPECT_EQ(r->payload, c.want_payload) << id;
  EXPECT_EQ(r->tag, c.want_tag) << id;
}

TEST(FastDeviceLanes, ForgettingARunningCcmJobKeepsItsLaneAndItsPartners) {
  // Four CCM jobs start together; the first step retires the shortest,
  // which advances the other three lanes part way. Forgetting one of
  // those (still running) is a no-op: its lane stays parked and finishes
  // at its retirement, as do its partners'. Forgetting the retired one
  // drops its result.
  FastDevice dev({.num_cores = 4});
  Rng rng(4040);
  const Bytes key = rng.bytes(16);
  dev.provision_key(1, key);
  const ChannelInfo ch = *dev.open_channel(ChannelMode::kCcm, 1, 8, 13);
  const std::vector<CcmCase> cases = {ccm_case(rng, ch, key, 3000, false),
                                      ccm_case(rng, ch, key, 500, true),
                                      ccm_case(rng, ch, key, 9001, true),
                                      ccm_case(rng, ch, key, 6000, true, /*tamper=*/true)};
  std::vector<DeviceJobId> ids;
  for (const CcmCase& c : cases) ids.push_back(dev.submit(c.spec));
  dev.step();
  expect_ccm_result(dev, ids[1], cases[1]);
  for (std::size_t i : {0u, 2u, 3u}) ASSERT_FALSE(dev.result(ids[i])->complete) << i;
  dev.forget(ids[2]);
  dev.forget(ids[1]);
  EXPECT_EQ(dev.result(ids[1]), nullptr);
  ASSERT_NE(dev.result(ids[2]), nullptr) << "forgetting a running job is a no-op";
  while (!dev.idle()) dev.step();
  for (std::size_t i : {0u, 2u, 3u}) expect_ccm_result(dev, ids[i], cases[i]);
}

TEST(FastDeviceLanes, KeyRotationWhileCcmPacketsRunKeepsEachJobsDispatchKey) {
  // Three AES-128 CCM jobs start; the shortest retires first and the
  // other two run part way. The key is then rotated twice, to another
  // AES-128 key and to an AES-256 key, and a job is dispatched under each
  // (each step dispatches it, then retires the next job due), so lanes of
  // different key generations, some of one round count, run together.
  // Each job must use the bundle in force at its dispatch.
  FastDevice dev({.num_cores = 4});
  Rng rng(4141);
  const Bytes k0 = rng.bytes(16), k1 = rng.bytes(16), k2 = rng.bytes(32);
  dev.provision_key(1, k0);
  const ChannelInfo ch = *dev.open_channel(ChannelMode::kCcm, 1, 16, 13);
  std::vector<CcmCase> cases = {ccm_case(rng, ch, k0, 4000, false),
                                ccm_case(rng, ch, k0, 700, false),
                                ccm_case(rng, ch, k0, 2500, true)};
  std::vector<DeviceJobId> ids;
  for (const CcmCase& c : cases) ids.push_back(dev.submit(c.spec));
  dev.step();
  ASSERT_TRUE(dev.result(ids[1])->complete);
  ASSERT_FALSE(dev.result(ids[0])->complete || dev.result(ids[2])->complete);
  for (const Bytes* key : {&k1, &k2}) {
    dev.provision_key(1, *key);
    cases.push_back(ccm_case(rng, ch, *key, 1800, cases.size() % 2 == 0));
    ids.push_back(dev.submit(cases.back().spec));
    dev.step();
  }
  ASSERT_FALSE(dev.result(ids[0])->complete) << "the first lane must outlive both rotations";
  while (!dev.idle()) dev.step();
  for (std::size_t i = 0; i < cases.size(); ++i) expect_ccm_result(dev, ids[i], cases[i]);
}

TEST(FastDevice, ServesTheLongestCcmPayloadATwoByteLengthFieldHolds) {
  // With a 13-byte nonce, B0's length field has two bytes: 65 535 B is the
  // longest payload (65 536 B is refused at submit, see DeviceLifecycle).
  FastDevice dev({.num_cores = 2});
  Rng rng(65535);
  const Bytes key = rng.bytes(16);
  dev.provision_key(1, key);
  const ChannelInfo ch = *dev.open_channel(ChannelMode::kCcm, 1, 16, 13);
  const std::vector<CcmCase> cases = {ccm_case(rng, ch, key, 65535, false),
                                      ccm_case(rng, ch, key, 65535, true)};
  std::vector<DeviceJobId> ids;
  for (const CcmCase& c : cases) ids.push_back(dev.submit(c.spec));
  while (!dev.idle()) dev.step();
  for (std::size_t i = 0; i < cases.size(); ++i) expect_ccm_result(dev, ids[i], cases[i]);
}

// The cost model's header count is the header field the stream formatters
// put in the instruction word, for every AAD length a core can carry.
TEST(FastDeviceCalibration, HeaderBlocksMatchTheFormattedInstruction) {
  const Bytes payload(32, 0);
  const crypto::CcmParams p{.tag_len = 8, .nonce_len = 13};
  for (std::size_t len = 0; len <= 16 * 40; ++len) {
    const Bytes aad(len, 0);
    const auto gcm = core::format_gcm_encrypt(Bytes(12, 0), aad, payload, 16);
    EXPECT_EQ(header_blocks(ChannelMode::kGcm, len), gcm.params.aad_blocks) << len;
    const auto ccm = core::format_ccm1_encrypt(p, Bytes(13, 0), aad, payload);
    EXPECT_EQ(header_blocks(ChannelMode::kCcm, len), ccm.params.aad_blocks) << len;
    EXPECT_EQ(header_blocks(ChannelMode::kCtr, len), 0u);
  }
}

TEST(FastDeviceCalibration, PacketOccupancyTracksTheSimulator) {
  // The calibrated model reproduces SimDevice's steady-state per-packet
  // cycles exactly for these workloads today; the tolerances leave room
  // for small simulator refinements without letting the model drift.
  const CalibrationCase cases[] = {
      {ChannelMode::kGcm, top::CcmMapping::kSingleCore, 16, 2048, 0, 16, 12, 0.02},
      {ChannelMode::kGcm, top::CcmMapping::kSingleCore, 32, 2048, 0, 16, 12, 0.02},
      {ChannelMode::kGcm, top::CcmMapping::kSingleCore, 16, 1024, 64, 16, 12, 0.02},
      {ChannelMode::kGcm, top::CcmMapping::kSingleCore, 16, 256, 0, 16, 12, 0.05},
      {ChannelMode::kCtr, top::CcmMapping::kSingleCore, 16, 2048, 0, 16, 13, 0.02},
      {ChannelMode::kCtr, top::CcmMapping::kSingleCore, 32, 1024, 0, 16, 13, 0.02},
      {ChannelMode::kCbcMac, top::CcmMapping::kSingleCore, 16, 2048, 0, 16, 13, 0.02},
      {ChannelMode::kCcm, top::CcmMapping::kSingleCore, 16, 2048, 0, 8, 13, 0.02},
      {ChannelMode::kCcm, top::CcmMapping::kSingleCore, 16, 1024, 64, 8, 13, 0.02},
      {ChannelMode::kCcm, top::CcmMapping::kPairPreferred, 16, 2048, 0, 8, 13, 0.02},
      {ChannelMode::kCcm, top::CcmMapping::kPairPreferred, 16, 16, 0, 8, 13, 0.15},
  };
  for (const auto& c : cases) {
    sim::Cycle sim = steady_state_occupancy(Backend::kSim, c);
    sim::Cycle fast = steady_state_occupancy(Backend::kFast, c);
    double err = std::abs(static_cast<double>(fast) - static_cast<double>(sim)) /
                 static_cast<double>(sim);
    EXPECT_LE(err, c.tolerance) << "mode=" << static_cast<int>(c.mode)
                                << " key=" << c.key_len * 8 << " payload=" << c.payload_len
                                << " sim=" << sim << " fast=" << fast;
  }
}

TEST(FastDeviceCalibration, ThroughputAccountingStaysMeaningful) {
  // Engine-level aggregate stats computed from modelled cycles should land
  // near the simulated platform's figures for a saturating GCM workload.
  auto aggregate = [](Backend backend) {
    Engine engine({.num_devices = 1, .device = {.num_cores = 4}, .backend = backend});
    Rng rng(7);
    engine.provision_key(1, rng.bytes(16));
    Channel ch = engine.open_channel(ChannelMode::kGcm, 1, 16, 12);
    sim::Cycle start = engine.max_cycle();
    std::vector<Completion> jobs;
    for (int i = 0; i < 16; ++i)
      jobs.push_back(engine.submit_encrypt(ch, rng.bytes(12), {}, rng.bytes(2048)));
    engine.wait_all();
    return static_cast<double>(16 * 2048 * 8) /
           static_cast<double>(engine.max_cycle() - start);
  };
  double sim_bits_per_cycle = aggregate(Backend::kSim);
  double fast_bits_per_cycle = aggregate(Backend::kFast);
  EXPECT_NEAR(fast_bits_per_cycle / sim_bits_per_cycle, 1.0, 0.10);
}

}  // namespace
}  // namespace mccp::host
