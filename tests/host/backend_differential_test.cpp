// Randomized differential suite: the functional FastDevice backend must be
// bit-identical to the cycle-accurate SimDevice backend — same ciphertext,
// same tag, same auth verdict, same result-surface quirks — across modes,
// key sizes and payload shapes.
//
// The simulated datapath only accepts 16-byte-multiple payloads of at most
// 255 blocks (stream_format.cpp), so the head-to-head sweeps stay inside
// that envelope; beyond it (odd lengths, payloads up to 4 KiB) FastDevice
// is pinned to the golden software references instead — the same oracles
// the simulator itself is validated against.
//
// Tier-parametrized: the whole suite runs once per crypto kernel tier this
// host supports, so the hardware AES-NI/CLMUL fast paths face the same
// sim-vs-fast differential the portable reference does.
#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "common/hex.h"
#include "common/rng.h"
#include "crypto/cbc_mac.h"
#include "crypto/ccm.h"
#include "crypto/ctr.h"
#include "crypto/gcm.h"
#include "crypto/whirlpool.h"
#include "host/engine.h"
#include "sim/fifo.h"
#include "support/kernel_tiers.h"

namespace mccp::host {
namespace {

class BackendDifferential : public mccp::testing::KernelTierTest {};
MCCP_INSTANTIATE_KERNEL_TIERS(BackendDifferential);

struct Workload {
  ChannelMode mode;
  std::size_t key_len;
  std::size_t payload_len;
  std::size_t aad_len;
  unsigned tag_len;
  unsigned nonce_len;
};

Bytes iv_for(Rng& rng, const Workload& w) {
  switch (w.mode) {
    case ChannelMode::kGcm: return rng.bytes(w.nonce_len);
    case ChannelMode::kCcm: return rng.bytes(w.nonce_len);
    case ChannelMode::kCtr: {
      Bytes iv = rng.bytes(16);
      iv[14] = iv[15] = 0;  // the INC core counts 16 bits; avoid wrap
      return iv;
    }
    default: return {};
  }
}

/// Run one encrypt job on a one-device engine of the given backend.
JobResult run_encrypt(Backend backend, const Workload& w, const Bytes& key, const Bytes& iv,
                      const Bytes& aad, const Bytes& payload) {
  Engine engine({.num_devices = 1, .device = {.num_cores = 2}, .backend = backend});
  engine.provision_key(1, key);
  Channel ch = engine.open_channel(w.mode, 1, w.tag_len, w.nonce_len);
  EXPECT_TRUE(ch.valid());
  Completion job = engine.submit_encrypt(ch, iv, aad, payload);
  return job.wait();
}

JobResult run_decrypt(Backend backend, const Workload& w, const Bytes& key, const Bytes& iv,
                      const Bytes& aad, const Bytes& ciphertext, const Bytes& tag) {
  Engine engine({.num_devices = 1, .device = {.num_cores = 2}, .backend = backend});
  engine.provision_key(1, key);
  Channel ch = engine.open_channel(w.mode, 1, w.tag_len, w.nonce_len);
  EXPECT_TRUE(ch.valid());
  Completion job = engine.submit_decrypt(ch, iv, aad, ciphertext, tag);
  return job.wait();
}

void expect_identical_encrypt(const Workload& w, std::uint64_t seed) {
  Rng rng(seed);
  Bytes key = rng.bytes(w.key_len);
  Bytes iv = iv_for(rng, w);
  Bytes aad = rng.bytes(w.aad_len);
  Bytes payload = rng.bytes(w.payload_len);

  JobResult sim = run_encrypt(Backend::kSim, w, key, iv, aad, payload);
  JobResult fast = run_encrypt(Backend::kFast, w, key, iv, aad, payload);

  ASSERT_TRUE(sim.complete && fast.complete);
  EXPECT_EQ(sim.auth_ok, fast.auth_ok);
  EXPECT_EQ(to_hex(sim.payload), to_hex(fast.payload))
      << "mode=" << static_cast<int>(w.mode) << " key=" << w.key_len
      << " payload=" << w.payload_len;
  EXPECT_EQ(to_hex(sim.tag), to_hex(fast.tag));
}

TEST_P(BackendDifferential, GcmEncryptSweep) {
  std::uint64_t seed = 1000;
  for (std::size_t key_len : {16u, 24u, 32u})
    for (std::size_t payload : {0u, 16u, 48u, 304u, 2048u})
      for (std::size_t aad : {0u, 20u})
        expect_identical_encrypt({ChannelMode::kGcm, key_len, payload, aad, 16, 12}, ++seed);
}

TEST_P(BackendDifferential, GcmNonStandardIvAndTagLen) {
  std::uint64_t seed = 2000;
  // 8-byte IV exercises the on-core GHASH J0 derivation; truncated tags
  // exercise the tag mask.
  expect_identical_encrypt({ChannelMode::kGcm, 16, 256, 13, 16, 8}, ++seed);
  expect_identical_encrypt({ChannelMode::kGcm, 32, 128, 0, 8, 12}, ++seed);
  expect_identical_encrypt({ChannelMode::kGcm, 24, 64, 5, 4, 12}, ++seed);
}

TEST_P(BackendDifferential, CcmEncryptSweep) {
  std::uint64_t seed = 3000;
  for (std::size_t key_len : {16u, 24u, 32u})
    for (std::size_t payload : {16u, 112u, 1024u})
      for (unsigned nonce_len : {13u, 7u})
        expect_identical_encrypt({ChannelMode::kCcm, key_len, payload, 24, 8, nonce_len}, ++seed);
}

TEST_P(BackendDifferential, CtrAndCbcMacSweep) {
  std::uint64_t seed = 4000;
  for (std::size_t key_len : {16u, 24u, 32u}) {
    for (std::size_t payload : {16u, 512u, 2048u})
      expect_identical_encrypt({ChannelMode::kCtr, key_len, payload, 0, 16, 13}, ++seed);
    for (std::size_t payload : {16u, 160u, 1024u})
      for (unsigned tag_len : {16u, 8u})
        expect_identical_encrypt({ChannelMode::kCbcMac, key_len, payload, 0, tag_len, 13}, ++seed);
  }
}

TEST_P(BackendDifferential, CtrCounterWrapMatchesHardware) {
  // The INC core increments only the low 16 bits; start the counter at
  // 0xFFFF so it wraps inside the packet. Both backends must produce the
  // same (hardware-semantics) keystream.
  Rng rng(4500);
  Bytes key = rng.bytes(16);
  Bytes iv = rng.bytes(16);
  iv[14] = iv[15] = 0xFF;
  Bytes payload = rng.bytes(64);  // 4 blocks: counter FFFF, 0000, 0001, 0002
  Workload w{ChannelMode::kCtr, 16, payload.size(), 0, 16, 13};
  JobResult sim = run_encrypt(Backend::kSim, w, key, iv, {}, payload);
  JobResult fast = run_encrypt(Backend::kFast, w, key, iv, {}, payload);
  ASSERT_TRUE(sim.complete && fast.complete);
  EXPECT_EQ(to_hex(sim.payload), to_hex(fast.payload));
  // And it genuinely wrapped: spec inc32 would carry into byte 13 and give
  // different blocks 2..4.
  auto keys = crypto::aes_expand_key(key);
  Bytes spec = crypto::ctr_transform(keys, Block128::from_span(iv), payload);
  EXPECT_NE(to_hex(fast.payload), to_hex(spec));
  EXPECT_EQ(to_hex(fast.payload),
            to_hex(crypto::ctr_transform_inc16(keys, Block128::from_span(iv), payload)));
}

TEST_P(BackendDifferential, WhirlpoolDigestsBitIdenticalAcrossBackends) {
  // A Whirlpool channel needs a CU slot hosting the Whirlpool image (paper
  // SVII.B); both fleets boot one via the slot layout, so the simulated
  // core and the fast path can be run head to head: randomized payloads,
  // bit-identical 512-bit digests, and both pinned to the golden software
  // hash.
  Rng rng(5000);
  auto config = [](Backend backend) {
    EngineConfig cfg{.num_devices = 1, .device = {.num_cores = 2}, .backend = backend};
    cfg.device.slot_images = {reconfig::CoreImage::kAesEncryptWithKs,
                              reconfig::CoreImage::kWhirlpool};
    return cfg;
  };
  Engine sim(config(Backend::kSim)), fast(config(Backend::kFast));
  Channel sim_ch = sim.open_channel(ChannelMode::kWhirlpool, 0);
  Channel fast_ch = fast.open_channel(ChannelMode::kWhirlpool, 0);
  ASSERT_TRUE(sim_ch.valid() && fast_ch.valid());
  for (std::size_t payload_len : {0u, 1u, 16u, 31u, 64u, 512u, 1000u}) {
    Bytes msg = rng.bytes(payload_len);
    JobResult s = sim.submit_encrypt(sim_ch, {}, {}, msg).wait();
    JobResult f = fast.submit_encrypt(fast_ch, {}, {}, msg).wait();
    ASSERT_TRUE(s.complete && f.complete) << payload_len;
    EXPECT_TRUE(s.auth_ok && f.auth_ok) << payload_len;
    EXPECT_EQ(to_hex(s.payload), to_hex(f.payload)) << payload_len;
    auto digest = crypto::whirlpool(msg);
    EXPECT_EQ(to_hex(f.payload), to_hex(Bytes(digest.begin(), digest.end()))) << payload_len;
  }
  // Randomized sweep: sizes drawn from the rng, still bit-identical.
  for (int i = 0; i < 10; ++i) {
    Bytes msg = rng.bytes(rng.next_below(1500));
    JobResult s = sim.submit_encrypt(sim_ch, {}, {}, msg).wait();
    JobResult f = fast.submit_encrypt(fast_ch, {}, {}, msg).wait();
    EXPECT_EQ(to_hex(s.payload), to_hex(f.payload)) << "iteration " << i;
    EXPECT_EQ(s.payload.size(), 64u);
  }
}

TEST_P(BackendDifferential, MixedAesWhirlpoolFleetParity) {
  // GCM and Whirlpool channels interleaved on one two-personality device:
  // every packet's result must match across backends while both images
  // serve concurrently.
  auto config = [](Backend backend) {
    EngineConfig cfg{.num_devices = 1, .device = {.num_cores = 2}, .backend = backend};
    cfg.device.slot_images = {reconfig::CoreImage::kAesEncryptWithKs,
                              reconfig::CoreImage::kWhirlpool};
    return cfg;
  };
  Engine sim(config(Backend::kSim)), fast(config(Backend::kFast));
  Rng rng(5600);
  Bytes key = rng.bytes(16);
  sim.provision_key(1, key);
  fast.provision_key(1, key);
  Channel sim_gcm = sim.open_channel(ChannelMode::kGcm, 1, 16, 12);
  Channel fast_gcm = fast.open_channel(ChannelMode::kGcm, 1, 16, 12);
  Channel sim_wp = sim.open_channel(ChannelMode::kWhirlpool, 0);
  Channel fast_wp = fast.open_channel(ChannelMode::kWhirlpool, 0);
  ASSERT_TRUE(sim_gcm.valid() && fast_gcm.valid() && sim_wp.valid() && fast_wp.valid());

  std::vector<Completion> sim_jobs, fast_jobs;
  for (int i = 0; i < 20; ++i) {
    if (i % 2 == 0) {
      Bytes iv = rng.bytes(12), pt = rng.bytes(16 * (1 + rng.next_below(16)));
      sim_jobs.push_back(sim.submit_encrypt(sim_gcm, iv, {}, pt));
      fast_jobs.push_back(fast.submit_encrypt(fast_gcm, iv, {}, pt));
    } else {
      Bytes msg = rng.bytes(rng.next_below(800));
      sim_jobs.push_back(sim.submit_encrypt(sim_wp, {}, {}, msg));
      fast_jobs.push_back(fast.submit_encrypt(fast_wp, {}, {}, msg));
    }
  }
  sim.wait_all();
  fast.wait_all();
  for (std::size_t i = 0; i < sim_jobs.size(); ++i) {
    const JobResult& a = sim_jobs[i].result();
    const JobResult& b = fast_jobs[i].result();
    EXPECT_EQ(to_hex(a.payload), to_hex(b.payload)) << i;
    EXPECT_EQ(to_hex(a.tag), to_hex(b.tag)) << i;
    EXPECT_EQ(a.auth_ok, b.auth_ok) << i;
  }
}

TEST_P(BackendDifferential, SplitCcmMappingMatchesSingleCore) {
  // The two-core CCM mapping changes scheduling, never bits.
  Rng rng(6000);
  Bytes key = rng.bytes(16), nonce = rng.bytes(13), payload = rng.bytes(512);
  JobResult results[2];
  int i = 0;
  for (Backend backend : {Backend::kSim, Backend::kFast}) {
    Engine engine({.num_devices = 1,
                   .device = {.num_cores = 4, .ccm_mapping = top::CcmMapping::kPairPreferred},
                   .backend = backend});
    engine.provision_key(1, key);
    Channel ch = engine.open_channel(ChannelMode::kCcm, 1, 8, 13);
    ASSERT_TRUE(ch.valid());
    results[i++] = engine.submit_encrypt(ch, nonce, {}, payload).wait();
  }
  EXPECT_EQ(to_hex(results[0].payload), to_hex(results[1].payload));
  EXPECT_EQ(to_hex(results[0].tag), to_hex(results[1].tag));
}

TEST_P(BackendDifferential, ConcurrentCcmMatchesUnderPairAndAdaptiveMappings) {
  // Ten CCM packets at once on a 4-core device: FastDevice runs them as
  // lanes side by side while the simulator splits some across core pairs.
  // Seals and opens (one tampered) on an AES-128 and an AES-256 channel,
  // 1..128 blocks. Every result must match field for field.
  for (top::CcmMapping mapping : {top::CcmMapping::kPairPreferred, top::CcmMapping::kAdaptive}) {
    Rng rng(6100);
    const Bytes keys[2] = {rng.bytes(16), rng.bytes(32)};
    const crypto::CcmParams params[2] = {{.tag_len = 8, .nonce_len = 13},
                                         {.tag_len = 16, .nonce_len = 12}};
    struct Pkt {
      std::size_t ch;
      Bytes nonce, aad, payload, tag;
    };
    std::vector<Pkt> pkts;
    for (std::size_t i = 0; i < 10; ++i) {
      Pkt pk{i % 2, {}, {}, {}, {}};
      pk.nonce = rng.bytes(params[pk.ch].nonce_len);
      pk.aad = rng.bytes(i % 3 == 0 ? 0 : 16);
      pk.payload = rng.bytes(16 * (1 + rng.next_below(128)));
      if (i % 3 == 2) {
        auto sealed = crypto::ccm_seal(crypto::aes_expand_key(keys[pk.ch]), params[pk.ch],
                                       pk.nonce, pk.aad, pk.payload);
        pk.payload = std::move(sealed.ciphertext);
        pk.tag = std::move(sealed.tag);
        if (i == 8) pk.tag[1] ^= 0x04;
      }
      pkts.push_back(std::move(pk));
    }
    std::vector<JobResult> results[2];
    for (Backend backend : {Backend::kSim, Backend::kFast}) {
      EngineConfig cfg{.num_devices = 1, .device = {.num_cores = 4, .ccm_mapping = mapping}};
      cfg.backend = backend;
      Engine engine(cfg);
      engine.provision_key(1, keys[0]);
      engine.provision_key(2, keys[1]);
      Channel ch[2] = {engine.open_channel(ChannelMode::kCcm, 1, 8, 13),
                       engine.open_channel(ChannelMode::kCcm, 2, 16, 12)};
      ASSERT_TRUE(ch[0].valid() && ch[1].valid());
      std::vector<Completion> jobs;
      for (const Pkt& pk : pkts)
        jobs.push_back(pk.tag.empty()
                           ? engine.submit_encrypt(ch[pk.ch], pk.nonce, pk.aad, pk.payload)
                           : engine.submit_decrypt(ch[pk.ch], pk.nonce, pk.aad, pk.payload,
                                                   pk.tag));
      engine.wait_all();
      for (const Completion& c : jobs) results[backend == Backend::kFast].push_back(c.result());
    }
    for (std::size_t i = 0; i < pkts.size(); ++i) {
      const JobResult &sim = results[0][i], &fast = results[1][i];
      const auto where = ::testing::Message() << "mapping=" << static_cast<int>(mapping)
                                              << " packet=" << i;
      ASSERT_TRUE(sim.complete && fast.complete) << where;
      EXPECT_EQ(sim.auth_ok, fast.auth_ok) << where;
      EXPECT_EQ(sim.auth_ok, i != 8) << where;
      EXPECT_EQ(to_hex(sim.payload), to_hex(fast.payload)) << where;
      EXPECT_EQ(to_hex(sim.tag), to_hex(fast.tag)) << where;
    }
  }
}

TEST_P(BackendDifferential, DecryptRoundTripAndCrossBackend) {
  // Encrypt on one backend, decrypt on the other, for every AEAD mode.
  std::uint64_t seed = 7000;
  for (ChannelMode mode : {ChannelMode::kGcm, ChannelMode::kCcm}) {
    for (std::size_t key_len : {16u, 32u}) {
      Workload w{mode, key_len, 224, 16, 8, mode == ChannelMode::kCcm ? 13u : 12u};
      Rng rng(++seed);
      Bytes key = rng.bytes(w.key_len);
      Bytes iv = iv_for(rng, w);
      Bytes aad = rng.bytes(w.aad_len);
      Bytes payload = rng.bytes(w.payload_len);

      JobResult sealed = run_encrypt(Backend::kFast, w, key, iv, aad, payload);
      ASSERT_TRUE(sealed.auth_ok);

      JobResult sim_open = run_decrypt(Backend::kSim, w, key, iv, aad, sealed.payload, sealed.tag);
      JobResult fast_open =
          run_decrypt(Backend::kFast, w, key, iv, aad, sealed.payload, sealed.tag);
      EXPECT_TRUE(sim_open.auth_ok && fast_open.auth_ok);
      EXPECT_EQ(to_hex(sim_open.payload), to_hex(payload));
      EXPECT_EQ(to_hex(fast_open.payload), to_hex(payload));

      // Tampered ciphertext: both backends must reject identically.
      Bytes tampered = sealed.payload;
      tampered[tampered.size() / 2] ^= 0x01;
      JobResult sim_bad = run_decrypt(Backend::kSim, w, key, iv, aad, tampered, sealed.tag);
      JobResult fast_bad = run_decrypt(Backend::kFast, w, key, iv, aad, tampered, sealed.tag);
      EXPECT_FALSE(sim_bad.auth_ok);
      EXPECT_FALSE(fast_bad.auth_ok);
      EXPECT_EQ(to_hex(sim_bad.payload), to_hex(fast_bad.payload));
    }
  }
}

TEST_P(BackendDifferential, CbcMacVerifyMatchesIncludingPlaceholderPayload) {
  Workload w{ChannelMode::kCbcMac, 16, 160, 0, 8, 13};
  Rng rng(8000);
  Bytes key = rng.bytes(16);
  Bytes msg = rng.bytes(w.payload_len);
  JobResult gen = run_encrypt(Backend::kFast, w, key, {}, {}, msg);
  ASSERT_EQ(gen.tag.size(), 8u);

  JobResult sim_ok = run_decrypt(Backend::kSim, w, key, {}, {}, msg, gen.tag);
  JobResult fast_ok = run_decrypt(Backend::kFast, w, key, {}, {}, msg, gen.tag);
  EXPECT_TRUE(sim_ok.auth_ok && fast_ok.auth_ok);
  // The verify core streams no output; both backends surface the same
  // zero placeholder of message length.
  EXPECT_EQ(to_hex(sim_ok.payload), to_hex(fast_ok.payload));

  Bytes bad_tag = gen.tag;
  bad_tag[0] ^= 0x80;
  EXPECT_FALSE(run_decrypt(Backend::kSim, w, key, {}, {}, msg, bad_tag).auth_ok);
  EXPECT_FALSE(run_decrypt(Backend::kFast, w, key, {}, {}, msg, bad_tag).auth_ok);
}

TEST_P(BackendDifferential, TruncatedTagRejectedByChannelTagLen) {
  // A verify tag must be exactly the channel's tag_len bytes. A truncated
  // (prefix) tag on a 16-byte channel, and an over-long tag on an 8-byte
  // channel (the true 8 bytes followed by 8 wrong ones), are both refused
  // at submit on both backends: complete at the submit cycle, !auth_ok,
  // nothing computed. The over-long case once verified on FastDevice and
  // failed on SimDevice. The exact-length tag still verifies on both.
  std::uint64_t seed = 11'000;
  for (ChannelMode mode : {ChannelMode::kGcm, ChannelMode::kCbcMac, ChannelMode::kCcm}) {
    for (unsigned tag_len : {16u, 8u}) {
      Workload w{mode, 16, 160, 0, tag_len, mode == ChannelMode::kGcm ? 12u : 13u};
      Rng rng(++seed);
      Bytes key = rng.bytes(16);
      Bytes iv = iv_for(rng, w);
      Bytes msg = rng.bytes(w.payload_len);
      JobResult sealed = run_encrypt(Backend::kFast, w, key, iv, {}, msg);
      ASSERT_EQ(sealed.tag.size(), tag_len);
      // GCM and CCM verify over the ciphertext; CBC-MAC re-MACs the message.
      const Bytes& data = mode == ChannelMode::kCbcMac ? msg : sealed.payload;

      Bytes wrong_len = sealed.tag;
      if (tag_len == 16) {
        wrong_len.resize(8);  // the true prefix, truncated
      } else {
        for (int i = 0; i < 8; ++i) wrong_len.push_back(static_cast<std::uint8_t>(0xA5 + i));
      }
      const auto where = ::testing::Message() << "mode=" << static_cast<int>(mode)
                                              << " tag_len=" << tag_len
                                              << " submitted=" << wrong_len.size();
      for (Backend backend : {Backend::kSim, Backend::kFast}) {
        JobResult r = run_decrypt(backend, w, key, iv, {}, data, wrong_len);
        EXPECT_TRUE(r.complete) << where;
        EXPECT_FALSE(r.auth_ok) << where;
        EXPECT_TRUE(r.payload.empty()) << where;
        EXPECT_EQ(r.complete_cycle, r.submit_cycle) << where << " (refused at submit)";
        EXPECT_TRUE(run_decrypt(backend, w, key, iv, {}, data, sealed.tag).auth_ok) << where;
      }
    }
  }
}

TEST_P(BackendDifferential, GcmFailedOpenSurfacesNothing) {
  // A GCM open whose tag does not verify — a flipped tag, ciphertext or
  // AAD bit — completes with !auth_ok and an empty payload and tag on both
  // backends: no unverified plaintext reaches a JobResult. A wrong-length
  // tag and an empty IV (a nonce_len 0 channel) are refused at submit the
  // same way.
  Workload w{ChannelMode::kGcm, 16, 320, 24, 16, 12};
  Rng rng(11'500);
  Bytes key = rng.bytes(16), iv = iv_for(rng, w), aad = rng.bytes(w.aad_len);
  JobResult sealed = run_encrypt(Backend::kFast, w, key, iv, aad, rng.bytes(w.payload_len));
  ASSERT_TRUE(sealed.auth_ok);
  Bytes bad_tag = sealed.tag, bad_ct = sealed.payload, bad_aad = aad;
  bad_tag[7] ^= 0x10;
  bad_ct[100] ^= 0x01;
  bad_aad[0] ^= 0x80;
  Bytes short_tag(sealed.tag.begin(), sealed.tag.end() - 1);
  struct Case {
    const char* what;
    const Bytes& aad;
    const Bytes& ct;
    const Bytes& tag;
  };
  const Case cases[] = {{"tag", aad, sealed.payload, bad_tag},
                        {"ciphertext", aad, bad_ct, sealed.tag},
                        {"aad", bad_aad, sealed.payload, sealed.tag},
                        {"tag length", aad, sealed.payload, short_tag}};
  for (Backend backend : {Backend::kSim, Backend::kFast}) {
    for (const Case& c : cases) {
      JobResult r = run_decrypt(backend, w, key, iv, c.aad, c.ct, c.tag);
      const auto where = ::testing::Message() << "backend=" << static_cast<int>(backend)
                                              << " tampered " << c.what;
      EXPECT_TRUE(r.complete) << where;
      EXPECT_FALSE(r.auth_ok) << where;
      EXPECT_TRUE(r.payload.empty()) << where;
      EXPECT_TRUE(r.tag.empty()) << where;
    }
    const Workload no_iv{ChannelMode::kGcm, 16, 64, 0, 16, 0};
    for (bool decrypt : {false, true}) {
      JobResult r = decrypt ? run_decrypt(backend, no_iv, key, {}, {}, sealed.payload, sealed.tag)
                            : run_encrypt(backend, no_iv, key, {}, {}, rng.bytes(64));
      const auto where = ::testing::Message() << "backend=" << static_cast<int>(backend)
                                              << " empty IV, decrypt=" << decrypt;
      EXPECT_FALSE(r.auth_ok) << where;
      EXPECT_TRUE(r.payload.empty() && r.tag.empty()) << where;
      EXPECT_EQ(r.complete_cycle, r.submit_cycle) << where << " (refused at submit)";
    }
  }
}

TEST_P(BackendDifferential, CcmFailedOpenSurfacesNothing) {
  // The CCM form of the case above: FastDevice opens CCM in the job's own
  // payload buffer, and a flipped tag, ciphertext or AAD bit, or a short
  // tag still completes with !auth_ok and an empty payload and tag on both
  // backends.
  Workload w{ChannelMode::kCcm, 16, 320, 24, 8, 13};
  Rng rng(11'600);
  Bytes key = rng.bytes(16), nonce = iv_for(rng, w), aad = rng.bytes(w.aad_len);
  JobResult sealed = run_encrypt(Backend::kFast, w, key, nonce, aad, rng.bytes(w.payload_len));
  ASSERT_TRUE(sealed.auth_ok);
  Bytes bad_tag = sealed.tag, bad_ct = sealed.payload, bad_aad = aad;
  bad_tag[3] ^= 0x10;
  bad_ct[310] ^= 0x01;
  bad_aad[0] ^= 0x80;
  Bytes short_tag(sealed.tag.begin(), sealed.tag.end() - 2);
  for (Backend backend : {Backend::kSim, Backend::kFast}) {
    EXPECT_TRUE(run_decrypt(backend, w, key, nonce, aad, sealed.payload, sealed.tag).auth_ok);
    for (const auto& [what, a, ct, tag] :
         {std::tuple{"tag", aad, sealed.payload, bad_tag},
          std::tuple{"ciphertext", aad, bad_ct, sealed.tag},
          std::tuple{"aad", bad_aad, sealed.payload, sealed.tag},
          std::tuple{"tag length", aad, sealed.payload, short_tag}}) {
      JobResult r = run_decrypt(backend, w, key, nonce, a, ct, tag);
      const auto where = ::testing::Message() << "backend=" << static_cast<int>(backend)
                                              << " tampered " << what;
      EXPECT_TRUE(r.complete) << where;
      EXPECT_FALSE(r.auth_ok) << where;
      EXPECT_TRUE(r.payload.empty()) << where;
      EXPECT_TRUE(r.tag.empty()) << where;
    }
  }
}

TEST_P(BackendDifferential, FastGcmServesOneToThreeByteTags) {
  // A GCM channel's 4-bit tag_len field wraps to 1..16 bytes, so tag_len 2
  // stays 2 and 17 becomes 1. The simulated formatter refuses tags under 4
  // bytes; FastDevice serves them: the seal is the full tag truncated, a
  // correctly tagged open verifies, and a tampered one surfaces nothing.
  Rng rng(11'550);
  Bytes key = rng.bytes(16);
  const crypto::GcmKey gk(crypto::aes_expand_key(key));
  for (unsigned tag_len : {2u, 17u}) {
    const std::size_t registered = ((tag_len - 1) & 0xF) + 1;
    const Workload w{ChannelMode::kGcm, 16, 100, 7, tag_len, 12};
    const Bytes iv = iv_for(rng, w), aad = rng.bytes(w.aad_len), pt = rng.bytes(w.payload_len);
    const crypto::GcmSealed full = crypto::gcm_seal(gk, iv, aad, pt);
    const auto where = ::testing::Message() << "tag_len=" << tag_len;
    JobResult sealed = run_encrypt(Backend::kFast, w, key, iv, aad, pt);
    ASSERT_TRUE(sealed.auth_ok) << where;
    EXPECT_EQ(to_hex(sealed.payload), to_hex(full.ciphertext)) << where;
    EXPECT_EQ(to_hex(sealed.tag), to_hex(Bytes(full.tag.begin(),
                                                full.tag.begin() +
                                                    static_cast<std::ptrdiff_t>(registered))))
        << where;
    JobResult opened = run_decrypt(Backend::kFast, w, key, iv, aad, sealed.payload, sealed.tag);
    EXPECT_TRUE(opened.auth_ok) << where;
    EXPECT_EQ(opened.payload, pt) << where;
    Bytes bad_tag = sealed.tag;
    bad_tag[0] ^= 0x01;
    JobResult refused = run_decrypt(Backend::kFast, w, key, iv, aad, sealed.payload, bad_tag);
    EXPECT_FALSE(refused.auth_ok) << where;
    EXPECT_TRUE(refused.payload.empty() && refused.tag.empty()) << where;
  }
}

TEST_P(BackendDifferential, GcmDerivedJ0CounterWrapMatchesHardware) {
  // An 8-byte IV whose GHASH-derived J0 leaves the low 16 counter bits
  // just below 0xFFFF: the simulated INC core wraps them within the first
  // 16 blocks, and FastDevice's inc16 walk must seal and open identically.
  // The payload is the largest open SimDevice serves (sim::kCoreFifoDepth
  // / 4 blocks): a longer one is refused at submit
  // (SimRefusesOpensLongerThanACoreOutputFifo).
  Workload w{ChannelMode::kGcm, 16, 16 * (sim::kCoreFifoDepth / 4), 16, 16, 8};
  Rng rng(11'600);
  Bytes key = rng.bytes(16);
  const crypto::GcmKey gk(crypto::aes_expand_key(key));
  Bytes iv;
  for (;;) {
    iv = rng.bytes(8);
    const Block128 j0 = crypto::gcm_j0(gk, iv);
    if (((unsigned{j0.b[14]} << 8) | j0.b[15]) >= 0xFFF0u) break;
  }
  Bytes aad = rng.bytes(w.aad_len), pt = rng.bytes(w.payload_len);
  JobResult sim = run_encrypt(Backend::kSim, w, key, iv, aad, pt);
  JobResult fast = run_encrypt(Backend::kFast, w, key, iv, aad, pt);
  ASSERT_TRUE(sim.auth_ok && fast.auth_ok);
  EXPECT_EQ(to_hex(sim.payload), to_hex(fast.payload));
  EXPECT_EQ(to_hex(sim.tag), to_hex(fast.tag));
  EXPECT_NE(fast.payload, crypto::gcm_seal(gk, iv, aad, pt).ciphertext) << "walk did not wrap";
  for (Backend backend : {Backend::kSim, Backend::kFast}) {
    JobResult open = run_decrypt(backend, w, key, iv, aad, fast.payload, fast.tag);
    EXPECT_TRUE(open.auth_ok) << static_cast<int>(backend);
    EXPECT_EQ(open.payload, pt) << static_cast<int>(backend);
  }
}

TEST_P(BackendDifferential, ChannelParamsWrapIdentically) {
  // tag_len and nonce_len travel in 4-bit OPEN fields; out-of-range values
  // wrap on the wire, and both backends must report the registered values.
  for (Backend backend : {Backend::kSim, Backend::kFast}) {
    Engine engine({.num_devices = 1, .device = {.num_cores = 2}, .backend = backend});
    Rng rng(12'000);
    engine.provision_key(1, rng.bytes(16));
    Channel ch = engine.open_channel(ChannelMode::kGcm, 1, /*tag_len=*/20, /*nonce_len=*/12);
    ASSERT_TRUE(ch.valid());
    EXPECT_EQ(engine.device(0).stats().open_channels, 1u);
    JobResult r = engine.submit_encrypt(ch, rng.bytes(12), {}, rng.bytes(64)).wait();
    // ((20 - 1) & 0xF) + 1 = 4: the device registered a 4-byte tag.
    EXPECT_EQ(r.tag.size(), 4u) << static_cast<int>(backend);
  }
}

// --- beyond the simulated datapath's envelope --------------------------------

TEST_P(BackendDifferential, SimRefusesOpensLongerThanACoreOutputFifo) {
  // SimDevice serves a GCM, CCM or CTR open of up to sim::kCoreFifoDepth / 4
  // = 128 blocks, bit-identical to FastDevice. Longer opens used to end the
  // process (GCM and one-core CCM threw a CU instruction overrun at 129
  // blocks, CTR at 130) or hang (pair CCM at 129); SimDevice now refuses
  // them at submit (complete, !auth_ok, nothing returned) and the channel
  // still closes cleanly, while FastDevice keeps serving them.
  struct Shape {
    ChannelMode mode;
    top::CcmMapping mapping;
  };
  constexpr std::size_t kLimit = sim::kCoreFifoDepth / 4;
  static_assert(kLimit == 128);
  Rng rng(11'800);
  for (Shape shape : {Shape{ChannelMode::kGcm, top::CcmMapping::kSingleCore},
                      Shape{ChannelMode::kCcm, top::CcmMapping::kSingleCore},
                      Shape{ChannelMode::kCcm, top::CcmMapping::kPairPreferred},
                      Shape{ChannelMode::kCtr, top::CcmMapping::kSingleCore}}) {
    for (std::size_t blocks = kLimit - 1; blocks <= kLimit + 2; ++blocks) {
      const Workload w{shape.mode, 16, 16 * blocks, 16, 16,
                       shape.mode == ChannelMode::kCcm ? 13u : 12u};
      const Bytes key = rng.bytes(16), iv = iv_for(rng, w);
      const Bytes aad = shape.mode == ChannelMode::kCtr ? Bytes{} : rng.bytes(w.aad_len);
      const Bytes pt = rng.bytes(w.payload_len);
      const JobResult sealed = run_encrypt(Backend::kFast, w, key, iv, aad, pt);
      ASSERT_TRUE(sealed.auth_ok);
      JobResult opened[2];
      for (Backend backend : {Backend::kSim, Backend::kFast}) {
        Engine engine({.num_devices = 1,
                       .device = {.num_cores = 4, .ccm_mapping = shape.mapping},
                       .backend = backend});
        engine.provision_key(1, key);
        Channel ch = engine.open_channel(w.mode, 1, w.tag_len, w.nonce_len);
        ASSERT_TRUE(ch.valid());
        ASSERT_NO_THROW(opened[backend == Backend::kSim ? 0 : 1] =
                            engine.submit_decrypt(ch, iv, aad, sealed.payload, sealed.tag)
                                .wait(10'000'000));
        ASSERT_NO_THROW(ch.close());
        EXPECT_EQ(engine.device(0).stats().open_channels, 0u);
      }
      const JobResult& sim = opened[0];
      const JobResult& fast = opened[1];
      const std::string where = "mode " + std::to_string(static_cast<int>(shape.mode)) +
                                " mapping " + std::to_string(static_cast<int>(shape.mapping)) +
                                ", " + std::to_string(blocks) + " blocks";
      EXPECT_TRUE(fast.complete && fast.auth_ok) << where;
      EXPECT_EQ(fast.payload, pt) << where;
      ASSERT_TRUE(sim.complete) << where;
      if (blocks <= kLimit) {
        EXPECT_TRUE(sim.auth_ok) << where;
        EXPECT_EQ(to_hex(sim.payload), to_hex(fast.payload)) << where;
      } else {
        EXPECT_FALSE(sim.auth_ok) << where << ": refused at submit";
        EXPECT_TRUE(sim.payload.empty()) << where;
        EXPECT_EQ(sim.complete_cycle, sim.submit_cycle) << where;
      }
    }
  }
}

TEST_P(BackendDifferential, OddAndLargePayloadsMatchSoftwareReference) {
  // Non-block-multiple and >255-block payloads are outside what the
  // simulated FIFOs accept; FastDevice handles them and must equal the
  // golden software implementations bit for bit.
  Rng rng(9000);
  Bytes key = rng.bytes(16);
  auto keys = crypto::aes_expand_key(key);

  Engine engine({.num_devices = 1, .device = {.num_cores = 2}, .backend = Backend::kFast});
  engine.provision_key(1, key);
  Channel gcm = engine.open_channel(ChannelMode::kGcm, 1, 16, 12);
  Channel ccm = engine.open_channel(ChannelMode::kCcm, 1, 8, 13);
  ASSERT_TRUE(gcm.valid() && ccm.valid());

  for (std::size_t len : {1u, 15u, 17u, 100u, 1000u, 2049u, 3000u, 4080u, 4096u}) {
    Bytes iv = rng.bytes(12), nonce = rng.bytes(13), aad = rng.bytes(9);
    Bytes pt = rng.bytes(len);

    JobResult g = engine.submit_encrypt(gcm, iv, aad, pt).wait();
    auto g_ref = crypto::gcm_seal(keys, iv, aad, pt);
    EXPECT_EQ(to_hex(g.payload), to_hex(g_ref.ciphertext)) << "gcm len=" << len;
    EXPECT_EQ(to_hex(g.tag), to_hex(g_ref.tag)) << "gcm len=" << len;

    JobResult c = engine.submit_encrypt(ccm, nonce, aad, pt).wait();
    auto c_ref = crypto::ccm_seal(keys, {.tag_len = 8, .nonce_len = 13}, nonce, aad, pt);
    EXPECT_EQ(to_hex(c.payload), to_hex(c_ref.ciphertext)) << "ccm len=" << len;
    EXPECT_EQ(to_hex(c.tag), to_hex(c_ref.tag)) << "ccm len=" << len;
  }
}

TEST_P(BackendDifferential, RandomizedManyPacketParity) {
  // A mixed randomized stream through two identically configured fleets:
  // every completed packet must match field for field.
  constexpr std::size_t kPackets = 60;
  EngineConfig base{.num_devices = 2, .device = {.num_cores = 2}};
  EngineConfig fast_cfg = base;
  fast_cfg.backend = Backend::kFast;
  Engine sim(base), fast(fast_cfg);

  Rng rng(10'000);
  Bytes key = rng.bytes(16);
  sim.provision_key(1, key);
  fast.provision_key(1, key);

  std::vector<Channel> sim_ch, fast_ch;
  for (ChannelMode mode : {ChannelMode::kGcm, ChannelMode::kCtr}) {
    sim_ch.push_back(sim.open_channel(mode, 1, 16, mode == ChannelMode::kGcm ? 12 : 13));
    fast_ch.push_back(fast.open_channel(mode, 1, 16, mode == ChannelMode::kGcm ? 12 : 13));
    ASSERT_TRUE(sim_ch.back().valid() && fast_ch.back().valid());
  }

  std::vector<Completion> sim_jobs, fast_jobs;
  for (std::size_t i = 0; i < kPackets; ++i) {
    std::size_t which = i % sim_ch.size();
    Bytes iv = which == 0 ? rng.bytes(12) : [&] {
      Bytes b = rng.bytes(16);
      b[14] = b[15] = 0;
      return b;
    }();
    Bytes payload = rng.bytes(16 * (1 + rng.next_below(32)));
    sim_jobs.push_back(sim.submit_encrypt(sim_ch[which], iv, {}, payload));
    fast_jobs.push_back(fast.submit_encrypt(fast_ch[which], iv, {}, payload));
  }
  sim.wait_all();
  fast.wait_all();
  for (std::size_t i = 0; i < kPackets; ++i) {
    const JobResult& a = sim_jobs[i].result();
    const JobResult& b = fast_jobs[i].result();
    EXPECT_EQ(to_hex(a.payload), to_hex(b.payload)) << i;
    EXPECT_EQ(to_hex(a.tag), to_hex(b.tag)) << i;
    EXPECT_EQ(a.auth_ok, b.auth_ok) << i;
  }
}

}  // namespace
}  // namespace mccp::host
