// Pins the heap allocations of the Engine's steady-state job path on the
// fast backend. The global operator new below counts every call made in
// this test binary; the pin is taken over a phase that starts and ends
// with the fleet idle and repeats a warm-up phase of the same shape, so
// every ring, bucket and list has already grown and the count is exact:
// one JobState per packet plus the tag of each GCM/CCM seal. FastDevice
// computes every payload in the job's own buffer, so results add no other
// allocation. A second case pins the copying CCM seal/open calls.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <optional>
#include <vector>

#include "common/rng.h"
#include "crypto/aes.h"
#include "crypto/ccm.h"
#include "crypto/gcm.h"
#include "host/engine.h"

namespace {
std::atomic<std::uint64_t> g_allocations{0};

void* counted_malloc(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}
}  // namespace

// Plain and nothrow forms, with the deletes that must pair with them (a
// sanitizer runtime checks that operator new memory goes back through
// operator delete). The aligned forms stay the runtime's own.
void* operator new(std::size_t n) {
  if (void* p = counted_malloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return operator new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept { return counted_malloc(n); }
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept { return counted_malloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace mccp::host {
namespace {

/// One packet's inputs, built before it is submitted and moved into
/// submit_*, so the count sees only what the job path allocates.
struct Input {
  std::size_t channel = 0;
  bool decrypt = false;
  Bytes iv, aad, payload, tag;
  /// Result buffers the backend allocates: the tag of a GCM/CCM seal (the
  /// payload is computed in the job's own buffer).
  std::uint64_t result_buffers = 0;
};

TEST(Engine, SteadyStateJobPathAllocations) {
  constexpr std::size_t kPackets = 3000;  // per phase
  constexpr std::size_t kWindow = 64;
  EngineConfig cfg;
  cfg.num_devices = 2;
  cfg.backend = Backend::kFast;
  Engine engine(cfg);
  Rng rng(24);
  const Bytes key = rng.bytes(16);
  engine.provision_key(1, key);
  const crypto::AesRoundKeys keys = crypto::aes_expand_key(key);
  const crypto::CcmParams ccm_params{8, 13};

  // Round-robin placement puts one channel of each mode on each device.
  std::vector<Channel> channels;
  for (int rep = 0; rep < 2; ++rep) {
    channels.push_back(engine.open_channel(ChannelMode::kGcm, 1, 16, 12));
    channels.push_back(engine.open_channel(ChannelMode::kCcm, 1, 8, 13));
    channels.push_back(engine.open_channel(ChannelMode::kCtr, 1));
  }
  for (const Channel& ch : channels) ASSERT_TRUE(ch.valid());
  ASSERT_NE(channels[0].device_index(), channels[3].device_index());

  // Seals and opens of GCM, CCM and CTR, in a fixed cycle of shapes so
  // both phases schedule identically.
  auto make_input = [&](std::size_t i) {
    Input in;
    in.channel = i % channels.size();
    in.decrypt = (i / channels.size()) % 2 == 1;
    const Bytes pt = rng.bytes(64 + 64 * (i % 3));
    switch (channels[in.channel].mode()) {
      case ChannelMode::kGcm: {
        in.iv = rng.bytes(12);
        in.aad = rng.bytes(16);
        if (!in.decrypt) {
          in.payload = pt;
          in.result_buffers = 1;
          break;
        }
        crypto::GcmSealed sealed = crypto::gcm_seal(keys, in.iv, in.aad, pt, 16);
        in.payload = std::move(sealed.ciphertext);
        in.tag = std::move(sealed.tag);
        break;
      }
      case ChannelMode::kCcm: {
        in.iv = rng.bytes(13);
        in.aad = rng.bytes(16);
        if (!in.decrypt) {
          in.payload = pt;
          in.result_buffers = 1;
          break;
        }
        crypto::CcmSealed sealed = crypto::ccm_seal(keys, ccm_params, in.iv, in.aad, pt);
        in.payload = std::move(sealed.ciphertext);
        in.tag = std::move(sealed.tag);
        break;
      }
      default:  // CTR: transformed in place either way
        in.iv = rng.bytes(16);
        in.payload = pt;
        break;
    }
    return in;
  };

  std::size_t outstanding = 0;
  std::size_t failures = 0;
  // Submits kPackets inputs with at most kWindow in flight, dropping each
  // handle at once (the callback is the only consumer), then drains.
  auto run_phase = [&](std::vector<Input>& inputs) {
    for (Input& in : inputs) {
      while (outstanding == kWindow) engine.step();
      const Channel& ch = channels[in.channel];
      Completion c = in.decrypt ? engine.submit_decrypt(ch, std::move(in.iv), std::move(in.aad),
                                                        std::move(in.payload), std::move(in.tag))
                                : engine.submit_encrypt(ch, std::move(in.iv), std::move(in.aad),
                                                        std::move(in.payload));
      c.on_done([&outstanding, &failures](const JobResult& r) {
        --outstanding;
        if (!r.complete || !r.auth_ok || r.payload.empty()) ++failures;
      });
      ++outstanding;
    }
    engine.wait_all();
  };

  std::vector<Input> warmup, measured;
  std::uint64_t expected = 0;
  for (std::size_t i = 0; i < kPackets; ++i) warmup.push_back(make_input(i));
  for (std::size_t i = 0; i < kPackets; ++i) {
    measured.push_back(make_input(i));
    expected += 1 + measured.back().result_buffers;  // the JobState, then results
  }

  run_phase(warmup);
  const std::uint64_t before = g_allocations.load();
  run_phase(measured);
  const std::uint64_t allocations = g_allocations.load() - before;

  EXPECT_EQ(failures, 0u);
  EXPECT_EQ(engine.completed_jobs(), 2 * kPackets);
  const double per_packet = static_cast<double>(allocations) / kPackets;
  RecordProperty("allocations_per_packet", std::to_string(per_packet));
  EXPECT_LE(per_packet, 1.5);
  // Measured: 4000 for the 3000 packets (1 JobState each, plus 1000 seal
  // tags: 1.33 per packet); the job path itself adds none.
  EXPECT_EQ(allocations, expected) << per_packet << " allocations per packet";
  EXPECT_EQ(expected, 4000u);
}

TEST(Ccm, SealOpenPairAllocations) {
  // ccm_seal allocates its ciphertext copy and its tag, ccm_open its
  // plaintext copy; the lane manager underneath is the thread's own, kept
  // between calls, so a seal+open pair allocates those three buffers only.
  constexpr int kPairs = 100;
  Rng rng(30);
  const crypto::AesRoundKeys keys = crypto::aes_expand_key(rng.bytes(16));
  const crypto::CcmParams params{16, 13};
  const Bytes nonce = rng.bytes(13);
  const Bytes aad = rng.bytes(16);
  const Bytes pt = rng.bytes(2048);
  auto seal_open = [&] {
    const crypto::CcmSealed sealed = crypto::ccm_seal(keys, params, nonce, aad, pt);
    const std::optional<Bytes> opened =
        crypto::ccm_open(keys, params, nonce, aad, sealed.ciphertext, sealed.tag);
    return opened.has_value() && *opened == pt;
  };

  ASSERT_TRUE(seal_open());  // warm-up: the thread's lane manager takes its slot
  int verified = 0;
  const std::uint64_t before = g_allocations.load();
  for (int i = 0; i < kPairs; ++i) verified += seal_open() ? 1 : 0;
  const std::uint64_t allocations = g_allocations.load() - before;

  EXPECT_EQ(verified, kPairs);
  EXPECT_EQ(allocations, 3u * kPairs) << allocations << " allocations for " << kPairs << " pairs";
}

}  // namespace
}  // namespace mccp::host
