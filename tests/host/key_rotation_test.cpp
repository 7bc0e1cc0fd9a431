// Mid-flight key rotation at the Device seam, on both backends and for GCM
// and CCM: re-provisioning a key while a job holds a core never reaches
// that job — it completes under the key in force when it was dispatched —
// while a job still pending at the rotation completes under the new key.
//
// The FastDevice side is arranged so the running job is not yet computed
// when the key rotates: a partial reconfiguration of the other slot ends
// before the job does, so the first step() stops at the swap's end cycle
// with the job dispatched and nothing retired (FastDevice runs a payload
// only when a job retires).
#include <gtest/gtest.h>

#include <memory>
#include <tuple>

#include "common/rng.h"
#include "crypto/ccm.h"
#include "crypto/gcm.h"
#include "host/engine.h"

namespace mccp::host {
namespace {

class KeyRotation : public ::testing::TestWithParam<std::tuple<Backend, ChannelMode>> {};

INSTANTIATE_TEST_SUITE_P(
    BackendsAndModes, KeyRotation,
    ::testing::Combine(::testing::Values(Backend::kSim, Backend::kFast),
                       ::testing::Values(ChannelMode::kGcm, ChannelMode::kCcm)),
    [](const ::testing::TestParamInfo<std::tuple<Backend, ChannelMode>>& info) {
      return std::string(std::get<0>(info.param) == Backend::kSim ? "Sim" : "Fast") +
             (std::get<1>(info.param) == ChannelMode::kGcm ? "Gcm" : "Ccm");
    });

TEST_P(KeyRotation, RunningJobKeepsDispatchKeyPendingJobTakesNewKey) {
  const auto [backend, mode] = GetParam();
  // Two slots: slot 1 swaps to Whirlpool (a short, scaled transfer), so
  // both AES jobs queue for slot 0 — the first runs, the second waits.
  const top::MccpConfig cfg{.num_cores = 2, .reconfig_time_divisor = 1 << 14};
  std::unique_ptr<Device> dev;
  if (backend == Backend::kSim)
    dev = std::make_unique<SimDevice>(cfg);
  else
    dev = std::make_unique<FastDevice>(cfg);

  Rng rng(4242);
  const Bytes old_key = rng.bytes(16), new_key = rng.bytes(16);
  dev->provision_key(1, old_key);
  const unsigned nonce_len = mode == ChannelMode::kGcm ? 12 : 13;
  const auto ch = dev->open_channel(mode, 1, 16, nonce_len);
  ASSERT_TRUE(ch.has_value());
  ASSERT_TRUE(dev->begin_reconfiguration(1, reconfig::CoreImage::kWhirlpool,
                                         reconfig::BitstreamStore::kRam));

  auto seal_spec = [&](std::size_t len) {
    JobSpec s;
    s.channel = *ch;
    s.iv_or_nonce = rng.bytes(nonce_len);
    s.aad = rng.bytes(16);
    s.payload = rng.bytes(len);
    return s;
  };
  const JobSpec running = seal_spec(2048), pending = seal_spec(256);
  const DeviceJobId running_id = dev->submit(running);
  const DeviceJobId pending_id = dev->submit(pending);

  // Step until the first job holds slot 0, then rotate the key under it.
  for (int i = 0; i < 1'000'000 && dev->result(running_id)->accept_cycle == 0; ++i) dev->step();
  ASSERT_NE(dev->result(running_id)->accept_cycle, 0u);
  ASSERT_FALSE(dev->result(running_id)->complete) << "the job must still be running";
  ASSERT_EQ(dev->result(pending_id)->accept_cycle, 0u) << "the second job must still be pending";
  dev->provision_key(1, new_key);
  while (!dev->idle()) dev->step();

  auto expect_sealed_under = [&](DeviceJobId id, const JobSpec& spec, const Bytes& key,
                                 const char* what) {
    const JobResult* r = dev->result(id);
    ASSERT_NE(r, nullptr);
    ASSERT_TRUE(r->complete) << what;
    ASSERT_TRUE(r->auth_ok) << what;
    const auto keys = crypto::aes_expand_key(key);
    if (mode == ChannelMode::kGcm) {
      const auto want = crypto::gcm_seal(keys, spec.iv_or_nonce, spec.aad, spec.payload, 16);
      EXPECT_EQ(r->payload, want.ciphertext) << what;
      EXPECT_EQ(r->tag, want.tag) << what;
    } else {
      const auto want = crypto::ccm_seal(keys, {.tag_len = 16, .nonce_len = 13}, spec.iv_or_nonce,
                                         spec.aad, spec.payload);
      EXPECT_EQ(r->payload, want.ciphertext) << what;
      EXPECT_EQ(r->tag, want.tag) << what;
    }
  };
  expect_sealed_under(running_id, running, old_key, "running job, old key");
  expect_sealed_under(pending_id, pending, new_key, "pending job, new key");
}

}  // namespace
}  // namespace mccp::host
