// workload scenario specs — preset resolution, field overrides, size
// distributions, arrival parsing (including trace files resolved relative
// to the spec), defaults, and field-level error messages.
#include <gtest/gtest.h>

#include <fstream>
#include <limits>
#include <stdexcept>

#include "common/rng.h"
#include "workload/spec.h"
#include "workload/trace.h"

namespace mccp::workload {
namespace {

TEST(Spec, MinimalScenarioGetsDefaults) {
  ScenarioSpec spec = parse_scenario_text(R"({
    "classes": [{"class": "voip"}]
  })");
  EXPECT_EQ(spec.name, "scenario");
  EXPECT_EQ(spec.devices, 1u);
  EXPECT_EQ(spec.cores_per_device, 4u);
  EXPECT_EQ(spec.backend, host::Backend::kFast);
  EXPECT_EQ(spec.placement, host::Placement::kLeastLoaded);
  EXPECT_EQ(spec.window, 64u);
  EXPECT_EQ(spec.admission, Admission::kBlock);
  ASSERT_EQ(spec.classes.size(), 1u);
  const ChannelClass& c = spec.classes[0].profile;
  EXPECT_EQ(c.name, "voip");
  EXPECT_EQ(c.mode, ChannelMode::kCtr);
  EXPECT_EQ(c.priority, 0u);
}

TEST(Spec, PresetFieldsAreOverridable) {
  ScenarioSpec spec = parse_scenario_text(R"({
    "devices": 3, "cores_per_device": 2, "backend": "sim",
    "placement": "mode_affinity", "window": 8, "admission": "drop",
    "seed": 77, "max_cycles": 500000, "queue_sample_cycles": 128,
    "classes": [
      {"class": "bulk", "name": "bulk_hi", "priority": 5, "packets": 42,
       "channels": 3, "key_len": 16, "tag_len": 12,
       "payload": {"uniform": [256, 512]},
       "arrival": {"kind": "fixed_rate", "rate": 2.5}}
    ]
  })");
  EXPECT_EQ(spec.devices, 3u);
  EXPECT_EQ(spec.backend, host::Backend::kSim);
  EXPECT_EQ(spec.placement, host::Placement::kModeAffinity);
  EXPECT_EQ(spec.admission, Admission::kDrop);
  EXPECT_EQ(spec.seed, 77u);
  EXPECT_EQ(spec.max_cycles, 500000u);
  const ClassSpec& cs = spec.classes[0];
  EXPECT_EQ(cs.profile.name, "bulk_hi");
  EXPECT_EQ(cs.profile.mode, ChannelMode::kCcm);  // inherited from the preset
  EXPECT_EQ(cs.profile.priority, 5u);
  EXPECT_EQ(cs.profile.key_len, 16u);
  EXPECT_EQ(cs.profile.tag_len, 12u);
  EXPECT_EQ(cs.packets, 42u);
  EXPECT_EQ(cs.channels, 3u);
  EXPECT_EQ(cs.profile.arrival.kind, ArrivalSpec::Kind::kFixedRate);
  EXPECT_DOUBLE_EQ(cs.profile.arrival.rate, 2.5);
  Rng rng(1);
  for (int i = 0; i < 50; ++i) {
    std::size_t s = cs.profile.payload.sample(rng);
    EXPECT_GE(s, 256u);
    EXPECT_LE(s, 512u);
  }
}

TEST(Spec, GcmClassesDefaultToTwelveByteIvs) {
  // A GCM channel streams exactly nonce_len IV bytes; unless the spec says
  // otherwise, classes register the 96-bit fast path.
  ScenarioSpec spec = parse_scenario_text(R"({
    "classes": [
      {"name": "a", "mode": "gcm"},
      {"name": "b", "mode": "gcm", "nonce_len": 13},
      {"name": "c", "class": "video"}
    ]
  })");
  EXPECT_EQ(spec.classes[0].profile.nonce_len, 12u);
  EXPECT_EQ(spec.classes[1].profile.nonce_len, 13u);
  EXPECT_EQ(spec.classes[2].profile.nonce_len, 12u);
}

TEST(Spec, SizeDistributionForms) {
  ScenarioSpec spec = parse_scenario_text(R"({
    "classes": [
      {"name": "a", "mode": "gcm", "payload": 777},
      {"name": "b", "mode": "gcm", "payload": {"fixed": 128}},
      {"name": "c", "mode": "gcm",
       "payload": {"empirical": {"values": [64, 1500], "weights": [3, 1]}}},
      {"name": "d", "mode": "gcm", "payload": {"empirical": [100, 200]}}
    ]
  })");
  Rng rng(5);
  EXPECT_EQ(spec.classes[0].profile.payload.sample(rng), 777u);
  EXPECT_EQ(spec.classes[1].profile.payload.sample(rng), 128u);
  int small = 0;
  for (int i = 0; i < 4000; ++i)
    if (spec.classes[2].profile.payload.sample(rng) == 64) ++small;
  EXPECT_NEAR(small, 3000, 150);  // 3:1 weighting
  std::size_t v = spec.classes[3].profile.payload.sample(rng);
  EXPECT_TRUE(v == 100 || v == 200);
}

TEST(Spec, TraceArrivalFromFileFiltersByClassName) {
  const std::string dir = ::testing::TempDir();
  {
    std::ofstream out(dir + "spec_trace.csv");
    write_trace_csv({{100.0, "fast_class", 512, -1},
                     {200.0, "other", -1, -1},
                     {300.0, "fast_class", -1, 16}},
                    out);
  }
  ScenarioSpec spec = parse_scenario(
      json::parse(R"({
        "classes": [{"name": "fast_class", "mode": "gcm", "packets": 0,
                     "arrival": {"kind": "trace", "file": "spec_trace.csv"}}]
      })"),
      dir.substr(0, dir.size() - 1));  // TempDir has a trailing slash
  const ArrivalSpec& a = spec.classes[0].profile.arrival;
  EXPECT_EQ(a.kind, ArrivalSpec::Kind::kTrace);
  EXPECT_EQ(a.trace, (std::vector<double>{100.0, 300.0}));
  EXPECT_EQ(a.trace_payload_len, (std::vector<long long>{512, -1}));
  EXPECT_EQ(a.trace_aad_len, (std::vector<long long>{-1, 16}));
}

TEST(Spec, InlineTraceTimes) {
  ScenarioSpec spec = parse_scenario_text(R"({
    "classes": [{"name": "t", "mode": "ctr", "packets": 0,
                 "arrival": {"kind": "trace", "times": [10, 20, 30]}}]
  })");
  EXPECT_EQ(spec.classes[0].profile.arrival.trace, (std::vector<double>{10, 20, 30}));
}

TEST(Spec, FieldLevelErrors) {
  auto expect_invalid = [](const char* text) {
    EXPECT_THROW(parse_scenario_text(text), std::invalid_argument) << text;
  };
  expect_invalid(R"({"classes": []})");
  expect_invalid(R"({"classes": [{"class": "nope"}]})");
  expect_invalid(R"({"classes": [{"name": "x", "mode": "rot13"}]})");
  expect_invalid(R"({"classes": [{"class": "voip", "key_len": 17}]})");
  expect_invalid(R"({"classes": [{"class": "voip", "channels": 0}]})");
  expect_invalid(R"({"classes": [{"class": "voip", "packets": 0}]})");  // non-trace
  expect_invalid(R"({"classes": [{"class": "voip"}, {"class": "voip"}]})");  // dup name
  expect_invalid(R"({"window": 0, "classes": [{"class": "voip"}]})");
  expect_invalid(R"({"devices": 0, "classes": [{"class": "voip"}]})");
  expect_invalid(R"({"backend": "quantum", "classes": [{"class": "voip"}]})");
  expect_invalid(R"({"admission": "maybe", "classes": [{"class": "voip"}]})");
  expect_invalid(
      R"({"classes": [{"name": "g", "mode": "gcm", "nonce_len": 0}]})");
  expect_invalid(
      R"({"classes": [{"name": "t", "mode": "ctr", "arrival": {"kind": "trace"}}]})");
  EXPECT_THROW(parse_scenario_text("[1,2,3]"), std::invalid_argument);
  EXPECT_THROW(parse_scenario_text("{nope"), json::ParseError);
  // Reconfiguration / verify-traffic fields.
  expect_invalid(R"({"slots": [], "classes": [{"class": "voip"}]})");
  expect_invalid(R"({"slots": ["rot13"], "classes": [{"class": "voip"}]})");
  expect_invalid(  // more slots than cores_per_device
      R"({"cores_per_device": 1, "slots": ["aes", "whirlpool"],
          "classes": [{"class": "voip"}]})");
  expect_invalid(  // more per-device layouts than devices
      R"({"devices": 1, "slots": [["aes"], ["whirlpool"]],
          "classes": [{"class": "voip"}]})");
  expect_invalid(R"({"bitstream_store": "tape", "classes": [{"class": "voip"}]})");
  expect_invalid(R"({"reconfig_scale": 0, "classes": [{"class": "voip"}]})");
  expect_invalid(R"({"classes": [{"class": "voip", "decrypt_fraction": 1.5}]})");
  expect_invalid(R"({"classes": [{"class": "voip", "decrypt_fraction": -0.1}]})");
  expect_invalid(  // hashing has no open side
      R"({"classes": [{"class": "whirlpool", "decrypt_fraction": 0.5}]})");
}

TEST(Spec, SlotLayoutForms) {
  // Flat array: one layout for every device.
  ScenarioSpec uniform = parse_scenario_text(R"({
    "cores_per_device": 2, "slots": ["aes", "whirlpool"],
    "bitstream_store": "compact_flash", "auto_reconfig": false, "reconfig_scale": 64,
    "classes": [{"class": "voip"}]
  })");
  ASSERT_EQ(uniform.slot_images.size(), 2u);
  EXPECT_EQ(uniform.slot_images[1], reconfig::CoreImage::kWhirlpool);
  EXPECT_TRUE(uniform.slot_layouts.empty());
  EXPECT_EQ(uniform.bitstream_store, reconfig::BitstreamStore::kCompactFlash);
  EXPECT_FALSE(uniform.auto_reconfig);
  EXPECT_EQ(uniform.reconfig_time_divisor, 64u);

  // Array of arrays: per-device layouts.
  ScenarioSpec per_device = parse_scenario_text(R"({
    "devices": 2, "cores_per_device": 1, "slots": [["aes"], ["whirlpool"]],
    "classes": [{"class": "voip"}]
  })");
  ASSERT_EQ(per_device.slot_layouts.size(), 2u);
  EXPECT_EQ(per_device.slot_layouts[1][0], reconfig::CoreImage::kWhirlpool);
  EXPECT_TRUE(per_device.slot_images.empty());
}

TEST(Spec, NameRoundTrips) {
  for (auto b : {host::Backend::kSim, host::Backend::kFast})
    EXPECT_EQ(backend_from_name(backend_name(b)), b);
  for (auto p : {host::Placement::kRoundRobin, host::Placement::kLeastLoaded,
                 host::Placement::kModeAffinity})
    EXPECT_EQ(placement_from_name(placement_name(p)), p);
  for (const char* m : {"gcm", "ccm", "ctr", "cbc_mac", "whirlpool"})
    EXPECT_STREQ(mode_name(mode_from_name(m)), m);
  for (auto img : {reconfig::CoreImage::kAesEncryptWithKs, reconfig::CoreImage::kWhirlpool})
    EXPECT_EQ(image_from_name(image_spec_name(img)), img);
  for (auto s : {reconfig::BitstreamStore::kRam, reconfig::BitstreamStore::kCompactFlash})
    EXPECT_EQ(store_from_name(store_spec_name(s)), s);
}

TEST(Spec, ScalePacketsRoundsToNearestWithAFloorOfOne) {
  ScenarioSpec spec;
  spec.classes.resize(4);
  spec.classes[0].packets = 150;
  spec.classes[1].packets = 149;
  spec.classes[2].packets = 3;
  spec.classes[3].packets = 0;  // trace-driven: replays its whole trace
  scale_packets(spec, 0.05);
  EXPECT_EQ(spec.classes[0].packets, 8u);  // 7.5 rounds half away from zero
  EXPECT_EQ(spec.classes[1].packets, 7u);  // 7.45
  EXPECT_EQ(spec.classes[2].packets, 1u);  // 0.15, raised to the one-packet floor
  EXPECT_EQ(spec.classes[3].packets, 0u);
  scale_packets(spec, 1.0);
  EXPECT_EQ(spec.classes[0].packets, 8u);
}

TEST(Spec, ScalePacketsRejectsNonFiniteNonPositiveAndOverflowingScales) {
  for (double bad : {0.0, -1.0, std::numeric_limits<double>::infinity(),
                     std::numeric_limits<double>::quiet_NaN(), 1e300}) {
    ScenarioSpec spec;
    spec.classes.resize(1);
    try {
      scale_packets(spec, bad);
      ADD_FAILURE() << "accepted --scale " << bad;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("--scale"), std::string::npos) << e.what();
    }
  }
}

// -- multi-tenant QoS ---------------------------------------------------------

TEST(Spec, TenantsParseWithContractsAndCapacity) {
  ScenarioSpec spec = parse_scenario_text(R"({
    "tenants": [
      {"name": "acme", "slo": "voip", "weight": 4,
       "rate": {"tokens": 2, "per_cycles": 5000}, "burst": 8,
       "quota": 12, "p99_slo_cycles": 60000},
      {"name": "bulkco", "slo": "bulk"}
    ],
    "capacity": {"tokens": 20, "per_cycles": 10000, "burst": 40},
    "classes": [
      {"class": "voip", "tenant": "acme"},
      {"class": "bulk", "tenant": "bulkco"},
      {"class": "control"}
    ]
  })");
  ASSERT_EQ(spec.tenants.size(), 2u);
  const qos::TenantConfig& acme = spec.tenants[0];
  EXPECT_EQ(acme.name, "acme");
  EXPECT_EQ(acme.slo, qos::SloClass::kVoip);
  EXPECT_EQ(acme.weight, 4u);
  EXPECT_EQ(acme.rate_tokens, 2u);
  EXPECT_EQ(acme.rate_cycles, 5000u);
  EXPECT_EQ(acme.burst, 8u);
  EXPECT_EQ(acme.quota, 12u);
  EXPECT_EQ(acme.p99_slo_cycles, 60000u);
  // Defaults: bulk SLO, uncontracted, no quota, weight 1.
  EXPECT_EQ(spec.tenants[1].slo, qos::SloClass::kBulk);
  EXPECT_EQ(spec.tenants[1].rate_tokens, 0u);
  EXPECT_EQ(spec.tenants[1].quota, 0u);
  EXPECT_EQ(spec.tenants[1].weight, 1u);
  // Class bindings resolve to dense 1-based ids; untenanted stays 0.
  EXPECT_EQ(spec.classes[0].tenant_id, 1u);
  EXPECT_EQ(spec.classes[1].tenant_id, 2u);
  EXPECT_EQ(spec.classes[2].tenant_id, 0u);
  EXPECT_TRUE(spec.capacity.enabled);
  EXPECT_EQ(spec.capacity.rate_tokens, 20u);
  EXPECT_EQ(spec.capacity.rate_cycles, 10000u);
  EXPECT_EQ(spec.capacity.burst, 40u);
}

TEST(Spec, TenantParseRejections) {
  auto expect_invalid = [](const char* text) {
    EXPECT_THROW(parse_scenario_text(text), std::invalid_argument) << text;
  };
  // A class naming a tenant nobody declared.
  expect_invalid(R"({
    "tenants": [{"name": "acme"}],
    "classes": [{"class": "voip", "tenant": "ghost"}]})");
  // Duplicate tenant names.
  expect_invalid(R"({
    "tenants": [{"name": "acme"}, {"name": "acme"}],
    "classes": [{"class": "voip", "tenant": "acme"}]})");
  // Tenanted classes require blocking admission (the plan regenerates the
  // streams and drop admission depends on completion timing).
  expect_invalid(R"({
    "admission": "drop",
    "tenants": [{"name": "acme"}],
    "classes": [{"class": "voip", "tenant": "acme"}]})");
  // ...and must be encrypt-only.
  expect_invalid(R"({
    "tenants": [{"name": "acme"}],
    "classes": [{"class": "video", "tenant": "acme", "decrypt_fraction": 0.5}]})");
  // Capacity without tenants is a silent no-op: refuse it loudly.
  expect_invalid(R"({
    "capacity": {"tokens": 10, "per_cycles": 1000},
    "classes": [{"class": "voip"}]})");
  // Degenerate bucket parameters.
  expect_invalid(R"({
    "tenants": [{"name": "acme", "burst": 0}],
    "classes": [{"class": "voip", "tenant": "acme"}]})");
  expect_invalid(R"({
    "tenants": [{"name": "acme", "rate": {"tokens": 1, "per_cycles": 0}}],
    "classes": [{"class": "voip", "tenant": "acme"}]})");
  // A tenant without a name.
  expect_invalid(R"({
    "tenants": [{"slo": "voip"}],
    "classes": [{"class": "voip"}]})");
}

}  // namespace
}  // namespace mccp::workload
