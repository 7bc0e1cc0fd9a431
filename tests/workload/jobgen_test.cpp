// ClassJobStream's two ways of consuming an admitted arrival: take() builds
// the job, take_shape() only sizes it for the admission planner. Both must
// draw from the class rng identically, or the plan's arrival sequence
// drifts from the live run's.
#include <gtest/gtest.h>

#include "workload/jobgen.h"
#include "workload/spec.h"

namespace mccp::workload {
namespace {

TEST(JobGen, TakeShapeDrawsLikeTake) {
  // Every preset mode (CTR, GCM, CCM, CBC-MAC, Whirlpool), with decrypt
  // round-trip picks where the mode has an open side.
  ScenarioSpec spec = parse_scenario_text(R"({
    "seed": 11,
    "classes": [
      {"class": "voip", "packets": 60, "decrypt_fraction": 0.5},
      {"class": "video", "packets": 60, "decrypt_fraction": 0.5},
      {"class": "bulk", "packets": 60, "decrypt_fraction": 0.5},
      {"class": "control", "packets": 60, "decrypt_fraction": 0.5},
      {"class": "whirlpool", "packets": 60}
    ]
  })");
  for (std::size_t c = 0; c < spec.classes.size(); ++c) {
    ClassJobStream built(spec.classes[c], spec.seed, c, 0);
    ClassJobStream shaped(spec.classes[c], spec.seed, c, 0);
    for (std::uint64_t i = 0; !built.exhausted(); ++i) {
      ASSERT_EQ(built.next_time(), shaped.next_time()) << "class " << c << ", arrival " << i;
      if (i % 5 == 4) {  // a dropped arrival in between
        built.skip();
        shaped.skip();
        continue;
      }
      const GeneratedJob job = built.take();
      const JobShape shape = shaped.take_shape();
      EXPECT_EQ(shape.payload_len, job.job.payload.size()) << "class " << c << ", arrival " << i;
      EXPECT_EQ(shape.aad_len, job.job.aad.size()) << "class " << c << ", arrival " << i;
    }
    EXPECT_TRUE(shaped.exhausted()) << "class " << c;
  }
}

TEST(JobGen, CtrCountersAreIncSafe) {
  // A CTR initial counter leaves its low 16 bits clear, so the hardware
  // INC core never wraps mid-packet.
  ScenarioSpec spec = parse_scenario_text(R"({
    "seed": 7,
    "classes": [{"class": "voip", "packets": 20}]
  })");
  ASSERT_EQ(spec.classes[0].profile.mode, ChannelMode::kCtr);
  ClassJobStream stream(spec.classes[0], spec.seed, 0, 0);
  std::size_t taken = 0;
  for (; !stream.exhausted(); ++taken) {
    const GeneratedJob job = stream.take();
    ASSERT_EQ(job.job.iv_or_nonce.size(), 16u);
    EXPECT_EQ(job.job.iv_or_nonce[14], 0);
    EXPECT_EQ(job.job.iv_or_nonce[15], 0);
  }
  EXPECT_EQ(taken, 20u);
}

}  // namespace
}  // namespace mccp::workload
