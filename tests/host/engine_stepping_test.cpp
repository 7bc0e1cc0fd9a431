// The Engine's one stepping loop, seen through each call that wraps it:
// the stranded-work rule (Completion::wait and wait_all throw EngineError
// within one round of finding their work on a failed device, also while
// other devices still run live work), the budget rule (a healthy
// remove_device() drain past max_drain_cycles throws, stays draining and
// can be retried), and Engine::pump (rounds, idle fleets, and stamps
// identical to wait_all) — on both backends.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <vector>

#include "common/rng.h"
#include "host/engine.h"

namespace mccp::host {
namespace {

constexpr Backend kBackends[] = {Backend::kSim, Backend::kFast};

EngineConfig fleet(Backend backend, std::size_t num_devices) {
  EngineConfig cfg;
  cfg.num_devices = num_devices;
  cfg.device = {.num_cores = 2};
  cfg.backend = backend;
  return cfg;
}

const char* name(Backend backend) { return backend == Backend::kSim ? "sim" : "fast"; }

/// A 2-device fleet with one GCM channel on each device; device 0 dies at
/// once, device 1 is left with `busy_jobs` 2 KB seals in flight.
struct StrandedFleet {
  explicit StrandedFleet(Backend backend, int busy_jobs) : engine(fleet(backend, 2)), rng(73) {
    engine.provision_key(1, rng.bytes(16));
    dead = engine.open_channel(ChannelMode::kGcm, 1, 16, 12);
    live = engine.open_channel(ChannelMode::kGcm, 1, 16, 12);
    for (int i = 0; i < busy_jobs; ++i)
      busy.push_back(engine.submit_encrypt(live, rng.bytes(12), {}, rng.bytes(2048)));
    engine.inject_fault(0, 0);  // dead now: its clock is frozen
    engine.step();
  }
  Completion submit_stranded() {
    return engine.submit_encrypt(dead, rng.bytes(12), {}, rng.bytes(256));
  }

  Engine engine;
  Rng rng;
  Channel dead, live;
  std::vector<Completion> busy;
};

TEST(EngineStepping, WaitOnAStrandedJobThrowsWithinOneRoundWhileOthersRun) {
  for (Backend backend : kBackends) {
    StrandedFleet f(backend, 16);
    ASSERT_EQ(f.dead.device_index(), 0u);
    ASSERT_EQ(f.live.device_index(), 1u);
    ASSERT_TRUE(f.engine.device_failed(0));
    Completion job = f.submit_stranded();

    // A fleet holding a FaultyDevice steps one dispatch per round.
    const std::uint64_t rounds = f.engine.rounds();
    EXPECT_THROW(job.wait(), EngineError) << name(backend);
    EXPECT_EQ(f.engine.rounds() - rounds, 1u) << name(backend);
    EXPECT_FALSE(f.busy.back().done()) << "the live device still has work";

    // A job on the live device is not stranded: wait() finishes it.
    EXPECT_TRUE(f.busy.back().wait().complete) << name(backend);

    // Recovery resubmits the stranded job, and the same handle then waits.
    const DrainReport dr = f.engine.remove_device(0);
    EXPECT_EQ(dr.resubmitted_jobs, 1u);
    EXPECT_TRUE(job.wait().complete) << name(backend);
  }
}

TEST(EngineStepping, WaitAllThrowsOnceAllInFlightWorkSitsOnFailedDevices) {
  for (Backend backend : kBackends) {
    StrandedFleet f(backend, 4);
    f.submit_stranded();
    // The live device's work finishes first; then only stranded work is left.
    EXPECT_THROW(f.engine.wait_all(), EngineError) << name(backend);
    for (const Completion& c : f.busy) EXPECT_TRUE(c.done()) << name(backend);
    EXPECT_FALSE(f.engine.idle());

    // Nothing in flight on a live device: the first round finds it stranded.
    const std::uint64_t rounds = f.engine.rounds();
    EXPECT_THROW(f.engine.wait_all(), EngineError) << name(backend);
    EXPECT_EQ(f.engine.rounds() - rounds, 1u) << name(backend);

    f.engine.remove_device(0);
    f.engine.wait_all();
    EXPECT_TRUE(f.engine.idle());
  }
}

TEST(EngineStepping, PumpAndAdvanceToStopOnStrandedWork) {
  for (Backend backend : kBackends) {
    StrandedFleet f(backend, 0);
    f.submit_stranded();
    std::uint64_t rounds = f.engine.rounds();
    EXPECT_EQ(f.engine.pump(1'000), 0u);
    EXPECT_EQ(f.engine.rounds() - rounds, 1u) << name(backend);

    // advance_to stops stepping, then jumps the live device to the target.
    rounds = f.engine.rounds();
    f.engine.advance_to(5'000'000);
    EXPECT_EQ(f.engine.rounds() - rounds, 2u) << "one round, then the jump";
    EXPECT_GE(f.engine.device(1).now(), 5'000'000u);
  }
}

struct DrainRun {
  DrainReport report;  // the unbounded (or retried) drain's
  bool threw = false, draining_after_throw = false, refused_submit = false;
  std::uint64_t completed = 0;
  std::vector<JobResult> results;
};

/// Removes device 0 with 8 seals in flight, optionally first with a budget
/// too small for the drain (which must throw) and then again. `completed`
/// counts the jobs the throwing attempt finished.
DrainRun remove_busy_device(Backend backend, std::optional<sim::Cycle> first_budget) {
  Engine engine(fleet(backend, 2));
  Rng rng(79);
  engine.provision_key(1, rng.bytes(16));
  Channel a = engine.open_channel(ChannelMode::kGcm, 1, 16, 12);  // device 0
  std::vector<Completion> jobs;
  for (int i = 0; i < 8; ++i)
    jobs.push_back(engine.submit_encrypt(a, rng.bytes(12), {}, rng.bytes(1024)));
  DrainRun run;
  if (first_budget) {
    try {
      engine.remove_device(0, *first_budget);
    } catch (const EngineError&) {
      run.threw = true;
    }
    run.draining_after_throw = engine.device_alive(0) && engine.draining(0);
    try {
      engine.submit_encrypt(a, rng.bytes(12), {}, rng.bytes(64));
    } catch (const DeviceDrainingError&) {
      run.refused_submit = true;
    }
    run.completed = engine.completed_jobs();
  }
  run.report = engine.remove_device(0);
  // wait() on a job that finished on the removed device returns at once.
  for (Completion& c : jobs) run.results.push_back(c.wait());
  return run;
}

TEST(EngineStepping, DrainPastItsBudgetThrowsStaysDrainingAndARetryFinishesIt) {
  for (Backend backend : kBackends) {
    const DrainRun once = remove_busy_device(backend, std::nullopt);
    const DrainRun retried = remove_busy_device(backend, 100);
    ASSERT_TRUE(retried.threw) << name(backend);
    EXPECT_TRUE(retried.draining_after_throw);
    EXPECT_TRUE(retried.refused_submit) << "a draining device takes no new work";
    // A FastDevice round jumps to its next completion, so its first round
    // already finishes seals; a sim round moves a cycle or a quiet burst.
    if (backend == Backend::kSim) {
      EXPECT_EQ(retried.completed, 0u);
    }

    EXPECT_FALSE(once.report.was_failed);
    EXPECT_FALSE(retried.report.was_failed);
    EXPECT_EQ(once.report.completed_during_drain, 8u);
    EXPECT_EQ(retried.completed + retried.report.completed_during_drain,
              once.report.completed_during_drain);
    EXPECT_EQ(retried.report.migrated_channels, once.report.migrated_channels);
    EXPECT_EQ(retried.report.resubmitted_jobs, once.report.resubmitted_jobs);
    EXPECT_EQ(retried.report.lost_jobs, 0u);
    ASSERT_EQ(retried.results.size(), once.results.size());
    for (std::size_t i = 0; i < once.results.size(); ++i) {
      EXPECT_EQ(retried.results[i].payload, once.results[i].payload) << i;
      EXPECT_EQ(retried.results[i].tag, once.results[i].tag) << i;
      EXPECT_EQ(retried.results[i].complete_cycle, once.results[i].complete_cycle) << i;
    }
  }
}

TEST(EngineStepping, PumpCountsCompletionsAndStopsAtMaxRoundsAndIdle) {
  // FastDevice has no quiet-burst seam, so each round is one dispatch.
  Engine engine(fleet(Backend::kFast, 2));
  Rng rng(83);
  engine.provision_key(1, rng.bytes(16));
  Channel a = engine.open_channel(ChannelMode::kGcm, 1, 16, 12);
  Channel b = engine.open_channel(ChannelMode::kCcm, 1, 8, 13);

  std::uint64_t rounds = engine.rounds();
  EXPECT_EQ(engine.pump(100), 0u);
  EXPECT_EQ(engine.rounds(), rounds) << "an idle fleet dispatches no round";

  std::size_t fired = 0;
  for (int i = 0; i < 24; ++i) {
    Completion c = i % 2 ? engine.submit_encrypt(a, rng.bytes(12), {}, rng.bytes(512))
                         : engine.submit_encrypt(b, rng.bytes(13), {}, rng.bytes(512));
    c.on_done([&fired](const JobResult&) { ++fired; });
  }
  rounds = engine.rounds();
  std::size_t pumped = engine.pump(3);
  EXPECT_EQ(engine.rounds() - rounds, 3u) << "stops at max_rounds";
  EXPECT_EQ(pumped, fired) << "returns the jobs it completed";
  EXPECT_FALSE(engine.idle());

  rounds = engine.rounds();
  pumped += engine.pump(1'000'000);
  EXPECT_TRUE(engine.idle()) << "stops at idle()";
  EXPECT_LT(engine.rounds() - rounds, 1'000'000u);
  EXPECT_EQ(pumped, 24u);
  EXPECT_EQ(fired, 24u);
  EXPECT_EQ(engine.completed_jobs(), 24u);
}

TEST(EngineStepping, PumpingToIdleStampsLikeWaitAll) {
  for (Backend backend : kBackends) {
    auto run = [backend](bool pump) {
      Engine engine(fleet(backend, 2));
      Rng rng(89);
      engine.provision_key(1, rng.bytes(16));
      Channel a = engine.open_channel(ChannelMode::kGcm, 1, 16, 12);
      Channel b = engine.open_channel(ChannelMode::kCcm, 1, 8, 13);
      std::vector<Completion> jobs;
      for (int i = 0; i < 12; ++i) {
        const std::size_t len = 256 * static_cast<std::size_t>(1 + i % 4);
        jobs.push_back(engine.submit_encrypt(a, rng.bytes(12), rng.bytes(16), rng.bytes(len)));
        jobs.push_back(engine.submit_encrypt(b, rng.bytes(13), {}, rng.bytes(512)));
      }
      if (pump)
        while (!engine.idle()) engine.pump(32);
      else
        engine.wait_all();
      std::vector<JobResult> out;
      for (const Completion& c : jobs) out.push_back(c.result());
      return out;
    };
    const std::vector<JobResult> pumped = run(true), waited = run(false);
    ASSERT_EQ(pumped.size(), waited.size());
    for (std::size_t i = 0; i < pumped.size(); ++i) {
      EXPECT_EQ(pumped[i].submit_cycle, waited[i].submit_cycle) << name(backend) << " " << i;
      EXPECT_EQ(pumped[i].accept_cycle, waited[i].accept_cycle) << name(backend) << " " << i;
      EXPECT_EQ(pumped[i].complete_cycle, waited[i].complete_cycle) << name(backend) << " " << i;
      EXPECT_EQ(pumped[i].payload, waited[i].payload) << i;
      EXPECT_EQ(pumped[i].tag, waited[i].tag) << i;
    }
  }
}

}  // namespace
}  // namespace mccp::host
