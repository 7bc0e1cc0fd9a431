// host::Engine worker-pool stepping — the deterministic-replay harness.
//
// The threaded engine must be an observationally *identical* twin of the
// serial one: same per-job payloads/tags/cycle stamps on both backends,
// callbacks firing exactly once and on the caller's thread under heavy
// contention (8 workers x 16 devices x 10k jobs), and no lost or
// duplicated completions across randomized-seed repetitions. Plus direct
// coverage of the WorkerPool round primitive itself.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/hex.h"
#include "common/rng.h"
#include "host/engine.h"
#include "host/worker_pool.h"

namespace mccp::host {
namespace {

// ---- WorkerPool primitive ---------------------------------------------------

TEST(WorkerPool, RoundRunsEveryTaskExactlyOnce) {
  WorkerPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
  for (std::size_t tasks : {std::size_t{1}, std::size_t{3}, std::size_t{17}}) {
    std::vector<std::atomic<int>> hits(tasks);
    pool.run(tasks, [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < tasks; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
  }
  EXPECT_EQ(pool.rounds(), 3u);
}

TEST(WorkerPool, TaskToWorkerPinningIsStable) {
  // In a sharded round task i lands on thread i % size, thread 0 being the
  // caller: a device keeps its thread across sharded rounds. Tasks that
  // each sleep 2 ms make the measured work dwarf any handoff, so both
  // rounds shard.
  WorkerPool pool(2);
  constexpr std::size_t kTasks = 6;
  std::vector<std::thread::id> first(kTasks), second(kTasks);
  auto record = [](std::vector<std::thread::id>& ids) {
    return [&ids](std::size_t i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      ids[i] = std::this_thread::get_id();
    };
  };
  pool.run(kTasks, record(first));
  pool.run(kTasks, record(second));
  ASSERT_EQ(pool.sharded_rounds(), 2u);
  EXPECT_EQ(first[0], std::this_thread::get_id());  // the caller runs shard 0
  EXPECT_NE(first[1], first[0]);
  for (std::size_t i = 0; i < kTasks; ++i) {
    EXPECT_EQ(first[i], second[i]) << i;
    EXPECT_EQ(first[i], first[i % 2]) << i;  // sharded by i % size
  }
}

TEST(WorkerPool, RunReturnsOnlyAfterAllTasksFinish) {
  WorkerPool pool(4);
  std::atomic<int> done{0};
  pool.run(16, [&](std::size_t) { done.fetch_add(1); });
  EXPECT_EQ(done.load(), 16);  // barrier: nothing still running
  pool.run(0, [&](std::size_t) { done.fetch_add(1); });  // empty round is a no-op
  EXPECT_EQ(done.load(), 16);
  EXPECT_EQ(pool.rounds(), 1u);
}

TEST(WorkerPool, TaskExceptionRethrownOnCaller) {
  WorkerPool pool(2);
  EXPECT_THROW(pool.run(4,
                        [&](std::size_t i) {
                          if (i == 2) throw std::runtime_error("task 2 failed");
                        }),
               std::runtime_error);
  // The pool survives a throwing round.
  std::atomic<int> ok{0};
  pool.run(4, [&](std::size_t) { ok.fetch_add(1); });
  EXPECT_EQ(ok.load(), 4);
}

TEST(WorkerPool, EveryPathRunsEveryTaskThenRethrowsTheLowestIndex) {
  // Tasks 1 and 3 throw different types. Whether the round runs inline or
  // sharded (and on whichever shards the two land), every task runs and
  // task 1's exception reaches the caller.
  for (std::size_t size : {std::size_t{0}, std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    WorkerPool pool(size);
    // Round 0 of a threaded pool is a sharded probe; the later rounds run
    // inline (a throwing round records no timing, so no work is predicted).
    for (int round = 0; round < 4; ++round) {
      std::vector<std::atomic<int>> hits(6);
      try {
        pool.run(hits.size(), [&](std::size_t i) {
          hits[i].fetch_add(1);
          if (i == 1) throw std::runtime_error("task 1");
          if (i == 3) throw std::logic_error("task 3");
        });
        ADD_FAILURE() << "size " << size << ": the round did not throw";
      } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "task 1") << "size " << size;
      } catch (const std::logic_error&) {
        ADD_FAILURE() << "size " << size << ": task 3's exception won";
      }
      for (std::size_t i = 0; i < hits.size(); ++i)
        EXPECT_EQ(hits[i].load(), 1) << "size " << size << ", task " << i;
    }
    std::atomic<int> ok{0};
    pool.run(5, [&](std::size_t) { ok.fetch_add(1); });
    EXPECT_EQ(ok.load(), 5) << "size " << size;
  }
}

TEST(WorkerPool, TrivialRoundsOnACalibratedPoolRunOnTheCaller) {
  // Round r - 1 = 0, 256, 512 ... probes the handoff; between probes a round
  // whose work is a few stores is cheaper run inline than handed off.
  WorkerPool pool(4);
  std::vector<std::thread::id> ran(4);
  auto trivial = [&](std::size_t i) { ran[i] = std::this_thread::get_id(); };
  for (int r = 0; r < 513; ++r) pool.run(ran.size(), trivial);
  const std::uint64_t sharded = pool.sharded_rounds();
  EXPECT_GE(sharded, 3u);  // the three probes
  for (int r = 0; r < 200; ++r) {
    pool.run(ran.size(), trivial);
    for (std::size_t i = 0; i < ran.size(); ++i)
      ASSERT_EQ(ran[i], std::this_thread::get_id()) << "round " << 513 + r << ", task " << i;
  }
  EXPECT_EQ(pool.sharded_rounds(), sharded);
}

std::size_t live_threads() {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& entry : std::filesystem::directory_iterator("/proc/self/task"))
    ++n;
  return n;
}

TEST(WorkerPool, SizeOnePoolCreatesNoThread) {
  if (!std::filesystem::exists("/proc/self/task")) GTEST_SKIP() << "no /proc/self/task";
  const std::size_t before = live_threads();
  {
    WorkerPool one(1);
    EXPECT_EQ(one.size(), 1u);
    EXPECT_EQ(live_threads(), before);
    // However heavy the round, it stays on the caller.
    std::vector<std::thread::id> ran(3);
    one.run(ran.size(), [&](std::size_t i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      ran[i] = std::this_thread::get_id();
    });
    for (const std::thread::id& id : ran) EXPECT_EQ(id, std::this_thread::get_id());
    EXPECT_EQ(one.sharded_rounds(), 0u);
  }
  {
    WorkerPool four(4);
    EXPECT_EQ(live_threads(), before + 3);  // the caller is shard 0
  }
}

TEST(WorkerPool, DestroyingAParkedPoolJoinsPromptly) {
  auto pool = std::make_unique<WorkerPool>(4);
  pool->run(4, [](std::size_t) { std::this_thread::sleep_for(std::chrono::milliseconds(1)); });
  ASSERT_EQ(pool->sharded_rounds(), 1u);  // every worker ran, then parked
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const auto t0 = std::chrono::steady_clock::now();
  pool.reset();
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(1));
}

TEST(WorkerPool, StressMixesInlineAndShardedRounds) {
  // 100k rounds: blocks of heavy rounds (tens of microseconds of work per
  // task, worth sharding) among trivial ones. Every task writes a plain
  // slot the caller then reads, so a missing happens-before edge on either
  // path is a data race under TSan.
  WorkerPool pool(4);
  constexpr std::uint64_t kRounds = 100'000;
  std::vector<std::uint64_t> stamp(4), sink(4);
  for (std::uint64_t r = 0; r < kRounds; ++r) {
    const bool heavy = r % 256 >= 128 && r % 256 < 136;
    pool.run(stamp.size(), [&, r, heavy](std::size_t i) {
      std::uint64_t x = r * stamp.size() + i;
      for (int k = heavy ? 20'000 : 0; k > 0; --k)
        x = x * 6364136223846793005ull + 1442695040888963407ull;
      sink[i] += x;
      stamp[i] = r;
    });
    for (std::size_t i = 0; i < stamp.size(); ++i) ASSERT_EQ(stamp[i], r) << "task " << i;
  }
  EXPECT_EQ(pool.rounds(), kRounds);
  EXPECT_GT(pool.sharded_rounds(), 0u);
  EXPECT_LT(pool.sharded_rounds(), kRounds);
}

// ---- serial vs threaded bit-identity ----------------------------------------

/// Drive one mixed GCM/CCM/CTR workload and return every final JobResult,
/// in submission order.
std::vector<JobResult> run_mixed(Backend backend, std::size_t num_workers) {
  Engine engine({.num_devices = 3,
                 .device = {.num_cores = 2, .ccm_mapping = top::CcmMapping::kPairPreferred},
                 .backend = backend,
                 .num_workers = num_workers});
  EXPECT_EQ(engine.num_workers(), std::min<std::size_t>(num_workers, 3));
  Rng rng(4242);
  engine.provision_key(1, rng.bytes(16));

  std::vector<Channel> channels;
  channels.push_back(engine.open_channel(ChannelMode::kGcm, 1, 16, 12));
  channels.push_back(engine.open_channel(ChannelMode::kCcm, 1, 8, 13));
  channels.push_back(engine.open_channel(ChannelMode::kCtr, 1));
  for (const Channel& ch : channels) EXPECT_TRUE(ch.valid());

  std::vector<Completion> jobs;
  for (int i = 0; i < 18; ++i) {
    const Channel& ch = channels[static_cast<std::size_t>(i) % channels.size()];
    Bytes iv;
    switch (ch.mode()) {
      case ChannelMode::kGcm: iv = rng.bytes(12); break;
      case ChannelMode::kCcm: iv = rng.bytes(13); break;
      default:
        iv = rng.bytes(16);
        iv[14] = iv[15] = 0;
        break;
    }
    jobs.push_back(engine.submit_encrypt(ch, std::move(iv), rng.bytes(8),
                                         rng.bytes(64 + static_cast<std::size_t>(i) * 32)));
  }
  engine.wait_all();
  std::vector<JobResult> results;
  for (Completion& job : jobs) results.push_back(job.result());
  return results;
}

TEST(EngineThreading, ThreadedRunIsBitIdenticalToSerialOnBothBackends) {
  for (Backend backend : {Backend::kFast, Backend::kSim}) {
    std::vector<JobResult> serial = run_mixed(backend, 0);
    for (std::size_t workers : {std::size_t{1}, std::size_t{2}, std::size_t{3}}) {
      std::vector<JobResult> threaded = run_mixed(backend, workers);
      ASSERT_EQ(threaded.size(), serial.size());
      for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_TRUE(threaded[i].auth_ok) << i;
        EXPECT_EQ(to_hex(threaded[i].payload), to_hex(serial[i].payload)) << i;
        EXPECT_EQ(to_hex(threaded[i].tag), to_hex(serial[i].tag)) << i;
        // Device clocks are deterministic twins too, not just payloads.
        EXPECT_EQ(threaded[i].accept_cycle, serial[i].accept_cycle) << i;
        EXPECT_EQ(threaded[i].complete_cycle, serial[i].complete_cycle) << i;
        EXPECT_EQ(threaded[i].rejections, serial[i].rejections) << i;
      }
    }
  }
}

TEST(EngineThreading, ThreadedAdvanceToJumpsAndDrainsLikeSerial) {
  for (Backend backend : {Backend::kFast, Backend::kSim}) {
    Engine engine({.num_devices = 2,
                   .device = {.num_cores = 1},
                   .backend = backend,
                   .num_workers = 2});
    Rng rng(7);
    engine.provision_key(1, rng.bytes(16));
    engine.advance_to(5000);  // idle jump runs through the pool
    for (std::size_t d = 0; d < engine.num_devices(); ++d)
      EXPECT_GE(engine.device(d).now(), 5000u) << d;

    Channel ch = engine.open_channel(ChannelMode::kGcm, 1, 16, 12);
    Completion job = engine.submit_encrypt(ch, rng.bytes(12), {}, rng.bytes(256));
    engine.advance_to(engine.max_cycle() + 100'000);
    EXPECT_TRUE(job.done());
    EXPECT_TRUE(engine.idle());
  }
}

// ---- callback contention stress ---------------------------------------------

TEST(EngineThreading, CallbacksFireExactlyOnceUnderContention) {
  // 8 workers x 16 devices x 10k jobs. Every callback must run exactly
  // once, on the caller's thread, even while 8 pool threads are producing
  // completions into the queue concurrently.
  constexpr std::size_t kDevices = 16;
  constexpr std::size_t kJobs = 10'000;
  Engine engine({.num_devices = kDevices,
                 .device = {.num_cores = 4},
                 .backend = Backend::kFast,
                 .num_workers = 8});
  EXPECT_EQ(engine.num_workers(), 8u);
  Rng rng(1717);
  engine.provision_key(1, rng.bytes(16));

  std::vector<Channel> channels;
  for (std::size_t d = 0; d < kDevices; ++d) {
    channels.push_back(engine.open_channel(ChannelMode::kGcm, 1, 16, 12));
    ASSERT_TRUE(channels.back().valid()) << d;
  }

  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::atomic<std::uint32_t>> fired(kJobs);
  std::atomic<std::uint64_t> total{0};
  std::uint64_t plain_total = 0;  // non-atomic on purpose: TSan catches
                                  // any callback leaking off-thread

  std::size_t submitted = 0;
  while (submitted < kJobs) {
    for (std::size_t d = 0; d < kDevices && submitted < kJobs; ++d) {
      std::vector<JobSpec> batch;
      for (int b = 0; b < 25 && submitted < kJobs; ++b, ++submitted) {
        JobSpec spec;
        spec.iv_or_nonce = rng.bytes(12);
        spec.payload = rng.bytes(48);
        batch.push_back(std::move(spec));
      }
      std::size_t base = submitted - batch.size();
      std::vector<Completion> jobs = engine.submit_batch(channels[d], std::move(batch));
      for (std::size_t j = 0; j < jobs.size(); ++j) {
        std::size_t index = base + j;
        jobs[j].on_done([&, index](const JobResult& r) {
          EXPECT_TRUE(r.complete);
          EXPECT_EQ(std::this_thread::get_id(), caller);
          fired[index].fetch_add(1);
          total.fetch_add(1);
          ++plain_total;
        });
      }
    }
    engine.step();  // interleave submission with threaded rounds
  }
  engine.wait_all();

  EXPECT_EQ(total.load(), kJobs);
  EXPECT_EQ(plain_total, kJobs);
  for (std::size_t i = 0; i < kJobs; ++i)
    ASSERT_EQ(fired[i].load(), 1u) << "job " << i << " fired wrong number of times";
}

// ---- randomized replay sweep ------------------------------------------------

TEST(EngineThreading, NoLostOrDuplicatedCompletionsAcrossRandomizedSeeds) {
  // 100 repetitions with randomized fleet shape, worker count, job count
  // and payload sizes: every submitted job completes exactly once, and the
  // engine drains to idle every time.
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    Rng rng(seed * 0x9E3779B97F4A7C15ull);
    const std::size_t devices = 1 + rng.next_below(6);               // 1..6
    const std::size_t workers = 1 + rng.next_below(5);               // 1..5
    const std::size_t jobs = 40 + rng.next_below(160);               // 40..199
    Engine engine({.num_devices = devices,
                   .device = {.num_cores = 1 + rng.next_below(4)},
                   .backend = Backend::kFast,
                   .num_workers = workers});
    engine.provision_key(1, rng.bytes(16));

    std::vector<Channel> channels;
    for (std::size_t d = 0; d < devices; ++d)
      channels.push_back(engine.open_channel(ChannelMode::kGcm, 1, 16, 12));

    std::vector<std::uint32_t> fired(jobs, 0);
    std::size_t completed = 0;
    std::vector<Completion> tracked;
    for (std::size_t i = 0; i < jobs; ++i) {
      const Channel& ch = channels[rng.next_below(channels.size())];
      Completion job = engine.submit_encrypt(
          ch, rng.bytes(12), {}, rng.bytes(16 + rng.next_below(512)),
          /*priority=*/static_cast<unsigned>(rng.next_below(256)));
      job.on_done([&fired, &completed, i](const JobResult& r) {
        EXPECT_TRUE(r.complete);
        EXPECT_TRUE(r.auth_ok);
        ++fired[i];
        ++completed;
      });
      tracked.push_back(std::move(job));
      if (rng.next_below(4) == 0) engine.step();  // overlap submit/complete
    }
    engine.wait_all();

    EXPECT_EQ(completed, jobs) << "seed " << seed;
    for (std::size_t i = 0; i < jobs; ++i)
      ASSERT_EQ(fired[i], 1u) << "seed " << seed << " job " << i;
    for (Completion& job : tracked) EXPECT_TRUE(job.done());
    EXPECT_TRUE(engine.idle());
    EXPECT_EQ(engine.device_stats().inflight, 0u);
  }
}

TEST(EngineThreading, CallbackMayReenterEngineFromThreadedDrain) {
  // The serial engine allows on_done callbacks to re-enter (wait() on a
  // dependent job); the threaded drain must allow the same, dispatching
  // nested rounds while the outer drain batch is mid-flight.
  Engine engine({.num_devices = 2,
                 .device = {.num_cores = 2},
                 .backend = Backend::kFast,
                 .num_workers = 2});
  Rng rng(91);
  engine.provision_key(1, rng.bytes(16));
  Channel ch = engine.open_channel(ChannelMode::kGcm, 1, 16, 12);

  Completion a = engine.submit_encrypt(ch, rng.bytes(12), {}, rng.bytes(256));
  Completion b = engine.submit_encrypt(ch, rng.bytes(12), {}, rng.bytes(2048));
  bool chained = false;
  a.on_done([&](const JobResult&) {
    b.wait();  // nested threaded rounds from inside the completion path
    chained = true;
  });
  engine.wait_all();
  EXPECT_TRUE(chained);
  EXPECT_TRUE(a.done() && b.done());
}

TEST(EngineThreading, CompletionsDeliverInSubmissionOrderInBothModes) {
  // Two jobs on twin devices complete in the same step. Delivery must
  // follow engine-wide submission order (ascending JobId) in serial AND
  // threaded mode — not device-index order, not worker-race order — and a
  // callback must still see its unfired sibling counted as in flight.
  for (std::size_t workers : {std::size_t{0}, std::size_t{2}}) {
    Engine engine({.num_devices = 2,
                   .device = {.num_cores = 1},
                   .backend = Backend::kFast,
                   .num_workers = workers});
    Rng rng(23);
    engine.provision_key(1, rng.bytes(16));
    Channel dev0 = engine.open_channel(ChannelMode::kGcm, 1, 16, 12);
    Channel dev1 = engine.open_channel(ChannelMode::kGcm, 1, 16, 12);
    ASSERT_EQ(dev0.device_index(), 0u);
    ASSERT_EQ(dev1.device_index(), 1u);

    // Submit to device 1 FIRST: a device-major scan would deliver the
    // device-0 job before the earlier-submitted device-1 job.
    std::vector<JobId> order;
    bool sibling_counted = false;
    Completion first = engine.submit_encrypt(dev1, rng.bytes(12), {}, rng.bytes(512));
    Completion second = engine.submit_encrypt(dev0, rng.bytes(12), {}, rng.bytes(512));
    first.on_done([&](const JobResult&) {
      order.push_back(first.id());
      sibling_counted = !engine.idle();  // `second` unfired => still counted
    });
    second.on_done([&](const JobResult&) { order.push_back(second.id()); });
    engine.wait_all();

    ASSERT_EQ(order.size(), 2u) << workers;
    EXPECT_EQ(order[0], first.id()) << workers;
    EXPECT_EQ(order[1], second.id()) << workers;
    EXPECT_TRUE(sibling_counted) << workers;
    // Same step: both completed at the same modelled cycle.
    EXPECT_EQ(first.result().complete_cycle, second.result().complete_cycle) << workers;
  }
}

TEST(EngineThreading, CallbackMayWaitOnJobCompletedInTheSameRound) {
  // Regression: two equal jobs on two devices complete in the SAME round,
  // so both land in one drained batch. A's callback waiting on B must
  // still see B finish (nested drains work the rest of the batch) instead
  // of spinning to the wait() deadline — serial mode always allowed this.
  Engine engine({.num_devices = 2,
                 .device = {.num_cores = 1},
                 .backend = Backend::kFast,
                 .num_workers = 2});
  Rng rng(17);
  engine.provision_key(1, rng.bytes(16));
  Channel ca = engine.open_channel(ChannelMode::kGcm, 1, 16, 12);
  Channel cb = engine.open_channel(ChannelMode::kGcm, 1, 16, 12);
  ASSERT_NE(ca.device_index(), cb.device_index());

  // Identical payload sizes on twin devices: identical completion cycles.
  Completion a = engine.submit_encrypt(ca, rng.bytes(12), {}, rng.bytes(512));
  Completion b = engine.submit_encrypt(cb, rng.bytes(12), {}, rng.bytes(512));
  bool chained = false;
  a.on_done([&](const JobResult&) {
    b.wait(/*max_cycles=*/100'000);  // must not hit the deadline
    chained = true;
  });
  bool chained_back = false;
  b.on_done([&](const JobResult&) { chained_back = true; });
  engine.wait_all();
  EXPECT_TRUE(chained);
  EXPECT_TRUE(chained_back);  // B's own callback fired exactly once too
  EXPECT_TRUE(a.done() && b.done());
  EXPECT_EQ(a.result().complete_cycle, b.result().complete_cycle);  // same round
}

TEST(EngineThreading, NestedWaitKeepsSubmissionOrderInBothModes) {
  // Jobs 2 and 4 finish in one round; 2's callback waits on job 3, which
  // finishes in the nested round while 4 is still queued for delivery.
  // The nested batch must merge ahead of 4 (ascending JobId), not queue
  // behind it — in serial AND threaded mode.
  for (std::size_t workers : {std::size_t{0}, std::size_t{2}}) {
    Engine engine({.num_devices = 2,
                   .device = {.num_cores = 2},
                   .backend = Backend::kFast,
                   .num_workers = workers});
    Rng rng(5);
    engine.provision_key(1, rng.bytes(16));
    Channel c0 = engine.open_channel(ChannelMode::kGcm, 1, 16, 12);
    Channel c1 = engine.open_channel(ChannelMode::kGcm, 1, 16, 12);
    ASSERT_EQ(c0.device_index(), 0u);
    ASSERT_EQ(c1.device_index(), 1u);

    std::vector<JobId> order;
    Completion j1 = engine.submit_encrypt(c1, rng.bytes(12), {}, rng.bytes(64));
    Completion j2 = engine.submit_encrypt(c0, rng.bytes(12), {}, rng.bytes(256));
    Completion j3 = engine.submit_encrypt(c1, rng.bytes(12), {}, rng.bytes(4096));
    Completion j4 = engine.submit_encrypt(c0, rng.bytes(12), {}, rng.bytes(256));
    for (Completion* c : {&j1, &j2, &j3, &j4})
      c->on_done([&order, id = c->id()](const JobResult&) { order.push_back(id); });
    j2.on_done([&](const JobResult&) { j3.wait(); });
    engine.wait_all();

    EXPECT_EQ(order, (std::vector<JobId>{j1.id(), j2.id(), j3.id(), j4.id()})) << workers;
  }
}

}  // namespace
}  // namespace mccp::host
