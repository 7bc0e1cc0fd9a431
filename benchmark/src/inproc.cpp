// The three in-process closed-loop workloads: sim_gcm_2k, fast_fleet_small
// and fast_bulk_verify. They share run_inproc and differ in
// fleet shape, window and job mix.
#include <algorithm>
#include <functional>
#include <optional>
#include <stdexcept>

#include "core/single_core_harness.h"
#include "loops.h"
#include "workloads.h"

namespace mbench {

using namespace mccp;

namespace {

// Length of the per-layer phase that --trace adds.
constexpr double kLayerSeconds = 3.0;

struct InprocSpec {
  host::EngineConfig fleet;
  std::size_t window = 0;
};

bool same_model(const LoopStats& a, const LoopStats& b) {
  return a.makespan_cycles == b.makespan_cycles && a.modeled_p99_cycles == b.modeled_p99_cycles &&
         a.rejections == b.rejections && a.reconfigurations == b.reconfigurations;
}

/// Warm-up plus timed repetitions of the whole workset, each through a
/// freshly built fleet (so every repetition also samples set-up time), then
/// — when tracing — the per-layer phase; `extra_round` adds a workload's
/// own replay to each of its rounds.
void run_inproc(const Options& o, const InprocSpec& spec, const Workset& ws, Results& res,
                Tracer& tracer, const std::function<void(Tracer*)>& extra_round = {}) {
  std::vector<double> setup_s, pps;
  std::optional<LoopStats> first;
  std::vector<std::size_t> placement;
  std::int64_t faults = 0;
  std::uint64_t timed_packets = 0;
  repeat(o.seconds, [&](bool timed) {
    const std::int64_t t0 = now_ns();
    EngineFleet f = open_fleet(spec.fleet, ws);
    const double setup = static_cast<double>(now_ns() - t0) / 1e9;
    const Usage before = usage_now();
    const LoopStats s = engine_loop(f, ws, spec.window, nullptr);
    const Usage after = usage_now();
    res.checks(s.packets, s.mismatches, "device results vs crypto references");
    if (!first) {
      first = s;
      placement = f.placement();
    } else {
      res.check(same_model(*first, s), "modelled figures repeat across repetitions");
    }
    if (!timed) return;
    setup_s.push_back(setup);
    pps.push_back(static_cast<double>(s.packets) / s.seconds);
    faults += after.minor_faults - before.minor_faults;
    timed_packets += s.packets;
  });

  const double n = static_cast<double>(ws.jobs.size());
  res.metric("setup_s", median(setup_s), "s", "e2e", setup_s.size());
  res.metric("pkts_per_s", fastest_rate(pps), "1/s", "e2e", pps.size());
  res.series("setup_s", setup_s);
  res.series("pkts_per_s", pps);
  res.metric("modeled_mbps", first->modeled_mbps, "Mbps", "e2e", 1);
  res.metric("modeled_p99_cycles", static_cast<double>(first->modeled_p99_cycles), "cycles", "e2e",
             ws.jobs.size());
  res.metric("peak_rss_mb", usage_now().max_rss_mb, "MB", "e2e");
  res.count("packets_per_rep", ws.jobs.size());
  res.count("modeled_makespan_cycles", first->makespan_cycles);
  res.count("modeled_p99_cycles", first->modeled_p99_cycles);
  res.count("busy_rejections", first->rejections);
  res.count("reconfigurations", first->reconfigurations);
  if (!o.trace) return;

  // Per-layer phase: an untraced and a traced repetition, the bare-device
  // replay and a crypto pass take turns, so a shared host's slow spells
  // fall on all of them alike; each figure is the fastest of its kind.
  CryptoReplay crypto(ws, res);
  std::vector<double> plain_pps, traced_pps, device_s;
  repeat(kLayerSeconds, [&](bool timed) {
    Tracer* t = timed ? &tracer : nullptr;
    {
      EngineFleet f = open_fleet(spec.fleet, ws);
      const LoopStats s = engine_loop(f, ws, spec.window, nullptr);
      if (timed) plain_pps.push_back(n / s.seconds);
    }
    {
      EngineFleet f = open_fleet(spec.fleet, ws);
      const LoopStats s = engine_loop(f, ws, spec.window, t);
      res.checks(s.packets, s.mismatches, "traced repetition vs crypto references");
      if (timed) traced_pps.push_back(n / s.seconds);
    }
    {
      Tracer::Scope span(t, "replay.device");
      DeviceFleet d = open_devices(spec.fleet, ws, placement);
      const double s = device_loop(d, ws, spec.window);
      if (timed) device_s.push_back(s);
    }
    {
      Tracer::Scope span(t, "replay.crypto");
      crypto.pass();
    }
    if (extra_round) extra_round(t);
  }, 3);

  const double host_ns = 1e9 / fastest_rate(plain_pps);
  const double traced_n = n * static_cast<double>(traced_pps.size());
  res.metric("bench.trace_overhead", 1 - fastest_rate(traced_pps) / fastest_rate(plain_pps),
             "ratio", "bench");
  res.metric("host.submit_ns_per_pkt",
             static_cast<double>(tracer.totals("engine.submit").total_ns) / traced_n, "ns", "host");
  res.metric("host.wait_ns_per_pkt",
             static_cast<double>(tracer.totals("engine.wait").total_ns) / traced_n, "ns", "host");
  res.metric("host.loop_ns_per_pkt",
             static_cast<double>(tracer.totals("engine.loop").self_ns) / traced_n, "ns", "host");
  const double device_ns = fastest_time(device_s) * 1e9 / n;
  res.metric("host.ns_per_pkt", host_ns, "ns", "host");
  res.metric("host.device_ns_per_pkt", device_ns, "ns", "host");
  res.metric("host.engine_ns_per_pkt", host_ns - device_ns, "ns", "host");
  res.metric("host.minor_faults_per_kpkt",
             static_cast<double>(faults) * 1000.0 / static_cast<double>(timed_packets),
             "faults/kpkt", "host");
  res.metric("host.busy_rejections_per_pkt", static_cast<double>(first->rejections) / n, "1/pkt",
             "host");
  res.metric("host.reconfigurations", static_cast<double>(first->reconfigurations), "count",
             "host");
  crypto.report(res, host_ns);
}

/// At least `count` jobs and `min_bytes` of payload: `opens_per_4` of every
/// four jobs open a random earlier seal (the first job is always a seal),
/// the rest are seals from `make_seal`. One in `tamper_one_in` opens of an
/// authenticated mode carries a flipped tag bit and must fail.
template <typename MakeSeal>
void fill_jobs(Workset& ws, Draws& d, std::size_t count, std::uint64_t min_bytes,
               std::uint64_t opens_per_4, std::uint64_t tamper_one_in, MakeSeal make_seal) {
  const Reference ref(ws);
  std::vector<std::size_t> seals;
  std::uint64_t bytes = 0;
  for (std::size_t i = 0; i < count || bytes < min_bytes; ++i) {
    if (!seals.empty() && i % 4 < opens_per_4) {
      const Job& sealed = ws.jobs[seals[d.shape.next_below(seals.size())]];
      const bool tamper = ws.channels[sealed.channel].mode != ChannelMode::kCtr &&
                          d.shape.next_below(tamper_one_in) == 0;
      Job o = open_of(ws, sealed, tamper, d.content);
      expect(ref, o);
      if (o.want_ok == tamper)
        throw std::logic_error("reference disagrees with the tamper flag");
      bytes += o.payload.size();
      ws.jobs.push_back(std::move(o));
      continue;
    }
    Job j = make_seal(d.shape, d.content);
    expect(ref, j);
    seals.push_back(ws.jobs.size());
    bytes += j.payload.size();
    ws.jobs.push_back(std::move(j));
  }
}

}  // namespace

// The paper's headline configuration: one cycle-accurate 4-core MCCP,
// 2 KB AES-128-GCM seals. The simulator does nearly all the work; the
// modelled figures anchor the reproduction (~1.7 Gbps in the paper).
void run_sim_gcm_2k(const Options& o, Results& res, Tracer& tracer) {
  constexpr std::size_t kPackets = 400;
  constexpr std::size_t kPayload = 2048;
  Draws d(1, o.seed);
  Workset ws;
  ws.keys = {{1, d.content.bytes(16)}};
  ws.channels = {{ChannelMode::kGcm, 1, 16, 12}};
  fill_jobs(ws, d, kPackets, 0, 0, 1, [&](Rng&, Rng& content) {
    Job j;
    j.iv = make_iv(content, ws.channels[0]);
    j.payload = content.bytes(kPayload);
    return j;
  });

  InprocSpec spec;
  spec.fleet.num_devices = 1;
  spec.fleet.device.num_cores = 4;
  spec.fleet.backend = host::Backend::kSim;
  spec.window = 16;
  if (!o.trace) {
    run_inproc(o, spec, ws, res, tracer);
    return;
  }
  // Core layer: the first jobs through one isolated simulated core, one
  // pass per per-layer round.
  const std::size_t k = std::min<std::size_t>(16, ws.jobs.size());
  std::vector<core::CoreJob> jobs;
  for (std::size_t i = 0; i < k; ++i)
    jobs.push_back(
        core::format_gcm_encrypt(ws.jobs[i].iv, ws.jobs[i].aad, ws.jobs[i].payload, 16));
  core::SingleCoreHarness harness(ws.keys[0].key);
  std::vector<double> pass_s, mcycles, minstr;
  std::uint64_t cycles_per_job = 0;
  auto core_pass = [&](Tracer* t) {
    Tracer::Scope span(t, "replay.core");
    const std::uint64_t instr0 = harness.core().controller().instructions_retired();
    const sim::Cycle cycle0 = harness.sim().now();
    std::uint64_t job_cycles = 0;
    const std::int64_t t0 = now_ns();
    for (std::size_t i = 0; i < k; ++i) {
      core::SingleCoreRun run = harness.run(jobs[i]);
      job_cycles += run.cycles;
      if (pass_s.empty()) {
        const core::ParsedOutput out = core::parse_sealed_output(run.output, kPayload, 16);
        res.check(run.result == core::CoreResult::kOk &&
                      matches(ws.jobs[i], true, out.payload, out.tag),
                  "single-core replay vs crypto references");
      }
    }
    const double s = static_cast<double>(now_ns() - t0) / 1e9;
    pass_s.push_back(s);
    mcycles.push_back(static_cast<double>(harness.sim().now() - cycle0) / s / 1e6);
    const std::uint64_t instr = harness.core().controller().instructions_retired() - instr0;
    minstr.push_back(static_cast<double>(instr) / s / 1e6);
    cycles_per_job = job_cycles / k;
  };
  run_inproc(o, spec, ws, res, tracer, core_pass);
  res.metric("core.ns_per_job", fastest_time(pass_s) * 1e9 / static_cast<double>(k), "ns",
             "core");
  res.metric("core.mcycles_per_s", fastest_rate(mcycles), "Mcycles/s", "core");
  res.metric("core.pb_minstr_per_s", fastest_rate(minstr), "Minstr/s", "core");
  res.metric("core.cycles_per_job", static_cast<double>(cycles_per_job), "cycles", "core");
}

// A deep backlog over many small channels: Engine placement and completion
// polling plus the FastDevice scheduler and slot store do most of the work,
// crypto little. Window 1024 is the server's default per-session budget.
void run_fast_fleet_small(const Options& o, Results& res, Tracer& tracer) {
  constexpr std::size_t kPackets = 16384;
  constexpr ChannelMode kModes[] = {ChannelMode::kGcm, ChannelMode::kCcm, ChannelMode::kCtr,
                                    ChannelMode::kCbcMac};
  Draws d(2, o.seed);
  Workset ws;
  for (std::uint8_t k = 1; k <= 16; ++k)
    ws.keys.push_back({k, d.content.bytes(16 + 8 * static_cast<std::size_t>(k % 3))});
  for (std::uint8_t c = 0; c < 32; ++c) {
    const ChannelMode mode = kModes[c % 4];
    ws.channels.push_back({mode, static_cast<top::KeyId>(c % 16 + 1),
                           mode == ChannelMode::kCcm ? 8u : 16u,
                           mode == ChannelMode::kCcm ? 13u : 12u});
  }
  fill_jobs(ws, d, kPackets, 0, 1, 16, [&](Rng& shape, Rng& content) {
    Job j;
    j.channel = static_cast<std::uint32_t>(shape.next_below(ws.channels.size()));
    const ChannelDef& ch = ws.channels[j.channel];
    j.iv = make_iv(content, ch);
    if (ch.mode == ChannelMode::kGcm || ch.mode == ChannelMode::kCcm)
      j.aad = content.bytes(shape.next_below(33));
    j.payload = content.bytes(draw_len(shape, 64, 512));
    return j;
  });

  InprocSpec spec;
  spec.fleet.num_devices = 8;
  spec.fleet.device.num_cores = 4;
  spec.fleet.backend = host::Backend::kFast;
  spec.window = 1024;
  run_inproc(o, spec, ws, res, tracer);
}

// Large authenticated packets over a shallow queue: the crypto kernels
// dominate and the backlog costs of fast_fleet_small are bypassed. The
// 32 MiB input pool is larger than the last-level cache, and the opens
// (decrypt, verify, auth-failure path) use the kernels differently from
// the seals.
void run_fast_bulk_verify(const Options& o, Results& res, Tracer& tracer) {
  constexpr std::uint64_t kPoolBytes = 32ull << 20;
  Draws d(3, o.seed);
  Workset ws;
  ws.keys = {{1, d.content.bytes(16)}, {2, d.content.bytes(16)}};
  ws.channels = {{ChannelMode::kGcm, 1, 16, 12},
                 {ChannelMode::kCcm, 1, 16, 13},
                 {ChannelMode::kGcm, 2, 16, 12},
                 {ChannelMode::kCcm, 2, 16, 13}};
  fill_jobs(ws, d, 0, kPoolBytes, 2, 8, [&](Rng& shape, Rng& content) {
    Job j;
    j.channel = static_cast<std::uint32_t>(shape.next_below(ws.channels.size()));
    j.iv = make_iv(content, ws.channels[j.channel]);
    j.aad = content.bytes(16);
    j.payload = content.bytes(draw_len(shape, 2048, 16384));
    return j;
  });
  res.count("pool_bytes", ws.payload_bytes());

  InprocSpec spec;
  spec.fleet.num_devices = 2;
  spec.fleet.device.num_cores = 4;
  spec.fleet.backend = host::Backend::kFast;
  spec.window = 16;
  run_inproc(o, spec, ws, res, tracer);
}

}  // namespace mbench
