// net_open_loop: the crypto-offload service over loopback TCP. A net::Server
// runs on its own thread; this thread generates the traffic through two
// net::Client connections. Each repetition has a closed-loop capacity
// phase (window 256) and an open-loop Poisson phase at a fixed rate, the
// only workload that measures requests as they arrive. Net framing,
// syscalls and the server loop dominate.
#include <cmath>
#include <limits>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>

#include "common/json.h"
#include "loops.h"
#include "net/client.h"
#include "net/server.h"
#include "workloads.h"

namespace mbench {

using namespace mccp;

namespace {

constexpr std::size_t kClients = 2;
constexpr std::size_t kWindow = 256;
constexpr std::size_t kCapacityPackets = 16384;
// Open-loop seconds per repetition. The latency percentiles pool every
// timed repetition's requests, so a run times arrivals for over half its
// seconds, while a fresh service per repetition keeps memory bounded.
constexpr double kOpenSeconds = 0.15;
constexpr double kLayerSeconds = 3.0;  // the per-layer phase --trace adds
constexpr std::uint64_t kJobIdBase = 1ull << 32;  // disjoint from control request ids
constexpr std::int64_t kPhaseTimeoutNs = 30'000'000'000;

// The service's fleet: two 4-core fast devices behind one server.
host::EngineConfig fleet_config() {
  host::EngineConfig cfg;
  cfg.num_devices = 2;
  cfg.device.num_cores = 4;
  cfg.backend = host::Backend::kFast;
  return cfg;
}

/// A loopback server on its own thread plus the connected clients, each
/// with every workset channel open. Destruction says GOODBYE, stops the
/// server and joins its thread.
class Service {
 public:
  explicit Service(const Workset& ws) {
    net::ServerConfig cfg;
    cfg.engine = fleet_config();
    server_ = std::make_unique<net::Server>(cfg);
    thread_ = std::thread([this] {
      try {
        server_->run();
      } catch (const std::exception& e) {
        std::lock_guard<std::mutex> lock(mu_);
        error_ = e.what();
      }
    });
    try {
      for (std::size_t c = 0; c < kClients; ++c) {
        net::ClientConfig cc;
        cc.port = server_->port();
        cc.name = "bench" + std::to_string(c);
        clients_.push_back(std::make_unique<net::Client>(cc));
        if (c == 0)
          for (const KeyDef& k : ws.keys) clients_[0]->provision_key(k.id, k.key);
        std::vector<std::uint32_t> ids;
        for (const ChannelDef& ch : ws.channels)
          ids.push_back(clients_[c]
                            ->open_channel(static_cast<std::uint8_t>(ch.mode),
                                           static_cast<std::uint8_t>(ch.key),
                                           static_cast<std::uint8_t>(ch.tag_len),
                                           static_cast<std::uint8_t>(ch.nonce_len))
                            .channel);
        channels_.push_back(std::move(ids));
      }
    } catch (...) {
      shutdown();
      throw;
    }
  }
  ~Service() { shutdown(); }
  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  net::Server& server() { return *server_; }
  net::Client& client(std::size_t c) { return *clients_[c]; }
  std::uint32_t channel(std::size_t client, std::uint32_t ch) const {
    return channels_[client][ch];
  }

  /// Throws if the server thread died.
  void check_alive() {
    std::lock_guard<std::mutex> lock(mu_);
    if (!error_.empty()) throw std::runtime_error("server thread failed: " + error_);
  }

 private:
  void shutdown() {
    clients_.clear();
    server_->stop();
    if (thread_.joinable()) thread_.join();
  }

  std::unique_ptr<net::Server> server_;
  std::mutex mu_;
  std::string error_;  // guarded by mu_
  std::thread thread_;
  std::vector<std::unique_ptr<net::Client>> clients_;
  std::vector<std::vector<std::uint32_t>> channels_;
};

/// Per-request outcome of one phase.
struct Tally {
  explicit Tally(std::size_t n) : done_ns(n, 0) {}
  std::vector<std::int64_t> done_ns;  // 0 = pending, -1 = wrong result
  std::uint64_t completed = 0;
  std::uint64_t mismatches = 0;
};

/// Client-call timing of the traced repetition (null tracer: untimed).
struct Probe {
  Tracer* tracer = nullptr;
  std::int64_t submit_ns = 0, poll_ns = 0;
};

void submit(Service& svc, const Workset& ws, std::size_t i, std::uint64_t id_base, Tally& tally,
            Probe& probe) {
  const Job& j = ws.jobs[i];
  const std::size_t c = i % kClients;
  net::SubmitJob sj;
  sj.job_id = id_base + i;
  sj.decrypt = j.decrypt;
  sj.iv = j.iv;
  sj.aad = j.aad;
  sj.payload = j.payload;
  sj.tag = j.tag;
  auto on_done = [&tally, &j, i](const net::CompletionFrame& f) {
    ++tally.completed;
    if (matches(j, f.auth_ok, f.payload, f.tag)) {
      tally.done_ns[i] = now_ns();
    } else {
      tally.done_ns[i] = -1;
      ++tally.mismatches;
    }
  };
  if (!probe.tracer) {
    svc.client(c).submit(svc.channel(c, j.channel), std::move(sj), std::move(on_done));
    return;
  }
  const std::int64_t t0 = now_ns();
  svc.client(c).submit(svc.channel(c, j.channel), std::move(sj), std::move(on_done));
  probe.submit_ns += now_ns() - t0;
}

void poll_all(Service& svc, Probe& probe) {
  const std::int64_t t0 = probe.tracer ? now_ns() : 0;
  for (std::size_t c = 0; c < kClients; ++c) svc.client(c).poll(0);
  if (probe.tracer) probe.poll_ns += now_ns() - t0;
}

/// Closed loop over both clients, `kWindow` requests in flight. Returns
/// the phase's host seconds.
double capacity_phase(Service& svc, const Workset& ws, Tally& tally, Probe& probe) {
  const std::size_t n = kCapacityPackets;
  std::size_t next = 0;
  const std::int64_t t0 = now_ns();
  while (tally.completed < n) {
    for (; next < n && next - tally.completed < kWindow; ++next)
      submit(svc, ws, next, kJobIdBase, tally, probe);
    poll_all(svc, probe);
    if (now_ns() - t0 > kPhaseTimeoutNs) {
      svc.check_alive();
      throw std::runtime_error("capacity phase timed out");
    }
  }
  return static_cast<double>(now_ns() - t0) / 1e9;
}

struct OpenLoop {
  std::int64_t start_ns = 0;       // request i is due at start_ns + schedule[i]
  std::vector<double> latency_us;  // from the scheduled send time; +inf = failed
  std::vector<double> late_us;     // how late the generator sent each request
};

/// Send request i at `start + schedule[i]` whatever the backlog, then
/// drain. A request that never completes or returns a wrong result counts
/// as infinitely late.
OpenLoop open_phase(Service& svc, const Workset& ws, const std::vector<std::int64_t>& schedule,
                    Tally& tally, Probe& probe) {
  const std::size_t n = schedule.size();
  OpenLoop out;
  out.late_us.reserve(n);
  const std::int64_t start = now_ns() + 1'000'000;
  out.start_ns = start;
  std::size_t next = 0;
  while (next < n) {
    const std::int64_t now = now_ns();
    for (; next < n && start + schedule[next] <= now; ++next) {
      out.late_us.push_back(static_cast<double>(now - start - schedule[next]) / 1e3);
      submit(svc, ws, next, kJobIdBase * 2, tally, probe);
    }
    poll_all(svc, probe);
  }
  const std::int64_t deadline = now_ns() + 5'000'000'000;
  while (tally.completed < n && now_ns() < deadline) poll_all(svc, probe);
  svc.check_alive();
  out.latency_us.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    out.latency_us.push_back(tally.done_ns[i] > 0
                                 ? static_cast<double>(tally.done_ns[i] - start - schedule[i]) / 1e3
                                 : std::numeric_limits<double>::infinity());
  return out;
}

/// The capacity stream as one in-process workset: each client's channels
/// become channels of their own, so host::Engine sees the same channel
/// layout and job order the server does.
Workset inproc_workset(const Workset& ws) {
  Workset w;
  w.keys = ws.keys;
  for (std::size_t c = 0; c < kClients; ++c)
    w.channels.insert(w.channels.end(), ws.channels.begin(), ws.channels.end());
  w.jobs.assign(ws.jobs.begin(), ws.jobs.begin() + kCapacityPackets);
  for (std::size_t i = 0; i < w.jobs.size(); ++i)
    w.jobs[i].channel += static_cast<std::uint32_t>((i % kClients) * ws.channels.size());
  return w;
}

}  // namespace

void run_net_open_loop(const Options& o, Results& res, Tracer& tracer) {
  // The open-loop offered load, recorded in the workload file with the p99
  // limit a build must meet at it (run.py checks the limit). The rate was
  // fixed once, at about half the capacity measured when the benchmark was
  // defined, and is never derived from the running build, so a slower build
  // faces the same load.
  const json::Value file = json::parse_file(o.workloads_dir + "/net_open_loop.json");
  const json::Value* open_loop = file.find("open_loop");
  const double rate = open_loop ? open_loop->number_or("rate_per_s", 0) : 0;
  if (!(rate > 0)) throw std::runtime_error("net_open_loop.json: open_loop needs rate_per_s");

  Draws d(4, o.seed);
  std::vector<std::int64_t> schedule;
  for (double t = 0;;) {
    t += -std::log(1.0 - d.shape.next_double()) / rate;
    if (t > kOpenSeconds) break;
    schedule.push_back(static_cast<std::int64_t>(t * 1e9));
  }

  Workset ws;
  ws.keys = {{1, d.content.bytes(16)}, {2, d.content.bytes(16)}};
  ws.channels = {{ChannelMode::kGcm, 1, 16, 12}, {ChannelMode::kGcm, 2, 16, 12}};
  {
    const Reference ref(ws);
    const std::size_t count = std::max(kCapacityPackets, schedule.size());
    std::vector<std::size_t> seals;
    for (std::size_t i = 0; i < count; ++i) {
      if (!seals.empty() && i % 4 == 3) {
        const Job& sealed = ws.jobs[seals[d.shape.next_below(seals.size())]];
        Job open = open_of(ws, sealed, false, d.content);
        expect(ref, open);
        ws.jobs.push_back(std::move(open));
        continue;
      }
      Job j;
      j.channel = static_cast<std::uint32_t>(d.shape.next_below(ws.channels.size()));
      j.iv = make_iv(d.content, ws.channels[j.channel]);
      j.payload = d.content.bytes(draw_len(d.shape, 64, 1500));
      expect(ref, j);
      seals.push_back(ws.jobs.size());
      ws.jobs.push_back(std::move(j));
    }
  }

  const double requests_per_rep = static_cast<double>(kCapacityPackets + schedule.size());
  struct RepFigures {
    double setup_s, pps, frames_per_req, ctx_per_req;
    std::int64_t minor_faults;
    OpenLoop open;
  };
  // One repetition: a fresh service (set-up), the capacity phase, then the
  // open-loop phase, every result checked.
  auto rep = [&](Tracer* t, Probe& probe) {
    const std::int64_t t0 = now_ns();
    Service svc(ws);
    RepFigures f{};
    f.setup_s = static_cast<double>(now_ns() - t0) / 1e9;
    const Usage before = usage_now();
    const std::uint64_t frames0 = svc.server().frames_received();
    Tally cap(kCapacityPackets), open(schedule.size());
    {
      Tracer::Scope span(t, "net.capacity");
      f.pps = static_cast<double>(kCapacityPackets) / capacity_phase(svc, ws, cap, probe);
    }
    {
      Tracer::Scope span(t, "net.open_loop");
      f.open = open_phase(svc, ws, schedule, open, probe);
    }
    const Usage after = usage_now();
    res.checks(kCapacityPackets, cap.mismatches, "capacity phase results vs crypto references");
    res.checks(schedule.size(), open.mismatches + (schedule.size() - open.completed),
               "open-loop results vs crypto references (incomplete counts as failed)");
    if (t)
      for (std::size_t i = 0; i < schedule.size(); ++i)
        if (open.done_ns[i] > 0) t->packet(i, f.open.start_ns + schedule[i], open.done_ns[i]);
    f.frames_per_req =
        static_cast<double>(svc.server().frames_received() - frames0) / requests_per_rep;
    f.ctx_per_req =
        static_cast<double>(after.ctx_switches - before.ctx_switches) / requests_per_rep;
    f.minor_faults = after.minor_faults - before.minor_faults;
    return f;
  };
  std::vector<double> setup_s, pps, latency_us, late_us, frames, ctx;
  std::int64_t faults = 0;
  repeat(o.seconds, [&](bool timed) {
    Probe untraced;
    const RepFigures f = rep(nullptr, untraced);
    if (!timed) return;
    setup_s.push_back(f.setup_s);
    pps.push_back(f.pps);
    latency_us.insert(latency_us.end(), f.open.latency_us.begin(), f.open.latency_us.end());
    late_us.insert(late_us.end(), f.open.late_us.begin(), f.open.late_us.end());
    frames.push_back(f.frames_per_req);
    ctx.push_back(f.ctx_per_req);
    faults += f.minor_faults;
  });

  // Modelled figures: the capacity stream in process, same fleet and window
  // (the networked run's device clocks depend on socket timing).
  const Workset inproc = inproc_workset(ws);
  std::optional<LoopStats> model;
  auto run_inproc = [&] {
    EngineFleet f = open_fleet(fleet_config(), inproc);
    const LoopStats s = engine_loop(f, inproc, kWindow, nullptr);
    res.checks(s.packets, s.mismatches, "in-process replay vs crypto references");
    if (model)
      res.check(s.makespan_cycles == model->makespan_cycles &&
                    s.modeled_p99_cycles == model->modeled_p99_cycles,
                "modelled figures repeat across repetitions");
    else
      model = s;
    return s.seconds;
  };
  run_inproc();

  res.metric("setup_s", median(setup_s), "s", "e2e", setup_s.size());
  res.metric("pkts_per_s", fastest_rate(pps), "1/s", "e2e", pps.size());
  res.metric("req_p50_us", quantile(latency_us, 0.50), "us", "e2e", latency_us.size());
  res.metric("req_p99_us", quantile(latency_us, 0.99), "us", "e2e", latency_us.size());
  res.series("setup_s", setup_s);
  res.series("pkts_per_s", pps);
  res.metric("modeled_mbps", model->modeled_mbps, "Mbps", "e2e", 1);
  res.metric("modeled_p99_cycles", static_cast<double>(model->modeled_p99_cycles), "cycles",
             "e2e", inproc.jobs.size());
  res.metric("peak_rss_mb", usage_now().max_rss_mb, "MB", "e2e");
  res.metric("net.gen_late_p99_us", quantile(late_us, 0.99), "us", "net", late_us.size());
  res.count("requests_per_rep", kCapacityPackets + schedule.size());
  res.count("modeled_makespan_cycles", model->makespan_cycles);
  res.count("modeled_p99_cycles", model->modeled_p99_cycles);
  res.count("busy_rejections", model->rejections);
  if (!o.trace) return;

  res.metric("net.server_frames_per_req", median(frames), "frames/req", "net");
  res.metric("net.ctx_switches_per_req", median(ctx), "1/req", "net");
  const double timed_requests = requests_per_rep * static_cast<double>(pps.size());
  res.metric("host.minor_faults_per_kpkt", static_cast<double>(faults) * 1000.0 / timed_requests,
             "faults/kpkt", "host");

  // Framing replay input: every capacity request as a SUBMIT frame and its
  // expected answer as a COMPLETION frame.
  std::vector<net::Frame> wire;
  for (std::size_t i = 0; i < kCapacityPackets; ++i) {
    const Job& j = ws.jobs[i];
    net::SubmitFrame s;
    s.channel = j.channel + 1;
    s.job = {kJobIdBase + i, j.decrypt, 128, j.iv, j.aad, j.payload, j.tag};
    wire.emplace_back(std::move(s));
    net::CompletionFrame c;
    c.job_id = kJobIdBase + i;
    c.auth_ok = j.want_ok;
    c.payload = j.want_payload;
    c.tag = j.want_tag;
    wire.emplace_back(std::move(c));
  }
  // One pass through encode_frame/decode_frame alone, into a buffer reused
  // across passes as the client reuses its own.
  std::vector<std::uint8_t> buf;
  std::vector<double> enc_s, dec_s;
  auto framing_pass = [&] {
    buf.clear();
    std::int64_t t0 = now_ns();
    for (const net::Frame& f : wire) net::encode_frame(f, buf);
    enc_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    std::size_t decoded = 0, off = 0;
    t0 = now_ns();
    while (off < buf.size()) {
      const net::Decoded frame =
          net::decode_frame(std::span<const std::uint8_t>(buf).subspan(off));
      if (frame.status != net::DecodeStatus::kFrame) break;
      off += frame.consumed;
      ++decoded;
    }
    dec_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    return decoded;
  };
  res.check(framing_pass() == wire.size(), "framing replay decodes every frame");

  // Per-layer phase: an untraced and a traced repetition, the in-process
  // and bare-device replays, a framing pass and a crypto pass take turns,
  // so a shared host's slow spells fall on all of them alike; each figure
  // is the fastest of its kind.
  const std::vector<std::size_t> placement = open_fleet(fleet_config(), inproc).placement();
  CryptoReplay crypto(inproc, res);
  Probe probe{&tracer};
  std::vector<double> plain_pps, traced_pps, inproc_s, device_s;
  repeat(kLayerSeconds, [&](bool timed) {
    Tracer* t = timed ? &tracer : nullptr;
    Probe untraced;
    const double plain = rep(nullptr, untraced).pps;
    const double traced = rep(t, timed ? probe : untraced).pps;
    double inproc_secs = 0, device_secs = 0;
    {
      Tracer::Scope span(t, "replay.inproc");
      inproc_secs = run_inproc();
    }
    {
      Tracer::Scope span(t, "replay.device");
      DeviceFleet d = open_devices(fleet_config(), inproc, placement);
      device_secs = device_loop(d, inproc, kWindow);
    }
    {
      Tracer::Scope span(t, "replay.framing");
      framing_pass();
    }
    {
      Tracer::Scope span(t, "replay.crypto");
      crypto.pass();
    }
    if (!timed) return;
    plain_pps.push_back(plain);
    traced_pps.push_back(traced);
    inproc_s.push_back(inproc_secs);
    device_s.push_back(device_secs);
  }, 3);

  const double host_ns = 1e9 / fastest_rate(plain_pps);
  const double traced_requests = requests_per_rep * static_cast<double>(traced_pps.size());
  res.metric("bench.trace_overhead", 1 - fastest_rate(traced_pps) / fastest_rate(plain_pps),
             "ratio", "bench");
  res.metric("net.client_submit_ns", static_cast<double>(probe.submit_ns) / traced_requests, "ns",
             "net");
  res.metric("net.client_poll_ns_per_completion",
             static_cast<double>(probe.poll_ns) / traced_requests, "ns", "net");
  const double frames_n = static_cast<double>(wire.size());
  res.metric("net.encode_ns_per_frame", fastest_time(enc_s) * 1e9 / frames_n, "ns", "net");
  res.metric("net.decode_ns_per_frame", fastest_time(dec_s) * 1e9 / frames_n, "ns", "net");
  const double n = static_cast<double>(inproc.jobs.size());
  const double inproc_ns = fastest_time(inproc_s) * 1e9 / n;
  const double device_ns = fastest_time(device_s) * 1e9 / n;
  res.metric("net.inproc_ratio", inproc_ns / host_ns, "ratio", "net");
  res.metric("host.ns_per_pkt", inproc_ns, "ns", "host");
  res.metric("host.device_ns_per_pkt", device_ns, "ns", "host");
  res.metric("host.engine_ns_per_pkt", inproc_ns - device_ns, "ns", "host");
  res.metric("host.busy_rejections_per_pkt", static_cast<double>(model->rejections) / n, "1/pkt",
             "host");
  res.metric("host.reconfigurations", static_cast<double>(model->reconfigurations), "count",
             "host");
  crypto.report(res, host_ns);
}

}  // namespace mbench
