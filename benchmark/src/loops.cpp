#include "loops.h"

#include <algorithm>
#include <deque>
#include <stdexcept>
#include <string>

#include "host/fast_device.h"
#include "host/sim_device.h"
#include "sim/simulation.h"

namespace mbench {

using namespace mccp;

std::vector<std::size_t> EngineFleet::placement() const {
  std::vector<std::size_t> out;
  for (const host::Channel& ch : channels) out.push_back(ch.device_index());
  return out;
}

EngineFleet open_fleet(const host::EngineConfig& cfg, const Workset& ws) {
  EngineFleet f;
  f.engine = std::make_unique<host::Engine>(cfg);
  for (const KeyDef& k : ws.keys) f.engine->provision_key(k.id, k.key);
  for (const ChannelDef& c : ws.channels) {
    host::Channel ch = f.engine->open_channel(c.mode, c.key, c.tag_len, c.nonce_len);
    if (!ch) throw std::runtime_error("open_channel failed (rr=" +
                                      std::to_string(f.engine->last_error()) + ")");
    f.channels.push_back(std::move(ch));
  }
  return f;
}

LoopStats engine_loop(EngineFleet& fleet, const Workset& ws, std::size_t window,
                      Tracer* tracer) {
  host::Engine& engine = *fleet.engine;
  const std::size_t n = ws.jobs.size();
  std::vector<host::Completion> handles(n);
  std::vector<std::int64_t> t_submit, t_done;  // traced runs only
  if (tracer) {
    t_submit.resize(n);
    t_done.resize(n);
  }

  std::size_t next = 0, oldest = 0, outstanding = 0;
  const sim::Cycle start_cycle = engine.max_cycle();
  const std::int64_t t0 = now_ns();
  {
    Tracer::Scope loop(tracer, "engine.loop");
    while (oldest < n) {
      if (outstanding < window && next < n) {
        Tracer::Scope span(tracer, "engine.submit");
        for (; outstanding < window && next < n; ++next, ++outstanding) {
          const Job& j = ws.jobs[next];
          const host::Channel& ch = fleet.channels[j.channel];
          if (tracer) t_submit[next] = now_ns();
          handles[next] =
              j.decrypt ? engine.submit_decrypt(ch, j.iv, j.aad, j.payload, j.tag, j.priority)
                        : engine.submit_encrypt(ch, j.iv, j.aad, j.payload, j.priority);
          if (tracer)
            handles[next].on_done([&outstanding, &t_done, i = next](const host::JobResult&) {
              --outstanding;
              t_done[i] = now_ns();
            });
          else
            handles[next].on_done([&outstanding](const host::JobResult&) { --outstanding; });
        }
      }
      while (oldest < next && handles[oldest].done()) ++oldest;
      if (oldest < next) {
        Tracer::Scope span(tracer, "engine.wait");
        handles[oldest].wait();
      }
    }
  }
  LoopStats s;
  s.seconds = static_cast<double>(now_ns() - t0) / 1e9;
  s.packets = n;
  s.makespan_cycles = engine.max_cycle() - start_cycle;
  s.reconfigurations = engine.reconfigurations();
  s.modeled_mbps = sim::throughput_mbps(ws.payload_bytes() * 8, s.makespan_cycles);

  std::vector<double> cycles;
  cycles.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const host::JobResult& r = handles[i].result();
    if (!matches(ws.jobs[i], r.auth_ok, r.payload, r.tag)) ++s.mismatches;
    s.rejections += r.rejections;
    cycles.push_back(static_cast<double>(r.complete_cycle - r.submit_cycle));
    if (tracer) tracer->packet(i, t_submit[i], t_done[i]);
  }
  s.modeled_p99_cycles = static_cast<std::uint64_t>(quantile(std::move(cycles), 0.99));
  return s;
}

DeviceFleet open_devices(const host::EngineConfig& cfg, const Workset& ws,
                         const std::vector<std::size_t>& placement) {
  DeviceFleet f;
  for (std::size_t i = 0; i < cfg.num_devices; ++i) {
    top::MccpConfig dc = cfg.device;
    if (i < cfg.slot_layouts.size() && !cfg.slot_layouts[i].empty())
      dc.slot_images = cfg.slot_layouts[i];
    if (cfg.backend == host::Backend::kFast)
      f.devices.push_back(std::make_unique<host::FastDevice>(dc));
    else
      f.devices.push_back(std::make_unique<host::SimDevice>(dc));
    for (const KeyDef& k : ws.keys) f.devices.back()->provision_key(k.id, k.key);
  }
  for (std::size_t c = 0; c < ws.channels.size(); ++c) {
    const ChannelDef& d = ws.channels[c];
    host::Device& dev = *f.devices.at(placement.at(c));
    auto info = dev.open_channel(d.mode, d.key, d.tag_len, d.nonce_len);
    if (!info) throw std::runtime_error("device open_channel failed");
    f.channel_device.push_back(placement[c]);
    f.channel_info.push_back(*info);
  }
  return f;
}

namespace {

void step_device(host::Device& dev) {
  if (!dev.supports_quiet_burst()) {
    dev.step();
    return;
  }
  const bool acted = dev.pump_round();
  const sim::Cycle q = acted ? 1 : std::max<sim::Cycle>(1, dev.quiet_horizon(1 << 20));
  dev.advance_quiet(q);
}

}  // namespace

double device_loop(DeviceFleet& fleet, const Workset& ws, std::size_t window) {
  const std::size_t n = ws.jobs.size();
  const std::size_t nd = fleet.devices.size();
  std::vector<std::deque<host::DeviceJobId>> inflight(nd);
  std::vector<std::uint64_t> seen(nd, 0);
  std::vector<std::vector<host::JobSpec>> batch(nd);
  std::size_t next = 0, outstanding = 0, done = 0;

  const std::int64_t t0 = now_ns();
  while (done < n) {
    for (; outstanding < window && next < n; ++next, ++outstanding) {
      const Job& j = ws.jobs[next];
      host::JobSpec spec;
      spec.channel = fleet.channel_info[j.channel];
      spec.decrypt = j.decrypt;
      spec.iv_or_nonce = j.iv;
      spec.aad = j.aad;
      spec.payload = j.payload;
      spec.tag = j.tag;
      spec.priority = j.priority;
      batch[fleet.channel_device[j.channel]].push_back(std::move(spec));
    }
    for (std::size_t d = 0; d < nd; ++d) {
      if (batch[d].empty()) continue;
      for (host::DeviceJobId id : fleet.devices[d]->submit_batch(batch[d]))
        inflight[d].push_back(id);
      batch[d].clear();
    }
    // Step until some device reports a completion, as Completion::wait()
    // steps the Engine, then collect every finished job.
    for (bool progressed = false; !progressed;) {
      for (std::size_t d = 0; d < nd; ++d) {
        if (inflight[d].empty()) continue;
        step_device(*fleet.devices[d]);
        progressed |= fleet.devices[d]->completions() != seen[d];
      }
    }
    for (std::size_t d = 0; d < nd; ++d) {
      host::Device& dev = *fleet.devices[d];
      const std::uint64_t c = dev.completions();
      // Finished jobs sit near the front (service is FIFO per priority), so
      // the scan stops as soon as it has found every new completion.
      for (auto it = inflight[d].begin(); seen[d] < c && it != inflight[d].end();) {
        const host::JobResult* r = dev.result(*it);
        if (r == nullptr || !r->complete) {
          ++it;
          continue;
        }
        dev.forget(*it);
        it = inflight[d].erase(it);
        ++seen[d];
        --outstanding;
        ++done;
      }
    }
  }
  return static_cast<double>(now_ns() - t0) / 1e9;
}

}  // namespace mbench
