#include "net/swarm.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <memory>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "net/client.h"
#include "workload/jobgen.h"
#include "workload/tenantplan.h"

namespace mccp::net {

using workload::ClassJobStream;
using workload::ClassReport;
using workload::GeneratedJob;
using workload::ScenarioReport;

namespace {

/// Fleet-wide admission window shared by every worker thread: the remote
/// twin of the runner's `inflight` counter.
struct Window {
  explicit Window(std::size_t cap) : cap_(cap) {}

  bool try_acquire() {
    std::size_t cur = inflight_.load();
    while (cur < cap_) {
      if (inflight_.compare_exchange_weak(cur, cur + 1)) {
        bump_peak(cur + 1);
        return true;
      }
    }
    return false;
  }
  /// Verify round-trips share the budget but never block (the runner
  /// resubmits from a completion callback unconditionally).
  void acquire_over() { bump_peak(inflight_.fetch_add(1) + 1); }
  void release() { inflight_.fetch_sub(1); }
  std::size_t peak() const { return peak_.load(); }

 private:
  void bump_peak(std::size_t v) {
    std::size_t p = peak_.load();
    while (v > p && !peak_.compare_exchange_weak(p, v)) {
    }
  }
  const std::size_t cap_;
  std::atomic<std::size_t> inflight_{0};
  std::atomic<std::size_t> peak_{0};
};

/// Client-side mirror of one tenant's in-flight quota, shared by every
/// worker submitting under that tenant. Reservations are taken before a
/// job goes on the wire and released when its completion arrives, so the
/// count here is always >= the server engine's per-tenant inflight — the
/// engine can never see a quota overrun from swarm traffic, and the
/// swarm's completion totals match the in-process runner's (which holds
/// arrivals at the same quota boundary).
struct TenantGate {
  std::size_t quota = 0;  // 0 = unlimited
  std::atomic<std::size_t> inflight{0};

  bool try_acquire() {
    if (quota == 0) {
      inflight.fetch_add(1);
      return true;
    }
    std::size_t cur = inflight.load();
    while (cur < quota)
      if (inflight.compare_exchange_weak(cur, cur + 1)) return true;
    return false;
  }
  void release() { inflight.fetch_sub(1); }
};

/// One pre-generated arrival, routed to its connection.
struct SwarmJob {
  double time = 0.0;
  std::size_t class_index = 0;
  std::uint64_t arrival = 0;  // per-class arrival index
  std::size_t class_channel = 0;
  GeneratedJob gen;
};

/// Per-thread, per-class report shard; merged after the join so workers
/// never share accounting state.
struct ClassShard {
  std::uint64_t offered = 0, submitted = 0, completed = 0;
  std::uint64_t auth_failures = 0, busy_rejections = 0, payload_bytes = 0;
  std::uint64_t decrypt_submitted = 0, decrypt_completed = 0;
  std::uint64_t first_submit_cycle = ~std::uint64_t{0};
  std::uint64_t last_complete_cycle = 0;
  workload::LogHistogram latency, service;
};

struct Worker {
  std::unique_ptr<Client> client;
  std::vector<SwarmJob> jobs;
  /// Wire channel ids for the class-channels this connection owns,
  /// indexed [class][class_channel] (0 = not ours).
  std::vector<std::vector<std::uint32_t>> wire_channel;
  std::vector<ClassShard> shards;
  /// Wire job ids, connection-unique; starts above the u32 request-id
  /// space (see client.h). Lives here, not on run_worker's stack, because
  /// verify callbacks draw from it as late as the final drain.
  std::uint64_t next_job_id = std::uint64_t{1} << 32;
  std::exception_ptr error;
};

/// Account one seal's COMPLETION: release its window and tenant
/// reservations, then count it into its class shard. Returns auth_ok.
bool seal_completed(ClassShard& shard, Window& window, TenantGate* gate,
                    const CompletionFrame& c) {
  window.release();
  if (gate != nullptr) gate->release();
  ++shard.completed;
  shard.busy_rejections += c.rejections;
  shard.first_submit_cycle = std::min(shard.first_submit_cycle, c.submit_cycle);
  shard.last_complete_cycle = std::max(shard.last_complete_cycle, c.complete_cycle);
  if (!c.auth_ok) {
    ++shard.auth_failures;
    return false;
  }
  shard.latency.record(c.complete_cycle - c.submit_cycle);
  if (c.accept_cycle > 0 && c.accept_cycle >= c.submit_cycle)
    shard.service.record(c.complete_cycle - c.accept_cycle);
  return true;
}

void run_worker(Worker& w, const workload::ScenarioSpec& spec, Window& window,
                std::vector<TenantGate>& gates, int drain_ms) {
  Client& client = *w.client;
  std::uint64_t& next_job_id = w.next_job_id;

  for (SwarmJob& sj : w.jobs) {
    // Tenant in-flight quota first (the remote mirror of the runner
    // holding a tenanted arrival), then the fleet-wide window.
    TenantGate* gate = nullptr;
    if (const std::uint16_t tid = spec.classes[sj.class_index].tenant_id; tid != 0) {
      gate = &gates[tid];
      while (!gate->try_acquire()) client.poll(1);
    }
    while (!window.try_acquire()) client.poll(1);

    ClassShard& shard = w.shards[sj.class_index];
    ++shard.offered;
    ++shard.submitted;
    shard.payload_bytes += sj.gen.job.payload.size();

    const std::uint32_t channel = w.wire_channel[sj.class_index][sj.class_channel];
    const bool remac = spec.classes[sj.class_index].profile.mode == top::ChannelMode::kCbcMac;
    const std::uint8_t priority = static_cast<std::uint8_t>(sj.gen.job.priority);

    SubmitJob job;
    job.job_id = next_job_id++;
    job.decrypt = false;
    job.priority = priority;
    job.iv = std::move(sj.gen.job.iv_or_nonce);
    job.aad = std::move(sj.gen.job.aad);
    job.payload = std::move(sj.gen.job.payload);

    if (!sj.gen.verify) {
      client.submit(channel, std::move(job), [&shard, &window, gate](const CompletionFrame& c) {
        seal_completed(shard, window, gate, c);
      });
      client.poll(0);
      continue;
    }

    // Verify round-trip: once the sealed packet lands, feed it straight
    // back as a decrypt job on the same channel — the remote mirror of the
    // runner's re-entrant resubmit. The decrypt's job id comes off a
    // captured counter reference so ids stay connection-unique.
    auto verify_ctx = std::make_shared<GeneratedJob>(std::move(sj.gen));
    client.submit(
        channel, std::move(job),
        [&client, &shard, &window, &next_job_id, verify_ctx, channel, priority, remac,
         gate](const CompletionFrame& c) {
          if (!seal_completed(shard, window, gate, c)) return;  // nothing sealed to round-trip

          window.acquire_over();
          ++shard.decrypt_submitted;
          SubmitJob open_job;
          open_job.job_id = next_job_id++;
          open_job.decrypt = true;
          open_job.priority = priority;
          open_job.iv = verify_ctx->verify_iv;
          open_job.aad = verify_ctx->verify_aad;
          open_job.payload = remac ? verify_ctx->verify_msg : c.payload;
          open_job.tag = c.tag;
          client.submit(channel, std::move(open_job),
                        [&shard, &window](const CompletionFrame& c2) {
                          window.release();
                          ++shard.decrypt_completed;
                          shard.busy_rejections += c2.rejections;
                          shard.last_complete_cycle =
                              std::max(shard.last_complete_cycle, c2.complete_cycle);
                          if (!c2.auth_ok) ++shard.auth_failures;
                        });
        });
    client.poll(0);
  }
  // Drain inside the worker (not after it returns) so late verify
  // resubmits still find every captured reference alive.
  client.drain(drain_ms);
}

}  // namespace

SwarmRunner::SwarmRunner(workload::ScenarioSpec spec, SwarmConfig net)
    : spec_(std::move(spec)), net_(std::move(net)) {
  if (spec_.window == 0) throw std::invalid_argument("swarm: window must be >= 1");
  if (spec_.classes.empty())
    throw std::invalid_argument("swarm: scenario needs at least one class");
  if (net_.connections == 0) throw std::invalid_argument("swarm: needs >= 1 connection");
}

ScenarioReport SwarmRunner::run() {
  using WallClock = std::chrono::steady_clock;
  const auto wall_start = WallClock::now();
  const std::size_t num_classes = spec_.classes.size();

  // Global channel order (class-major, matching the in-process runner) and
  // the connection each channel shards to. A session's tenant is fixed at
  // HELLO, so connections are partitioned into per-tenant pools (key 0 =
  // untenanted): each tenant with channels gets a pool sized by
  // largest-remainder share of its channel count (always >= 1), and its
  // channels shard round-robin within the pool.
  std::size_t total_channels = 0;
  for (const workload::ClassSpec& cs : spec_.classes) total_channels += cs.channels;
  total_channels = std::max<std::size_t>(total_channels, 1);

  const std::size_t num_keys_total = spec_.tenants.size() + 1;  // tenant id space incl. 0
  std::vector<std::size_t> key_channels(num_keys_total, 0);
  for (const workload::ClassSpec& cs : spec_.classes) key_channels[cs.tenant_id] += cs.channels;
  std::size_t active_keys = 0;
  for (std::size_t n : key_channels)
    if (n > 0) ++active_keys;
  active_keys = std::max<std::size_t>(active_keys, 1);

  const std::size_t num_conns =
      std::max(active_keys, std::min(net_.connections, total_channels));

  std::vector<std::size_t> pool_size(num_keys_total, 0);
  {
    const std::size_t extra = num_conns - active_keys;
    std::size_t assigned = 0;
    std::vector<std::pair<std::size_t, std::size_t>> remainders;  // (remainder, key)
    for (std::size_t k = 0; k < num_keys_total; ++k) {
      if (key_channels[k] == 0) continue;
      pool_size[k] = 1 + extra * key_channels[k] / total_channels;
      assigned += pool_size[k] - 1;
      remainders.emplace_back(extra * key_channels[k] % total_channels, k);
    }
    std::sort(remainders.begin(), remainders.end(),
              [](const auto& a, const auto& b) {
                if (a.first != b.first) return a.first > b.first;
                return a.second < b.second;  // ties break toward lower tenant id
              });
    for (std::size_t j = 0; assigned < extra; ++j, ++assigned)
      ++pool_size[remainders[j % remainders.size()].second];
  }

  std::vector<std::size_t> pool_start(num_keys_total, 0);
  std::vector<std::uint16_t> conn_tenant(num_conns, 0);
  {
    std::size_t start = 0;
    for (std::size_t k = 0; k < num_keys_total; ++k) {
      pool_start[k] = start;
      for (std::size_t j = 0; j < pool_size[k]; ++j)
        conn_tenant[start + j] = static_cast<std::uint16_t>(k);
      start += pool_size[k];
    }
  }

  std::vector<Worker> workers(num_conns);
  for (Worker& w : workers) {
    w.wire_channel.assign(num_classes, {});
    w.shards = std::vector<ClassShard>(num_classes);
    for (std::size_t i = 0; i < num_classes; ++i)
      w.wire_channel[i].assign(spec_.classes[i].channels, 0);
  }
  // conn_of[class][class_channel]: round-robin within the class's tenant pool.
  std::vector<std::vector<std::size_t>> conn_of(num_classes);
  {
    std::vector<std::size_t> cursor(num_keys_total, 0);
    for (std::size_t i = 0; i < num_classes; ++i) {
      const std::size_t k = spec_.classes[i].tenant_id;
      conn_of[i].resize(spec_.classes[i].channels);
      for (std::size_t c = 0; c < spec_.classes[i].channels; ++c)
        conn_of[i][c] = pool_start[k] + (cursor[k]++ % pool_size[k]);
    }
  }

  // Connect the swarm; provision keys once (fleet-global); open every
  // channel sequentially in global order so placement matches in-process.
  ClientConfig ccfg;
  ccfg.host = net_.host;
  ccfg.port = net_.port;
  ccfg.io_timeout_ms = net_.io_timeout_ms;
  for (std::size_t k = 0; k < num_conns; ++k) {
    ccfg.name = net_.client_name + "#" + std::to_string(k);
    ccfg.tenant = conn_tenant[k];
    workers[k].client = std::make_unique<Client>(ccfg);
  }
  for (std::size_t i = 0; i < num_classes; ++i)
    workers[0].client->provision_key(
        static_cast<top::KeyId>(i + 1),
        workload::class_key(spec_.seed, i, spec_.classes[i].profile.key_len));
  for (std::size_t i = 0; i < num_classes; ++i) {
    const workload::ClassSpec& cs = spec_.classes[i];
    for (std::size_t c = 0; c < cs.channels; ++c) {
      Worker& w = workers[conn_of[i][c]];
      OpenOkFrame ok = w.client->open_channel(
          static_cast<std::uint8_t>(cs.profile.mode), static_cast<std::uint8_t>(i + 1),
          static_cast<std::uint8_t>(cs.profile.tag_len),
          static_cast<std::uint8_t>(cs.profile.nonce_len));
      w.wire_channel[i][c] = ok.channel;
    }
  }

  // Pre-generate the whole workload per class — identical draws to the
  // in-process runner — and route each arrival to its connection. The
  // admission plan resolves every tenant accept/throttle/shed decision up
  // front (in the same canonical order the in-process runner uses), so
  // refusals are tallied here and never cross the wire: the swarm offers
  // exactly the arrivals the runner submits, and the per-tenant counts pin
  // bit-identical across transports.
  const workload::AdmissionPlan plan = workload::build_admission_plan(spec_);
  std::vector<std::uint64_t> class_throttled(num_classes, 0), class_shed(num_classes, 0);
  std::vector<std::uint64_t> class_dropped(num_classes, 0);
  for (std::size_t i = 0; i < num_classes; ++i) {
    ClassJobStream stream(spec_.classes[i], spec_.seed, i, spec_.max_cycles);
    std::uint64_t accepted = 0;
    while (!stream.exhausted()) {
      const qos::Decision d = plan.decision(i, stream.generated());
      if (d != qos::Decision::kAccept) {
        if (d == qos::Decision::kThrottle)
          ++class_throttled[i];
        else
          ++class_shed[i];
        stream.skip();
        continue;
      }
      // Drop admission is planned too (modelled-window replay), so the
      // swarm sheds the identical arrivals the in-process runner does.
      if (plan.drop(i, stream.generated())) {
        ++class_dropped[i];
        stream.skip();
        continue;
      }
      SwarmJob sj;
      sj.time = *stream.next_time();
      sj.class_index = i;
      // Blocking admission admits every plan-accepted arrival, so the
      // runner's per-class round-robin (which advances on accepts only)
      // resolves to accepted_index % channels.
      sj.arrival = accepted;
      sj.class_channel = static_cast<std::size_t>(accepted % spec_.classes[i].channels);
      ++accepted;
      sj.gen = stream.take();
      workers[conn_of[i][sj.class_channel]].jobs.push_back(std::move(sj));
    }
  }
  for (Worker& w : workers)
    std::stable_sort(w.jobs.begin(), w.jobs.end(), [](const SwarmJob& a, const SwarmJob& b) {
      if (a.time != b.time) return a.time < b.time;
      if (a.class_index != b.class_index) return a.class_index < b.class_index;
      return a.arrival < b.arrival;
    });

  const StatsFrame stats_start = workers[0].client->stats_snapshot();

  Window window(spec_.window);
  std::vector<TenantGate> gates(num_keys_total);
  for (std::size_t t = 0; t < spec_.tenants.size(); ++t)
    gates[t + 1].quota = spec_.tenants[t].quota;
  std::vector<std::thread> threads;
  threads.reserve(num_conns);
  for (Worker& w : workers)
    threads.emplace_back([&w, this, &window, &gates] {
      try {
        run_worker(w, spec_, window, gates, net_.io_timeout_ms);
      } catch (...) {
        w.error = std::current_exception();
      }
    });
  for (std::thread& t : threads) t.join();
  for (Worker& w : workers)
    if (w.error) std::rethrow_exception(w.error);

  const StatsFrame stats_end = workers[0].client->stats_snapshot();

  // Merge shards into the in-process report shape.
  ScenarioReport report;
  report.scenario = spec_.name;
  report.backend = workload::backend_name(spec_.backend);
  report.devices = spec_.devices;
  report.cores_per_device = spec_.cores_per_device;
  report.threads = spec_.threads;
  report.window = spec_.window;
  report.makespan_cycles = stats_end.engine_cycle - stats_start.engine_cycle;
  report.wall_ms =
      std::chrono::duration<double, std::milli>(WallClock::now() - wall_start).count();
  report.peak_inflight = window.peak();
  report.reconfigurations = stats_end.reconfigurations - stats_start.reconfigurations;
  report.reconfig_stall_cycles =
      stats_end.reconfig_stall_cycles - stats_start.reconfig_stall_cycles;
  report.bitstream_store = workload::store_spec_name(spec_.bitstream_store);
  for (std::size_t i = 0; i < num_classes; ++i) {
    const workload::ClassSpec& cs = spec_.classes[i];
    ClassReport rep;
    rep.name = cs.profile.name;
    rep.mode = workload::mode_name(cs.profile.mode);
    rep.priority = cs.profile.priority;
    rep.channels = cs.channels;
    rep.tenant = cs.tenant;
    // Plan refusals count as offered, never submitted — same accounting as
    // the in-process runner.
    rep.throttled = class_throttled[i];
    rep.shed = class_shed[i];
    rep.dropped = class_dropped[i];
    rep.offered = class_throttled[i] + class_shed[i] + class_dropped[i];
    std::uint64_t first_submit = ~std::uint64_t{0};
    for (const Worker& w : workers) {
      const ClassShard& s = w.shards[i];
      rep.offered += s.offered;
      rep.submitted += s.submitted;
      rep.completed += s.completed;
      rep.auth_failures += s.auth_failures;
      rep.busy_rejections += s.busy_rejections;
      rep.payload_bytes += s.payload_bytes;
      rep.decrypt_submitted += s.decrypt_submitted;
      rep.decrypt_completed += s.decrypt_completed;
      first_submit = std::min(first_submit, s.first_submit_cycle);
      rep.last_complete_cycle = std::max(rep.last_complete_cycle, s.last_complete_cycle);
      rep.latency.merge(s.latency);
      rep.service.merge(s.service);
    }
    rep.first_submit_cycle = first_submit == ~std::uint64_t{0} ? 0 : first_submit;
    report.classes.push_back(std::move(rep));
  }
  report.queue_sample_interval = 0;  // swarm replay doesn't sample queue depth
  workload::build_tenant_reports(spec_, report);
  return report;
}

}  // namespace mccp::net
