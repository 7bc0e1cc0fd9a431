// Cross-transport determinism: the same scenario replayed through the
// in-process ScenarioRunner and through a swarm of >= 8 concurrent TCP
// clients (net::SwarmRunner against a loopback net::Server) must resolve
// to identical per-class counts — offered, completed, auth failures,
// decrypt round-trips, payload bytes. Blocking admission makes the
// workload a pure function of the seed (workload/jobgen.h), so the wire,
// client interleaving, and socket timing must not change WHAT was
// computed, only when.
#include <gtest/gtest.h>

#include <string>
#include <thread>

#include "net/server.h"
#include "net/swarm.h"
#include "workload/jobgen.h"
#include "workload/runner.h"
#include "workload/spec.h"

namespace mccp::net {
namespace {

workload::ScenarioSpec load_scaled(const std::string& name, double scale,
                                   host::Backend backend) {
  workload::ScenarioSpec spec =
      workload::load_scenario(std::string(MCCP_SOURCE_DIR) + "/scenarios/" + name);
  spec.backend = backend;
  workload::scale_packets(spec, scale);
  return spec;
}

void expect_identical_counts(const workload::ScenarioReport& inproc,
                             const workload::ScenarioReport& swarm) {
  ASSERT_EQ(inproc.classes.size(), swarm.classes.size());
  std::uint64_t total_completed = 0;
  for (std::size_t i = 0; i < inproc.classes.size(); ++i) {
    const workload::ClassReport& a = inproc.classes[i];
    const workload::ClassReport& b = swarm.classes[i];
    SCOPED_TRACE("class " + a.name);
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.offered, b.offered);
    EXPECT_EQ(a.submitted, b.submitted);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.auth_failures, b.auth_failures);
    // Drops and tenant refusals come precomputed in the admission plan, so
    // they pin exactly across transports (zero under blocking admission).
    EXPECT_EQ(a.dropped, b.dropped);
    EXPECT_EQ(a.throttled, b.throttled);
    EXPECT_EQ(a.shed, b.shed);
    EXPECT_EQ(a.decrypt_submitted, b.decrypt_submitted);
    EXPECT_EQ(a.decrypt_completed, b.decrypt_completed);
    EXPECT_EQ(a.payload_bytes, b.payload_bytes);
    total_completed += b.completed;
  }
  EXPECT_GT(total_completed, 0u);
}

// Loopback server with the scenario's fleet, loop on a background thread.
class ScenarioServer {
 public:
  explicit ScenarioServer(const workload::ScenarioSpec& spec) : server_(config_for(spec)) {
    thread_ = std::thread([this] { server_.run(); });
  }
  ~ScenarioServer() {
    server_.stop();
    thread_.join();
  }
  std::uint16_t port() const { return server_.port(); }

 private:
  static ServerConfig config_for(const workload::ScenarioSpec& spec) {
    ServerConfig cfg;
    cfg.engine = workload::engine_config_from(spec);
    return cfg;
  }
  Server server_;
  std::thread thread_;
};

void run_and_compare(const std::string& scenario, double scale, host::Backend backend,
                     std::size_t clients) {
  workload::ScenarioSpec spec = load_scaled(scenario, scale, backend);

  workload::ScenarioRunner inproc(spec);
  workload::ScenarioReport local = inproc.run();

  ScenarioServer server(spec);
  SwarmConfig net;
  net.port = server.port();
  net.connections = clients;
  SwarmRunner swarm(spec, net);
  workload::ScenarioReport remote = swarm.run();

  expect_identical_counts(local, remote);
}

TEST(SwarmScenario, MixedRadioFastBackendMatchesInProcess) {
  run_and_compare("mixed_radio.json", 0.2, host::Backend::kFast, 8);
}

TEST(SwarmScenario, MixedRadioSimBackendMatchesInProcess) {
  // The cycle-accurate backend is slow; a small scale keeps this a unit
  // test while still exercising every class and the verify traffic.
  run_and_compare("mixed_radio.json", 0.05, host::Backend::kSim, 8);
}

TEST(SwarmScenario, ReconfigChurnFastBackendMatchesInProcess) {
  // Whirlpool + AES mix under partial-reconfiguration churn: swaps change
  // job timing on the server, which must not leak into the counts.
  run_and_compare("reconfig_churn.json", 0.2, host::Backend::kFast, 8);
}

TEST(SwarmScenario, ReconfigChurnSimBackendMatchesInProcess) {
  run_and_compare("reconfig_churn.json", 0.05, host::Backend::kSim, 8);
}

TEST(SwarmScenario, MoreClientsThanChannelsStillDeterministic) {
  // Connections beyond the channel count idle out gracefully (num_conns
  // clamps to total channels) and the counts stay pinned.
  run_and_compare("mixed_radio.json", 0.1, host::Backend::kFast, 32);
}

TEST(SwarmScenario, SwarmRunTwiceIsIdenticalToItself) {
  workload::ScenarioSpec spec = load_scaled("mixed_radio.json", 0.1, host::Backend::kFast);
  SwarmConfig net;
  net.connections = 8;
  // Two independent runs, each against a fresh server (fresh engine clock
  // and placement state).
  workload::ScenarioReport a = [&] {
    ScenarioServer server(spec);
    SwarmConfig n = net;
    n.port = server.port();
    return SwarmRunner(spec, n).run();
  }();
  workload::ScenarioReport b = [&] {
    ScenarioServer server(spec);
    SwarmConfig n = net;
    n.port = server.port();
    return SwarmRunner(spec, n).run();
  }();
  ASSERT_EQ(a.classes.size(), b.classes.size());
  for (std::size_t i = 0; i < a.classes.size(); ++i) {
    EXPECT_EQ(a.classes[i].completed, b.classes[i].completed);
    EXPECT_EQ(a.classes[i].auth_failures, b.classes[i].auth_failures);
    EXPECT_EQ(a.classes[i].payload_bytes, b.classes[i].payload_bytes);
  }
}

TEST(SwarmScenario, TenantStormPinsPerTenantCountsAcrossTransports) {
  // The tentpole acceptance pin, transport edition: the shipped
  // tenant_storm preset resolves identical per-tenant accept/throttle/shed
  // counts whether it runs in-process or as a swarm of tenant-pinned TCP
  // sessions (each connection HELLOs with its tenant id and shares the
  // tenant's budget on the server).
  workload::ScenarioSpec spec = load_scaled("tenant_storm.json", 1.0, host::Backend::kFast);

  workload::ScenarioReport local = workload::ScenarioRunner(spec).run();

  ScenarioServer server(spec);
  SwarmConfig net;
  net.port = server.port();
  net.connections = 8;
  workload::ScenarioReport remote = SwarmRunner(spec, net).run();

  expect_identical_counts(local, remote);
  ASSERT_EQ(local.tenants.size(), remote.tenants.size());
  ASSERT_EQ(local.tenants.size(), 3u);
  std::uint64_t total_refused = 0;
  for (std::size_t i = 0; i < local.tenants.size(); ++i) {
    const workload::TenantReport& a = local.tenants[i];
    const workload::TenantReport& b = remote.tenants[i];
    SCOPED_TRACE("tenant " + a.name);
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.accepted, b.accepted);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.throttled, b.throttled);
    EXPECT_EQ(a.shed, b.shed);
    total_refused += b.throttled + b.shed;
  }
  EXPECT_GT(total_refused, 0u) << "the storm must actually shed bulk traffic";
  // Degradation order holds over the wire too: bulk sheds, voip rides.
  EXPECT_GT(remote.tenants[2].shed, 0u);
  EXPECT_EQ(remote.tenants[0].shed, 0u);
  EXPECT_EQ(remote.tenants[0].throttled, 0u);
}

TEST(SwarmScenario, DropAdmissionShedsIdenticalArrivalsAcrossTransports) {
  // Drop decisions are planned (modelled-window replay), so an overloaded
  // drop-admission scenario sheds the exact same arrivals whether it runs
  // in-process or through the swarm — per-class dropped counts included.
  workload::ScenarioSpec spec = load_scaled("mixed_radio.json", 0.2, host::Backend::kFast);
  spec.admission = workload::Admission::kDrop;
  spec.window = 3;  // deliberately undersized: the overload must shed

  workload::ScenarioReport local = workload::ScenarioRunner(spec).run();
  std::uint64_t total_dropped = 0;
  for (const workload::ClassReport& c : local.classes) total_dropped += c.dropped;
  EXPECT_GT(total_dropped, 0u);

  ScenarioServer server(spec);
  SwarmConfig net;
  net.port = server.port();
  net.connections = 8;
  workload::ScenarioReport remote = SwarmRunner(spec, net).run();
  expect_identical_counts(local, remote);
}

}  // namespace
}  // namespace mccp::net
