// net_swarm: replay a scenario through the networked crypto-offload
// service as a swarm of concurrent clients.
//
// The swarm offers the bit-identical workload the in-process
// scenario_runner would (workload/jobgen.h is the shared source of
// truth), so with blocking admission the per-class completion and
// auth-failure counts match the in-process run exactly — run both and
// diff the BENCH JSONs. By default the run self-hosts a loopback server
// with the scenario's fleet; point --connect at a running net_server to
// measure across a real port.
//
// Flags:
//   --scenario PATH   scenario spec to replay (required)
//   --connect H:P     use an already-running server (default: self-host)
//   --clients N       concurrent client connections (default 8)
//   --backend NAME    override the spec's backend (self-hosted fleet only)
//   --scale F         multiply every class's packet count by F (rounded
//                     to nearest, at least 1; F finite and > 0)
//   --window N        override the spec's in-flight window
//   --seed N          override the spec's seed
//   --json PATH       write the report (default BENCH_net_swarm_<name>.json)
//
// Numeric flags must parse in full; anything else exits 2.
#include <cstdio>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>

#include "bench_common.h"
#include "net_common.h"
#include "net/swarm.h"
#include "workload/jobgen.h"
#include "workload/runner.h"

namespace mccp::bench {
namespace {

int run(int argc, char** argv) {
  const char* scenario_path = arg_value(argc, argv, "--scenario");
  if (scenario_path == nullptr) {
    std::fprintf(stderr,
                 "usage: net_swarm --scenario PATH [--connect HOST:PORT] [--clients N]\n"
                 "                 [--backend sim|fast] [--scale F] [--window N] [--seed N]\n"
                 "                 [--json PATH]\n");
    return 2;
  }

  mccp::workload::ScenarioSpec spec = mccp::workload::load_scenario(scenario_path);
  if (!spec.faults.empty() || spec.autoscale.enabled)
    throw std::runtime_error(
        "scenario \"" + spec.name +
        "\" scripts fleet membership events (faults/autoscale), which only "
        "scenario_runner's inproc transport can execute");
  if (const char* backend = arg_value(argc, argv, "--backend"))
    spec.backend = mccp::workload::backend_from_name(backend);
  mccp::workload::scale_packets(spec, arg_double(argc, argv, "--scale", 1.0));
  spec.window = arg_size(argc, argv, "--window", spec.window);
  spec.seed = arg_size(argc, argv, "--seed", spec.seed);

  mccp::net::SwarmConfig net;
  net.connections = arg_size(argc, argv, "--clients", net.connections);
  std::unique_ptr<SelfHostedServer> self_hosted;
  if (const char* connect = arg_value(argc, argv, "--connect")) {
    auto [host, port] = parse_hostport(connect);
    net.host = host;
    net.port = port;
  } else {
    mccp::net::ServerConfig server_cfg;
    server_cfg.engine = mccp::workload::engine_config_from(spec);
    self_hosted = std::make_unique<SelfHostedServer>(std::move(server_cfg));
    net.port = self_hosted->port();
    std::printf("net_swarm: self-hosted server on 127.0.0.1:%u\n", net.port);
  }

  const std::string note = ", net swarm x" + std::to_string(net.connections);
  mccp::net::SwarmRunner runner(std::move(spec), std::move(net));
  mccp::workload::ScenarioReport report = runner.run();
  print_scenario_report(report, note);

  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") != 0) continue;
    if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0)
      json_path = argv[i + 1];
    else
      json_path = "BENCH_net_swarm_" + report.scenario + ".json";
  }
  if (!json_path.empty()) {
    if (!JsonWriter::write_text_file(json_path, mccp::workload::report_json(report))) return 1;
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace mccp::bench

int main(int argc, char** argv) {
  try {
    return mccp::bench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "net_swarm: %s\n", e.what());
    return 1;
  }
}
