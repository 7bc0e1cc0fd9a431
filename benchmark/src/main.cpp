// mccp_bench — runs one benchmark workload and writes its results file.
//
//   mccp_bench --workload NAME --out RESULTS.json [--seed N] [--seconds S]
//              [--trace 0|1] [--trace-out TRACE.json] [--workloads-dir DIR]
//
// benchmark/run.sh builds this and runs each workload in its own process;
// README.md documents the workloads and metrics. Exit status: 0 when every
// output check passed, 1 when one failed or the workload threw (the results
// file is still written), 2 on bad arguments.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <string>

#include "crypto/kernels.h"
#include "workloads.h"

namespace {

using Runner = void (*)(const mbench::Options&, mbench::Results&, mbench::Tracer&);

const std::map<std::string, Runner>& workloads() {
  static const std::map<std::string, Runner> table = {
      {"sim_gcm_2k", mbench::run_sim_gcm_2k},
      {"fast_fleet_small", mbench::run_fast_fleet_small},
      {"fast_bulk_verify", mbench::run_fast_bulk_verify},
      {"net_open_loop", mbench::run_net_open_loop},
      {"fast_churn_faults", mbench::run_fast_churn_faults},
  };
  return table;
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr, "mccp_bench: %s\n", why);
  std::fprintf(stderr,
               "usage: mccp_bench --workload NAME --out RESULTS.json [--seed N] [--seconds S]\n"
               "                  [--trace 0|1] [--trace-out TRACE.json] [--workloads-dir DIR]\n"
               "workloads:");
  for (const auto& [name, fn] : workloads()) std::fprintf(stderr, " %s", name.c_str());
  std::fprintf(stderr, "\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  mbench::Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      o.workload = v;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(v, &end, 10);
      if (*end != '\0') usage("--seed wants a whole number");
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(v, &end);
      if (*end != '\0' || !(o.seconds > 0)) usage("--seconds wants a positive number");
    } else if (flag == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) usage("--trace wants 0 or 1");
      o.trace = v[0] == '1';
    } else if (flag == "--out") {
      o.out = v;
    } else if (flag == "--trace-out") {
      o.trace_out = v;
    } else if (flag == "--workloads-dir") {
      o.workloads_dir = v;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  const auto it = workloads().find(o.workload);
  if (it == workloads().end()) usage(("unknown workload \"" + o.workload + "\"").c_str());
  if (o.out.empty()) usage("--out is required");

  mbench::Results res;
  mbench::Tracer tracer;
  res.info("workload", o.workload);
  res.info("seed", std::to_string(o.seed));
  res.info("seconds", std::to_string(o.seconds));
  res.info("trace", o.trace ? "1" : "0");
  res.info("crypto_kernel", mccp::crypto::active_kernel_name());
  res.info("nproc", std::to_string(sysconf(_SC_NPROCESSORS_ONLN)));
  int status = 0;
  try {
    it->second(o, res, tracer);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mccp_bench: %s: %s\n", o.workload.c_str(), e.what());
    res.check(false, std::string("workload aborted: ") + e.what());
    status = 1;
  }
  if (o.trace && !o.trace_out.empty() && !tracer.write_chrome(o.trace_out)) {
    std::fprintf(stderr, "mccp_bench: cannot write %s\n", o.trace_out.c_str());
    status = 1;
  }
  if (!res.write(o.out)) {
    std::fprintf(stderr, "mccp_bench: cannot write %s\n", o.out.c_str());
    return 1;
  }
  return status != 0 || res.failed() != 0 ? 1 : 0;
}
