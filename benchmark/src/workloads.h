// The five benchmark workloads (README.md says why each exists). Each one
// generates its inputs from Options::seed, measures for Options::seconds,
// checks every output it can see, and records its metrics in Results; with
// Options::trace it also runs the traced repetition and the per-layer
// replays, recording spans in the Tracer.
#pragma once

#include "bench.h"

namespace mbench {

void run_sim_gcm_2k(const Options& o, Results& res, Tracer& tracer);
void run_fast_fleet_small(const Options& o, Results& res, Tracer& tracer);
void run_fast_bulk_verify(const Options& o, Results& res, Tracer& tracer);
void run_net_open_loop(const Options& o, Results& res, Tracer& tracer);
void run_fast_churn_faults(const Options& o, Results& res, Tracer& tracer);

}  // namespace mbench
