// A clock for component harnesses: owns a cycle counter and ticks the
// registered components (a single core, a CU, a bare Mccp under test).
//
// The MCCP is a single synchronous clock domain (190 MHz on the paper's
// Virtex-4). A whole chip behind host::SimDevice needs no Simulation: the
// Mccp ticks its components itself and its cycle counter is the device
// clock.
#pragma once

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <vector>

#include "sim/clocked.h"

namespace mccp::sim {

class Simulation {
 public:
  /// Register a component; not owned. Registration order = tick order.
  void add(Clocked* c) { components_.push_back(c); }

  Cycle now() const { return cycle_; }

  /// Advance one clock cycle.
  void step() {
    for (Clocked* c : components_) c->tick();
    ++cycle_;
  }

  /// Advance n cycles.
  void run(Cycle n) {
    for (Cycle i = 0; i < n; ++i) step();
  }

  /// Advance until `done()` returns true, or throw after `max_cycles`
  /// (guards against firmware bugs hanging the test suite).
  Cycle run_until(const std::function<bool()>& done, Cycle max_cycles = 50'000'000) {
    Cycle start = cycle_;
    while (!done()) {
      if (cycle_ - start > max_cycles)
        throw std::runtime_error("Simulation::run_until: exceeded max_cycles (deadlock?)");
      step();
    }
    return cycle_ - start;
  }

 private:
  std::vector<Clocked*> components_;
  Cycle cycle_ = 0;
};

/// Paper operating point: Virtex-4 SX35-11 at 190 MHz.
inline constexpr double kClockFrequencyHz = 190e6;

/// Convert a cycle count into achieved throughput in Mbps at the paper's
/// clock frequency: Mbps = bits * f / cycles / 1e6.
inline double throughput_mbps(std::uint64_t bits, Cycle cycles,
                              double frequency_hz = kClockFrequencyHz) {
  if (cycles == 0) return 0.0;
  return static_cast<double>(bits) * frequency_hz / static_cast<double>(cycles) / 1e6;
}

}  // namespace mccp::sim
