// Closed loops: one through host::Engine, written the way a user of
// the library writes it, and one straight through bare host::Devices, which
// isolates the device layer under the identical job stream and window.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "bench.h"
#include "host/engine.h"
#include "jobs.h"

namespace mbench {

struct EngineFleet {
  std::unique_ptr<mccp::host::Engine> engine;
  std::vector<mccp::host::Channel> channels;  // parallel to Workset::channels

  /// Engine device each channel landed on.
  std::vector<std::size_t> placement() const;
};

/// Set-up as a user pays it: build the fleet, provision every key, open
/// every channel.
EngineFleet open_fleet(const mccp::host::EngineConfig& cfg, const Workset& ws);

struct LoopStats {
  double seconds = 0;  // host time of the loop (checks excluded)
  std::uint64_t packets = 0;
  std::uint64_t mismatches = 0;  // results that differ from the references
  std::uint64_t rejections = 0;  // device busy-error retries, summed
  std::uint64_t reconfigurations = 0;
  mccp::sim::Cycle makespan_cycles = 0;
  double modeled_mbps = 0;
  std::uint64_t modeled_p99_cycles = 0;  // submit -> complete
};

/// Offer every job of `ws` in order, keeping `window` in flight: refill the
/// window with submit_encrypt / submit_decrypt, then wait() on the oldest
/// unfinished job. Results are checked after the clock stops. With a
/// tracer, each refill and each wait is a span and every packet gets a
/// submit -> completion span.
LoopStats engine_loop(EngineFleet& fleet, const Workset& ws, std::size_t window,
                      Tracer* tracer);

struct DeviceFleet {
  std::vector<std::unique_ptr<mccp::host::Device>> devices;
  std::vector<std::size_t> channel_device;             // parallel to Workset::channels
  std::vector<mccp::host::ChannelInfo> channel_info;   // descriptor on that device
};

/// Bare devices shaped like `cfg`'s fleet, with channel c opened on the
/// device `placement[c]` names (the Engine's own placement).
DeviceFleet open_devices(const mccp::host::EngineConfig& cfg, const Workset& ws,
                         const std::vector<std::size_t>& placement);

/// The same stream and window through Device::submit_batch / step / result
/// / forget only (the simulator advances through the quiet-burst seam, as
/// the Engine drives it). Returns the loop's host seconds.
double device_loop(DeviceFleet& fleet, const Workset& ws, std::size_t window);

}  // namespace mbench
