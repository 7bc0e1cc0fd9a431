// Slot queries on a host::Device for tests. The Device seam reports only
// per-image slot counts (DeviceStats::slots_with_image); which image each
// slot hosts, whether it is mid-swap and how many slots there are are read
// from the backend itself: SimDevice::mccp() or FastDevice's own members,
// looking through any FaultyDevice wrapper. A wrapper frozen mid-swap
// reports its inner device's slots as they were at the freeze.
#pragma once

#include <cstddef>
#include <stdexcept>

#include "host/fast_device.h"
#include "host/faulty_device.h"
#include "host/sim_device.h"

namespace mccp::testing {

/// The backend under any FaultyDevice wrappers.
inline const host::Device& unwrap(const host::Device& dev) {
  const host::Device* d = &dev;
  while (const auto* faulty = dynamic_cast<const host::FaultyDevice*>(d)) d = faulty->inner();
  return *d;
}

/// Calls `on_sim(mccp)` or `on_fast(fast_device)` for the backend under `dev`.
template <typename OnSim, typename OnFast>
auto visit_backend(const host::Device& dev, OnSim on_sim, OnFast on_fast) {
  const host::Device& d = unwrap(dev);
  if (const auto* sim = dynamic_cast<const host::SimDevice*>(&d)) return on_sim(sim->mccp());
  if (const auto* fast = dynamic_cast<const host::FastDevice*>(&d)) return on_fast(*fast);
  throw std::logic_error("device_slots: neither a SimDevice nor a FastDevice");
}

inline std::size_t num_cores(const host::Device& dev) {
  return visit_backend(
      dev, [](const top::Mccp& m) { return m.num_cores(); },
      [](const host::FastDevice& f) { return f.num_cores(); });
}

/// The image slot `slot` hosts; the old image while a swap is in flight.
inline reconfig::CoreImage slot_image(const host::Device& dev, std::size_t slot) {
  return visit_backend(
      dev, [slot](const top::Mccp& m) { return m.core_image(slot); },
      [slot](const host::FastDevice& f) { return f.slot_image(slot); });
}

/// True while slot `slot`'s bitstream transfer is running.
inline bool slot_reconfiguring(const host::Device& dev, std::size_t slot) {
  return visit_backend(
      dev, [slot](const top::Mccp& m) { return m.core_reconfiguring(slot); },
      [slot](const host::FastDevice& f) { return f.slot_reconfiguring(slot); });
}

/// Slots whose committed personality is `img` (DeviceStats' count).
inline std::size_t slots_with_image(const host::Device& dev, reconfig::CoreImage img) {
  return dev.stats().slots_with_image[reconfig::image_index(img)];
}

}  // namespace mccp::testing
