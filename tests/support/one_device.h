// A one-device host::Engine on the cycle-accurate backend: the platform
// shape most device-behaviour tests drive. (A named helper because a
// designated-initializer list handed straight to Engine's constructor is
// ambiguous against the fleet-adopting overload on GCC 12.)
#pragma once

#include "host/engine.h"

namespace mccp::testing {

inline host::Engine one_device(const top::MccpConfig& cfg) {
  return host::Engine(host::EngineConfig{.num_devices = 1, .device = cfg});
}

}  // namespace mccp::testing
