// Deterministic per-class job generation, shared by every transport.
//
// The in-process ScenarioRunner and the networked client swarm
// (net/swarm.h) must offer the *bit-identical* workload for a scenario —
// same arrival instants, same packet sizes and contents, same IVs, same
// decrypt/verify picks — or the cross-transport determinism guarantee
// (per-class completion counts pinned equal) is meaningless. This header
// is that single source of truth: a ClassJobStream owns one class's
// seeded rng and arrival process and hands out arrivals strictly in
// order, with every packet's rng draws happening at take() time — so the
// stream is a pure function of (scenario seed, class index), independent
// of completion timing, transport, backend and thread count.
//
// Draw order per admitted arrival (fixed — changing it breaks replay
// compatibility with recorded BENCH artifacts): payload size, AAD size,
// IV/nonce bytes, AAD bytes, payload bytes, then the decrypt/verify pick;
// the *next* arrival instant is drawn when the arrival is consumed.
// A dropped arrival (skip()) consumes the slot but draws nothing except
// the next instant, exactly like the runner always did.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>

#include "common/bytes.h"
#include "common/rng.h"
#include "host/engine.h"
#include "workload/arrival.h"
#include "workload/spec.h"

namespace mccp::workload {

/// Distinct, seed-derived rng stream per class (splitmix-style spread so
/// neighbouring class indices decorrelate).
std::uint64_t class_seed(std::uint64_t scenario_seed, std::size_t class_index);

/// The session key class `class_index` provisions (KeyId = index + 1).
Bytes class_key(std::uint64_t scenario_seed, std::size_t class_index, std::size_t key_len);

/// The fleet an in-process run of `spec` instantiates — also what a
/// net_server fronting the same scenario must be configured with.
host::EngineConfig engine_config_from(const ScenarioSpec& spec);

/// One admitted arrival: the encrypt-side JobSpec plus, when this arrival
/// was picked for a decrypt/verify round-trip (ClassSpec::decrypt_fraction),
/// the context the resubmit needs.
struct GeneratedJob {
  host::JobSpec job;
  bool verify = false;
  Bytes verify_iv, verify_aad;
  Bytes verify_msg;  // CBC-MAC re-MACs the message itself (no ciphertext)
};

/// The sizes of one admitted arrival's job, without its bytes.
struct JobShape {
  std::size_t payload_len = 0;
  std::size_t aad_len = 0;
};

class ClassJobStream {
 public:
  /// `max_cycles` stops offering arrivals past that instant (0 = off),
  /// mirroring ScenarioSpec::max_cycles.
  ClassJobStream(const ClassSpec& spec, std::uint64_t scenario_seed, std::size_t class_index,
                 sim::Cycle max_cycles);

  /// Pending (not yet consumed) arrival instant; nullopt = exhausted.
  const std::optional<double>& next_time() const { return next_time_; }
  bool exhausted() const { return !next_time_.has_value(); }
  /// Arrivals consumed so far (take() + skip()).
  std::uint64_t generated() const { return generated_; }

  /// Consume the pending arrival: build its job (drawing from the class
  /// rng in the fixed order above) and advance to the next instant.
  GeneratedJob take();
  /// take() for a caller that needs only the job's sizes (the admission
  /// planner): the same rng draws, without materialising any bytes.
  JobShape take_shape();
  /// Consume the pending arrival without building it (drop admission).
  void skip();

 private:
  void draw_next();
  JobShape draw_shape();
  bool draw_verify();

  const ClassSpec* spec_;
  sim::Cycle max_cycles_;
  Rng rng_;
  std::unique_ptr<ArrivalProcess> arrival_;
  std::optional<double> next_time_;
  std::uint64_t generated_ = 0;
};

}  // namespace mccp::workload
