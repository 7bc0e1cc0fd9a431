// Workload inputs and their reference outputs.
//
// Every workload that offers packets itself describes them as a Workset:
// the session keys, the channels (mode, key, tag and nonce lengths) and the
// job list. Inputs are generated from the run's --seed; expected outputs
// are precomputed, untimed, with the public crypto::* calls the fast
// backend makes for each job (Reference), so every ciphertext, tag and
// authentication verdict the library returns can be compared byte for
// byte. The same Reference, timed, is the crypto-layer replay.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "bench.h"
#include "common/bytes.h"
#include "common/rng.h"
#include "crypto/aes.h"
#include "crypto/gcm.h"
#include "host/device.h"

namespace mbench {

using mccp::Bytes;
using mccp::host::ChannelMode;

struct KeyDef {
  mccp::top::KeyId id = 0;
  Bytes key;
};

struct ChannelDef {
  ChannelMode mode = ChannelMode::kGcm;
  mccp::top::KeyId key = 0;  // ignored for Whirlpool
  unsigned tag_len = 16;
  unsigned nonce_len = 12;  // GCM IV / CCM nonce length
};

struct Job {
  std::uint32_t channel = 0;  // index into Workset::channels
  bool decrypt = false;
  unsigned priority = 128;
  Bytes iv, aad, payload, tag;  // inputs (tag: opens only)
  // Expected device result.
  bool want_ok = true;
  Bytes want_payload, want_tag;
};

struct Workset {
  std::vector<KeyDef> keys;
  std::vector<ChannelDef> channels;
  std::vector<Job> jobs;

  std::uint64_t payload_bytes() const;
};

/// What a device returns for one job.
struct Output {
  bool ok = true;
  Bytes payload, tag;
};

/// The crypto::* call the fast backend makes for each job, with every key
/// expanded once up front (as the device does at provisioning).
class Reference {
 public:
  explicit Reference(const Workset& ws);
  Output run(const Job& job) const;

 private:
  struct Prepared {
    mccp::crypto::AesRoundKeys round_keys;
    mccp::crypto::GcmKey gcm;
  };
  const Workset* ws_;
  std::map<mccp::top::KeyId, Prepared> keys_;
};

/// The two generators behind a workload's inputs. `shape` draws the
/// traffic's structure (channels, lengths, which seals are reopened or
/// tampered, arrival instants) from a per-workload constant, so the
/// modelled figures are identical for every seed and can be pinned;
/// `content` draws every byte the library sees (keys, IVs, AAD, payloads,
/// tamper positions) from --seed.
struct Draws {
  Draws(std::uint64_t workload, std::uint64_t seed)
      : shape(workload), content(seed * 0x9E3779B97F4A7C15ull + workload) {}
  mccp::Rng shape;
  mccp::Rng content;
};

/// A fresh IV / nonce for a channel (CTR leaves the 16-bit counter space
/// clear, as the shipped workload generator does).
Bytes make_iv(mccp::Rng& rng, const ChannelDef& ch);
/// Payload length drawn uniformly from [lo, hi] in whole 16-byte blocks.
std::size_t draw_len(mccp::Rng& rng, std::size_t lo, std::size_t hi);

/// Fill `job`'s expected result from the reference.
void expect(const Reference& ref, Job& job);
/// An open job whose inputs are the sealed outputs of `sealed` (which must
/// already carry its expected result); `tamper` flips one tag bit so the
/// open must fail authentication. CTR has no tag: it is never tampered.
Job open_of(const Workset& ws, const Job& sealed, bool tamper, mccp::Rng& rng);

/// True when a device result matches the job's expected result.
bool matches(const Job& job, bool ok, const Bytes& payload, const Bytes& tag);

/// Crypto-layer replay: each job's reference call, one timed pass at a
/// time, split by kind (seal, open, hash). Each figure is the fastest pass.
class CryptoReplay {
 public:
  /// Groups the jobs by kind and runs one untimed pass that checks every
  /// output against the job's expected result.
  CryptoReplay(const Workset& ws, Results& res);
  void pass();
  /// Record crypto.ns_per_pkt, the rates of the kinds the workload has, and
  /// crypto.share against the host's nanoseconds per packet.
  void report(Results& res, double host_ns_per_pkt) const;

 private:
  struct Group {
    std::vector<const Job*> jobs;
    std::uint64_t bytes = 0;
    std::vector<double> pass_s;
  };
  Reference ref_;
  std::size_t jobs_ = 0;
  Group groups_[3];  // seal, open, hash
};

}  // namespace mbench
