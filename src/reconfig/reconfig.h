// Partial-reconfiguration model (paper SVII.B, Table IV).
//
// What the paper measured on the Virtex-4: a reconfigurable region of 1280
// slices + 16 BRAM hosting either the AES-encryption core (with key
// schedule) or a Whirlpool hashing core; bitstreams of 89 / 97 kB;
// reconfiguration times of 380 / 416 ms from CompactFlash and 63 / 69 ms
// from RAM.
//
// What we model: a bitstream catalogue with the published sizes and a
// transfer-rate model for the two bitstream stores. The rates are derived
// from Table IV itself (size / time):
//   CompactFlash ~ 234 kB/s, RAM ~ 1.41 MB/s
// — reproducing the paper's conclusion that "caching of bitstream is
// needed to obtain the best performances" and that reconfiguration is for
// occasional algorithm swaps, not per-packet real time.
//
// A ReconfigurableSlot ties the model to behaviour: while a slot is
// reconfiguring its Cryptographic Unit is unavailable, but *other* cores
// keep working ("the reconfiguration of one part of the FPGA does not
// prevent others parts to work").
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace mccp::reconfig {

/// Algorithm personalities a Cryptographic Unit slot can host.
enum class CoreImage : std::uint8_t {
  kAesEncryptWithKs,  // AES encryption core + key schedule (the default)
  kWhirlpool,         // Whirlpool hashing core (the paper's demo payload)
};
/// Arrays with one entry per image are indexed by image_index().
inline constexpr std::size_t kNumCoreImages = 2;
inline constexpr std::size_t image_index(CoreImage img) { return static_cast<std::size_t>(img); }

const char* image_name(CoreImage img);

/// Static bitstream properties (Table IV, measured by the authors).
struct Bitstream {
  CoreImage image;
  std::uint32_t slices;         // logic occupied inside the region
  std::uint32_t brams;          // block RAMs inside the region
  std::uint32_t size_bytes;     // partial bitstream size
};

Bitstream bitstream_for(CoreImage img);

/// The reconfigurable region itself (1280 slices, 16 BRAM).
struct ReconfigurableRegion {
  std::uint32_t slices = 1280;
  std::uint32_t brams = 16;
};

/// Where the bitstream is fetched from.
enum class BitstreamStore : std::uint8_t {
  kCompactFlash,
  kRam,  // cached copy
};

const char* store_name(BitstreamStore s);

/// Sustained bitstream transfer bandwidth in bytes/second, fitted to
/// Table IV (the ICAP itself is faster; the storage path dominates).
double store_bandwidth_bytes_per_s(BitstreamStore s);

/// Reconfiguration wall-clock time for an image from a given store.
double reconfiguration_seconds(CoreImage img, BitstreamStore s);

/// The same expressed in MCCP clock cycles at `frequency_hz`.
std::uint64_t reconfiguration_cycles(CoreImage img, BitstreamStore s,
                                     double frequency_hz = 190e6);

/// Reconfiguration cycles compressed by `time_divisor` (>= 1; never below
/// one cycle). Both device backends charge swaps through this one function
/// so their modelled durations agree cycle for cycle. The divisor is a
/// modelling knob (MccpConfig::reconfig_time_divisor / a scenario's
/// "reconfig_scale"): real Table-IV swaps run tens of millions of cycles,
/// which is faithful but makes cycle-accurate churn experiments slow;
/// dividing compresses the timescale while preserving the
/// CompactFlash-vs-RAM ratio the paper's caching conclusion rests on.
std::uint64_t scaled_reconfiguration_cycles(CoreImage img, BitstreamStore s,
                                            std::uint32_t time_divisor,
                                            double frequency_hz = 190e6);

/// A CU algorithm slot with reconfiguration state. Cycle-driven: call
/// tick() from the owning simulation.
class ReconfigurableSlot {
 public:
  explicit ReconfigurableSlot(CoreImage initial = CoreImage::kAesEncryptWithKs)
      : image_(initial) {}

  CoreImage image() const { return image_; }
  bool reconfiguring() const { return remaining_ > 0; }

  /// Begin swapping in `next` from `store`. Returns the cycle count the
  /// swap will take. Throws if a swap is already running.
  std::uint64_t begin_reconfiguration(CoreImage next, BitstreamStore store,
                                      double frequency_hz = 190e6);

  void tick();

  std::uint64_t reconfigurations_done() const { return completed_; }

 private:
  CoreImage image_;
  CoreImage next_{};
  std::uint64_t remaining_ = 0;
  std::uint64_t completed_ = 0;
};

}  // namespace mccp::reconfig
