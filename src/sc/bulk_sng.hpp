/// \file bulk_sng.hpp
/// \brief Word/SIMD-parallel stochastic number generation: a width-generic
///        bulk LFSR that advances many registers per instruction and a
///        packed bit-plane comparator dispatched over the full
///        portable / SSE2 / AVX2 / AVX-512BW ladder of sc/simd_caps.hpp.
///
/// The per-bit SNG path pays one virtual RNG call **per stream bit**
/// (`generateSbs`: N calls of `RandomSource::next` per pixel).  This layer
/// restructures the same comparator construction (Sec. II-B: bit i =
/// R_i < X) into two batched stages:
///
///  1. **Bulk PRNG** — `BulkLfsr<Lanes>` keeps `Lanes` independent 8-bit
///     Fibonacci LFSRs with the state laid out *stream-major* (lane k =
///     byte k of the packed state words, the MT19937-SIMD state-layout
///     idiom), so one SWAR word operation advances 8 registers and one
///     vector operation advances 16 (SSE2), 32 (AVX2) or 64 (AVX-512) —
///     the compiler vectorizes the word update loop at whatever width the
///     build allows.  Each lane reproduces `Lfsr::paper8Bit` bit for bit.
///     `BulkLfsr8` (32 lanes) is the default epoch-prefetch shape;
///     `BulkLfsr8Wide` (64 lanes) covers a whole AVX-512 register per word
///     pass and doubles the prefetch depth on 512-bit hosts.
///  2. **Packed comparator** — `RandomPlanes` stores one randomness epoch's
///     comparator sequence R both as raw bytes and as eight transposed
///     bit-planes.  `encode` then evaluates R_i < X for 64 stream bits per
///     plane pass (portable `uint64_t` path), 16 bytes per SSE2
///     `pcmpgtb`/`pmovmskb` pair, 32 bytes per AVX2 pair, or **64
///     comparator bits per single AVX-512BW `vpcmpub`** (the compare
///     writes a native 64-bit mask — one instruction per output word).
///     Every path computes the exact predicate, so their outputs are
///     bit-identical; results never depend on which instruction set
///     executed them.  Width selection resolves through
///     `sc::resolveSimd`, i.e. honours the `AIMSC_SIMD` override.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "sc/bitstream.hpp"
#include "sc/simd_caps.hpp"

namespace aimsc::sc {

/// Batch of `Lanes` independent 8-bit maximal LFSRs (taps {8,5,3,1},
/// matching `Lfsr::paper8Bit`) advanced in lock-step with word-parallel
/// arithmetic.
///
/// State layout is stream-major: register k lives in byte k of the packed
/// `Lanes/8`-x-`uint64_t` state, so the shift/parity update touches every
/// register with the same handful of word ops.  Used by the SW-SC
/// backend to prefetch the comparator sequences of the next `Lanes`
/// randomness epochs in one pass.
template <std::size_t Lanes>
class BulkLfsr {
  static_assert(Lanes % 8 == 0, "lanes must pack whole uint64 words");

 public:
  /// Number of independent LFSR lanes advanced per step.
  static constexpr std::size_t kLanes = Lanes;

  /// Seeds lane k with `seeds[k]`; every seed must be in [1, 255]
  /// (a zero seed locks a Fibonacci LFSR at zero; throws
  /// std::invalid_argument).
  explicit BulkLfsr(const std::array<std::uint8_t, kLanes>& seeds);

  /// Advances every lane one step (the SWAR equivalent of `Lanes` calls to
  /// `Lfsr::step`).
  void step();

  /// Post-step state of lane \p k (equals `Lfsr::step()`'s return value).
  std::uint8_t lane(std::size_t k) const;

  /// Runs \p n steps and writes the state sequences stream-major:
  /// `out[k * n + i]` is lane k's state after step i+1 — exactly the
  /// sequence `Lfsr::paper8Bit(seeds[k])` produces from n `next(8)` calls.
  /// \p out must have room for `kLanes * n` bytes.
  void generate(std::size_t n, std::uint8_t* out);

 private:
  std::array<std::uint64_t, Lanes / 8> state_;
};

/// The default epoch-prefetch shape (one AVX2 register per word pass).
using BulkLfsr8 = BulkLfsr<32>;
/// Deep prefetch for 512-bit hosts (one AVX-512 register per word pass).
using BulkLfsr8Wide = BulkLfsr<64>;

/// One randomness epoch's comparator sequence R_0..R_{n-1}, stored packed
/// for word-parallel encoding: the raw bytes (SIMD compare paths) plus the
/// eight transposed bit-planes (portable comparator path).
///
/// `encode(x)` produces the stochastic bit-stream whose bit i is the exact
/// comparator predicate R_i < x — the same construction as `generateSbs`,
/// evaluated 64..512 bits per instruction instead of one.
class RandomPlanes {
 public:
  RandomPlanes() = default;

  /// Adopts the epoch sequence `r[0..n)` (8-bit comparator draws).
  /// Reuses buffers across epochs.  \p mode is the width the subsequent
  /// encodes will run at: when it resolves to the portable path the
  /// transposed planes are built EAGERLY here, so `encode` on a portable
  /// host never writes shared state — shard workers adopt arenas across
  /// requests, and an encode-time lazy build would be a data race waiting
  /// to happen.  On SIMD hosts the planes stay unbuilt (the compare paths
  /// never read them); an explicit `encode(..., Portable)` on such an
  /// instance still lazily builds them, which is safe only from the
  /// single-threaded test paths that do it.
  void assign(const std::uint8_t* r, std::size_t n,
              SimdMode mode = SimdMode::Auto);

  /// Stream length (bits) this epoch encodes.
  std::size_t length() const { return n_; }

  /// True when the transposed bit-planes are materialized (eager portable
  /// assign, or a lazy build by a previous portable encode).
  bool planesReady() const { return planesBuilt_; }

  /// Encodes integer threshold \p x in [0, 256] (256 = "always 1", the
  /// `quantizeProbability` convention) into \p out: bit i = R_i < x.
  /// \p out is resized to `length()`.  All width paths are bit-identical;
  /// \p mode only selects the instructions used (resolved via
  /// `resolveSimd`, so `Auto` honours `AIMSC_SIMD`).
  void encode(std::uint32_t x, Bitstream& out,
              SimdMode mode = SimdMode::Auto) const;

 private:
  /// Transposes bytes_ into planes_ (portable comparator path only).
  void buildPlanes() const;

  std::size_t n_ = 0;      ///< stream length in bits
  std::size_t words_ = 0;  ///< ceil(n / 64)
  /// Raw comparator bytes padded to words_*64 with 0xFF (padding never
  /// satisfies R < x for x <= 255; the tail is cleared after encode).
  std::vector<std::uint8_t> bytes_;
  /// Eight bit-planes, plane b at [b * words_, (b+1) * words_): bit i of
  /// plane b = bit b of R_i.  Built eagerly by a portable-mode assign;
  /// the mutable lazy build only remains for explicit-portable encodes on
  /// SIMD-assigned instances (single-threaded callers only).
  mutable std::vector<std::uint64_t> planes_;
  mutable bool planesBuilt_ = false;
};

}  // namespace aimsc::sc
