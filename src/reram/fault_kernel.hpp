/// \file fault_kernel.hpp
/// \brief Bit-exact blocked Monte-Carlo kernel behind `FaultModel`'s tables.
///
/// One misdecision-table entry counts, over `samples` Monte-Carlo draws,
/// how often the summed bitline current of `numRows` cells lands on the
/// wrong side of the sense-amp reference(s).  The definition of that count
/// is the per-cell loop it replaced: a `std::mt19937_64` seeded with the
/// entry seed feeds a libstdc++ `std::normal_distribution<double>`, each
/// cell's current is `vRead / (median * exp(sigma * g))` summed in row
/// order (LRS rows first), and `SenseAmp::decide` judges the sum.  This
/// kernel returns the same count, bit for bit, in three stages per block
/// of samples:
///
///  1. **Exact draw** (plain default-target code): a block MT19937-64,
///     libstdc++'s `generate_canonical` conversion and polar acceptance,
///     producing accepted pairs (x, y, r2) in the library's order.
///  2. **Approximate currents** (dispatched through `sc::resolveSimd`):
///     `m = sqrt(-2 ln r2 / r2)` once per pair and every sample's current
///     `sum (vRead/median) * exp(-sigma * g)` with branch-free polynomial
///     `log`/`exp` whose relative error is bounded (`kLogRelErr`,
///     `kExpRelErr`, `approxCurrentErrorBound`).
///  3. **Guard band**: a sample whose approximate current lies within
///     relative `guard` of a reference is recomputed with the original
///     expression and `std::` functions; every other sample is provably
///     on the same side as its exact current, because `guard` is at least
///     100x the proven error bound.
///
/// Scratch is a fixed stack block (about 11 KiB); nothing is allocated.
/// docs/RELIABILITY.md §5 carries the exactness argument.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "reram/device.hpp"
#include "reram/sense_amp.hpp"
#include "sc/simd_caps.hpp"

namespace aimsc::reram {

/// MT19937-64 with `std::mt19937_64`'s seeding, recurrence and tempering,
/// twisted 312 words at a time: it returns the same sequence as
/// `std::mt19937_64{seed}`.
class BlockMt64 {
 public:
  static constexpr std::size_t kWords = 312;

  explicit BlockMt64(std::uint64_t seed);

  std::uint64_t operator()() {
    if (pos_ == kWords) twist();
    std::uint64_t y = state_[pos_++];
    y ^= (y >> 29) & 0x5555555555555555ULL;
    y ^= (y << 17) & 0x71d67fffeda60000ULL;
    y ^= (y << 37) & 0xfff7eee000000000ULL;
    return y ^ (y >> 43);
  }

 private:
  void twist();

  std::array<std::uint64_t, kWords> state_;
  std::size_t pos_ = kWords;
};

/// libstdc++'s `generate_canonical<double, 53>` of one 64-bit engine word:
/// `static_cast<double>(word) / 2^64`, clamped below 1.
double canonicalDouble(std::uint64_t word);

/// One accepted polar-method pair.  libstdc++'s
/// `normal_distribution<double>` returns `y * m` first and keeps `x * m`
/// for its next call, with `m = sqrt(-2 ln r2 / r2)`.
struct PolarPair {
  double x;
  double y;
  double r2;
};

/// The next accepted pair, drawn as libstdc++ draws it: x then y from
/// `2 * canonicalDouble(eng()) - 1`, redrawn while r2 > 1 or r2 == 0.
PolarPair drawPolarPair(BlockMt64& eng);

/// The exact normal variate of one coordinate \p c of a pair with radius
/// \p r2: `c * std::sqrt(-2 * std::log(r2) / r2)`, libstdc++'s expression.
double polarNormal(double c, double r2);

/// Branch-free polynomial natural log for positive normal \p x, and its
/// relative-error bound (the analysis gives about 10 ulp; 1e-14 is stated).
double approxLog(double x);
inline constexpr double kLogRelErr = 1e-14;

/// Branch-free polynomial exp for |t| <= kApproxExpRange, and its
/// relative-error bound (about 4 ulp by analysis; 1e-14 is stated).
double approxExp(double t);
inline constexpr double kExpRelErr = 1e-14;
inline constexpr double kApproxExpRange = 700.0;

/// Largest |normal| the polar method can return: r2 >= 2^-106, so
/// |c| * m <= sqrt(-2 ln r2) <= 12.13.
inline constexpr double kMaxAbsNormal = 12.5;

/// Proven bound on the relative error of a stage-2 approximate current
/// against the exact expression, for cell sigmas up to \p sigmaMax summed
/// over \p numRows rows.
double approxCurrentErrorBound(double sigmaMax, int numRows);

/// Relative half-width of the guard band around each sense reference.
inline constexpr double kDefaultGuard = 1e-9;

struct MisdecisionKernelOptions {
  /// Instruction-set rung for stage 2 (never changes the count).
  sc::SimdMode simd = sc::SimdMode::Auto;
  /// Guard half-width; `infinity` recomputes every sample exactly (the
  /// forced-exact test seam).  A guard under 100x the error bound for the
  /// device makes the kernel draw and decide every sample exactly.
  double guard = kDefaultGuard;
};

/// Number of the \p samples Monte-Carlo draws on which \p op over
/// \p numRows cells, \p onesCount of them in LRS, is misdecided; the
/// normal stream is seeded with \p seed.  Throws std::invalid_argument on
/// invalid device parameters (`validateDeviceParams`).
std::size_t countMisdecisions(const DeviceParams& params, SlOp op,
                              int onesCount, int numRows, std::uint64_t seed,
                              std::size_t samples,
                              const MisdecisionKernelOptions& options = {});

}  // namespace aimsc::reram
