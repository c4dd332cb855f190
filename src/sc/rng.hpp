/// \file rng.hpp
/// \brief Random-number sources used by stochastic number generators.
///
/// The paper (Table I/II) compares four SNG randomness sources:
///  * IMSNG  — segments of M true-random bits produced by the ReRAM TRNG
///             (here modelled by TrngSource; the in-array version lives in
///             src/reram/trng.*),
///  * SW     — a software RNG (MATLAB rand in the paper; MT19937 here),
///  * PRNG   — a maximal-length 8-bit LFSR,
///  * QRNG   — an 8-bit Sobol low-discrepancy sequence.
///
/// All sources implement RandomSource: a resettable stream of uniform
/// integers.  reset() restarts the sequence, which is how *correlation
/// control* is expressed: two SBS generated from the same restarted source
/// are maximally correlated (SCC = +1); streams from independent sources
/// (different seed / Sobol dimension / LFSR phase) are uncorrelated.
#pragma once

#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "sc/bitstream.hpp"

namespace aimsc::sc {

/// Abstract resettable uniform random integer source.
class RandomSource {
 public:
  virtual ~RandomSource() = default;

  /// Next uniform value in [0, 2^bits).  1 <= bits <= 32.
  virtual std::uint32_t next(int bits) = 0;

  /// Restarts the sequence from its seed/initial state.
  virtual void reset() = 0;

  /// Human-readable identifier for reports.
  virtual std::string name() const = 0;

  /// Independent copy that replays the same sequence from its start.
  virtual std::unique_ptr<RandomSource> clone() const = 0;

  /// Convenience: next value mapped to [0,1).
  double nextUnit(int bits);
};

/// Fibonacci linear-feedback shift register (the paper's PRNG baseline).
///
/// The paper states a "maximal length LFSR with polynomial x^8+x^5+x^3+1".
/// That polynomial has even weight, hence is divisible by (x+1) and cannot
/// be primitive; we interpret it as the standard maximal tap set {8,5,3,1}
/// (polynomial x^8+x^5+x^3+x+1).  A unit test asserts period 255.
class Lfsr final : public RandomSource {
 public:
  /// \param width register width in bits (1..32)
  /// \param taps  tap positions, 1-based from the output end; must include
  ///              \p width.  Feedback = XOR of tapped bits.
  /// \param seed  initial state, nonzero after masking to \p width bits.
  Lfsr(int width, std::vector<int> taps, std::uint32_t seed = 1);

  /// The paper's 8-bit PRNG baseline (taps {8,5,3,1}).
  static Lfsr paper8Bit(std::uint32_t seed = 1);

  std::uint32_t next(int bits) override;
  void reset() override;
  std::string name() const override { return "LFSR" + std::to_string(width_); }
  std::unique_ptr<RandomSource> clone() const override;

  /// Advances the register one step and returns the full-width state.
  std::uint32_t step();

  std::uint32_t state() const { return state_; }
  int width() const { return width_; }

  /// Sequence period starting from the current seed (brute force; intended
  /// for tests — returns at most 2^width).
  std::uint64_t period() const;

 private:
  int width_;
  std::uint32_t tapMask_;
  std::uint32_t seed_;
  std::uint32_t state_;
};

/// Gray-code Sobol low-discrepancy sequence (the paper's QRNG baseline).
/// Dimension 0 is the van der Corput sequence; higher dimensions use
/// Joe–Kuo direction numbers.  Distinct dimensions are mutually
/// low-correlated, which is how independent QRNG streams are drawn.
class Sobol final : public RandomSource {
 public:
  static constexpr int kMaxDimension = 10;

  /// \param dimension Sobol dimension in [0, kMaxDimension).
  /// \param skip      number of initial points to discard (default 1 skips
  ///                  the all-zero first point, standard practice in SC).
  explicit Sobol(int dimension = 0, std::uint64_t skip = 1);

  std::uint32_t next(int bits) override;
  void reset() override;
  std::string name() const override { return "Sobol dim" + std::to_string(dimension_); }
  std::unique_ptr<RandomSource> clone() const override;

  /// Next raw 32-bit Sobol value.
  std::uint32_t next32();

 private:
  void init();

  int dimension_;
  std::uint64_t skip_;
  std::uint64_t index_ = 0;
  std::uint32_t current_ = 0;
  std::uint32_t direction_[32] = {};
};

/// High-quality software PRNG (stand-in for MATLAB's rand in Table I/II).
class Mt19937Source final : public RandomSource {
 public:
  explicit Mt19937Source(std::uint64_t seed = 0x5eed);

  std::uint32_t next(int bits) override;
  void reset() override;
  std::string name() const override { return "MT19937"; }
  std::unique_ptr<RandomSource> clone() const override;

 private:
  std::uint64_t seed_;
  std::mt19937_64 eng_;
};

/// Behavioural model of the ReRAM threshold-switching TRNG [21]: a stream
/// of nominally Bernoulli(0.5) bits assembled into M-bit segments
/// (Fig. 2: "M x N TRNG stream", segment_i = one random number).
///
/// Real devices drift: \p onesBias shifts P(bit=1) to 0.5+bias, modelling
/// imperfect TRNG calibration.  Sequences are reproducible from the seed so
/// correlation control works exactly as with the other sources.
class TrngSource final : public RandomSource {
 public:
  explicit TrngSource(std::uint64_t seed = 0x7124, double onesBias = 0.0);

  std::uint32_t next(int bits) override;
  void reset() override;
  std::string name() const override { return "ReRAM-TRNG"; }
  std::unique_ptr<RandomSource> clone() const override;

  /// Next single random bit (the raw TRNG output).
  bool nextBit();

  /// Bulk random bits (word-at-a-time fast path when the source is
  /// unbiased; bit-by-bit otherwise).
  Bitstream randomBits(std::size_t n);

  /// Same bits into \p dst (resized to \p n, buffer reused) — the
  /// random-plane refresh of the ReRAM hot path draws through this form.
  void randomBitsInto(Bitstream& dst, std::size_t n);

  double onesBias() const { return onesBias_; }

  /// Adjusts the bias on the fly (models TRNG calibration drift between
  /// conversions; Table I "random fluctuations").
  void setOnesBias(double bias);

 private:
  std::uint64_t seed_;
  double onesBias_;
  std::mt19937_64 eng_;
};

}  // namespace aimsc::sc
