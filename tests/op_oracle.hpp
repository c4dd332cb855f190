// Op-level oracles shared by the test suites: the `OpSurface` vocabulary,
// the per-bit SW-SC oracle, and `SurfaceBackend`, which puts any oracle
// behind the `ScBackend` interface so app kernels and lane fleets can run
// on it exactly as they run on a substrate.
#pragma once

#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/backend.hpp"
#include "core/backend_swsc.hpp"
#include "sc/bernstein.hpp"
#include "sc/bitstream.hpp"
#include "sc/cordiv.hpp"
#include "sc/ops.hpp"
#include "sc/rng.hpp"
#include "sc/sfmt.hpp"
#include "sc/sng.hpp"

namespace aimsc::oracle {

using core::ScValue;

/// The op vocabulary an oracle answers (values by copy, so every
/// implementation is free to allocate).
class OpSurface {
 public:
  virtual ~OpSurface() = default;
  virtual std::vector<ScValue> encode(std::span<const std::uint8_t> values,
                                      bool freshEpoch) = 0;
  virtual ScValue encodeProb(double p) = 0;
  virtual ScValue half() = 0;
  virtual std::vector<ScValue> copies(std::uint8_t v, std::size_t k) = 0;
  virtual ScValue multiply(const ScValue& x, const ScValue& y) = 0;
  virtual ScValue scaledAdd(const ScValue& x, const ScValue& y,
                            const ScValue& h) = 0;
  virtual ScValue addApprox(const ScValue& x, const ScValue& y) = 0;
  virtual ScValue absSub(const ScValue& x, const ScValue& y) = 0;
  virtual ScValue minimum(const ScValue& x, const ScValue& y) = 0;
  virtual ScValue maximum(const ScValue& x, const ScValue& y) = 0;
  virtual ScValue majMux(const ScValue& x, const ScValue& y,
                         const ScValue& s) = 0;
  virtual ScValue majMux4(const ScValue& a, const ScValue& b,
                          const ScValue& c, const ScValue& d,
                          const ScValue& sx, const ScValue& sy) = 0;
  virtual ScValue divide(const ScValue& num, const ScValue& den) = 0;
  virtual ScValue bernstein(const std::vector<ScValue>& xCopies,
                            const std::vector<ScValue>& coeffs) = 0;
  virtual std::vector<std::uint8_t> decode(std::vector<ScValue> values,
                                           bool stored) = 0;
  virtual reram::EventCounts events() const { return reram::EventCounts{}; }
  virtual std::uint64_t opCount() const = 0;
};

inline std::vector<sc::Bitstream> streamsOf(
    const std::vector<ScValue>& values) {
  std::vector<sc::Bitstream> out;
  for (const ScValue& v : values) out.push_back(v.stream);
  return out;
}

/// ADC-free counter decode of a software stream: round(popcount / N * 255).
inline std::uint8_t counterDecode(const sc::Bitstream& s) {
  const double p =
      static_cast<double>(s.popcount()) / static_cast<double>(s.size());
  return static_cast<std::uint8_t>(std::lround(p * 255.0));
}

/// Per-bit SW-SC oracle: one freshly seeded source per stream (the
/// restarted epoch source) drawn one `RandomSource::next` call per bit, the
/// constant bank rotation per epoch, the sc:: allocating gates, the serial
/// flip-flop CORDIV and one opCount charge per serial gate pass.  It shares
/// only the seed derivation with `core::SwScBackend`.
class SwScBitOracle final : public OpSurface {
 public:
  explicit SwScBitOracle(const core::SwScConfig& config) : config_(config) {
    newEpoch();  // the backend opens epoch 1 at construction
  }
  std::vector<ScValue> encode(std::span<const std::uint8_t> values,
                              bool freshEpoch) override {
    if (freshEpoch) newEpoch();
    std::vector<ScValue> out;
    for (const std::uint8_t v : values) out.push_back(pixel(v));
    return out;
  }
  ScValue encodeProb(double p) override {
    const std::uint32_t x = sc::quantizeProbability(p, 8);
    const std::uint32_t ordinal = used_[x]++;
    const auto src = core::swScConstantSource(config_, x, ordinal);
    return ScValue::ofStream(
        sc::generateSbsFromProb(*src, p, 8, config_.streamLength));
  }
  ScValue half() override { return encodeProb(0.5); }
  std::vector<ScValue> copies(std::uint8_t v, std::size_t k) override {
    std::vector<ScValue> out;
    for (std::size_t i = 0; i < k; ++i) {
      newEpoch();
      out.push_back(pixel(v));
    }
    return out;
  }
  ScValue multiply(const ScValue& x, const ScValue& y) override {
    return pass(1, sc::scMultiply(x.stream, y.stream));
  }
  ScValue scaledAdd(const ScValue& x, const ScValue& y,
                    const ScValue& h) override {
    return pass(1, sc::scScaledAddMux(x.stream, y.stream, h.stream));
  }
  ScValue addApprox(const ScValue& x, const ScValue& y) override {
    return pass(1, sc::scAddOr(x.stream, y.stream));
  }
  ScValue absSub(const ScValue& x, const ScValue& y) override {
    return pass(1, sc::scAbsSub(x.stream, y.stream));
  }
  ScValue minimum(const ScValue& x, const ScValue& y) override {
    return pass(1, sc::scMin(x.stream, y.stream));
  }
  ScValue maximum(const ScValue& x, const ScValue& y) override {
    return pass(1, sc::scMax(x.stream, y.stream));
  }
  ScValue majMux(const ScValue& x, const ScValue& y,
                 const ScValue& s) override {
    return pass(1, sc::Bitstream::mux(x.stream, y.stream, s.stream));
  }
  ScValue majMux4(const ScValue& a, const ScValue& b, const ScValue& c,
                  const ScValue& d, const ScValue& sx,
                  const ScValue& sy) override {
    return pass(3, sc::scMux4(a.stream, b.stream, c.stream, d.stream,
                              sx.stream, sy.stream));
  }
  ScValue divide(const ScValue& num, const ScValue& den) override {
    return pass(1, sc::cordivDivide(num.stream, den.stream));
  }
  ScValue bernstein(const std::vector<ScValue>& xCopies,
                    const std::vector<ScValue>& coeffs) override {
    // One pass per level of the (copies + coeffs - 1)-deep select network.
    return pass(xCopies.size() + coeffs.size() - 1,
                sc::scBernsteinSelect(streamsOf(xCopies), streamsOf(coeffs)));
  }
  std::vector<std::uint8_t> decode(std::vector<ScValue> values,
                                   bool /*stored*/) override {
    std::vector<std::uint8_t> out;
    for (const ScValue& v : values) out.push_back(counterDecode(v.stream));
    return out;
  }
  std::uint64_t opCount() const override { return passes_; }

 private:
  void newEpoch() {
    ++epoch_;
    used_.clear();  // the constant bank rewinds every epoch
  }
  std::unique_ptr<sc::RandomSource> epochSource() const {
    switch (config_.sng) {
      case core::SwScSng::Lfsr:
        return std::make_unique<sc::Lfsr>(sc::Lfsr::paper8Bit(
            core::swScLfsrSeedForEpoch(config_.seed, epoch_)));
      case core::SwScSng::Sobol: {
        const core::SwScSobolEpoch e =
            core::swScSobolForEpoch(config_.seed, epoch_);
        return std::make_unique<sc::Sobol>(e.dimension, e.skip);
      }
      case core::SwScSng::Sfmt:
        return std::make_unique<sc::Sfmt>(
            core::swScSfmtSeedForEpoch(config_.seed, epoch_));
    }
    return nullptr;
  }
  ScValue pixel(std::uint8_t v) const {
    const auto src = epochSource();
    return ScValue::ofStream(sc::generateSbsFromProb(
        *src, static_cast<double>(v) / 255.0, 8, config_.streamLength));
  }
  ScValue pass(std::uint64_t passes, sc::Bitstream s) {
    passes_ += passes;
    return ScValue::ofStream(std::move(s));
  }

  core::SwScConfig config_;
  std::uint64_t epoch_ = 0;
  std::map<std::uint32_t, std::uint32_t> used_;
  std::uint64_t passes_ = 0;
};

/// An `OpSurface` behind the `ScBackend` interface: every `*Into` form
/// answers from the oracle, so the fused app kernels, the verbatim seed
/// loops and `TileExecutor` lane fleets run on an oracle unchanged.
class SurfaceBackend final : public core::ScBackend {
 public:
  explicit SurfaceBackend(std::unique_ptr<OpSurface> surface)
      : s_(std::move(surface)) {}

  const char* name() const override { return "op oracle"; }

  void encodePixelsInto(std::span<const std::uint8_t> values,
                        std::span<ScValue> out) override {
    fill(out, s_->encode(values, true));
  }
  void encodePixelsCorrelatedInto(std::span<const std::uint8_t> values,
                                  std::span<ScValue> out) override {
    fill(out, s_->encode(values, false));
  }
  void encodeCopiesInto(std::uint8_t v, std::span<ScValue> out) override {
    fill(out, s_->copies(v, out.size()));
  }
  void encodeProbInto(ScValue& dst, double p) override {
    dst = s_->encodeProb(p);
  }
  void halfStreamInto(ScValue& dst) override { dst = s_->half(); }
  void multiplyInto(ScValue& dst, const ScValue& x, const ScValue& y) override {
    dst = s_->multiply(x, y);
  }
  void scaledAddInto(ScValue& dst, const ScValue& x, const ScValue& y,
                     const ScValue& half) override {
    dst = s_->scaledAdd(x, y, half);
  }
  void addApproxInto(ScValue& dst, const ScValue& x,
                     const ScValue& y) override {
    dst = s_->addApprox(x, y);
  }
  void absSubInto(ScValue& dst, const ScValue& x, const ScValue& y) override {
    dst = s_->absSub(x, y);
  }
  void minimumInto(ScValue& dst, const ScValue& x, const ScValue& y) override {
    dst = s_->minimum(x, y);
  }
  void maximumInto(ScValue& dst, const ScValue& x, const ScValue& y) override {
    dst = s_->maximum(x, y);
  }
  void majMuxInto(ScValue& dst, const ScValue& x, const ScValue& y,
                  const ScValue& sel) override {
    dst = s_->majMux(x, y, sel);
  }
  void majMux4Into(ScValue& dst, const ScValue& i11, const ScValue& i12,
                   const ScValue& i21, const ScValue& i22, const ScValue& sx,
                   const ScValue& sy) override {
    dst = s_->majMux4(i11, i12, i21, i22, sx, sy);
  }
  void divideInto(ScValue& dst, const ScValue& num,
                  const ScValue& den) override {
    dst = s_->divide(num, den);
  }
  void decodePixelsInto(std::span<ScValue> values,
                        std::span<std::uint8_t> out) override {
    fill(out, s_->decode({values.begin(), values.end()}, false));
  }
  void decodePixelsStoredInto(std::span<ScValue> values,
                              std::span<std::uint8_t> out) override {
    fill(out, s_->decode({values.begin(), values.end()}, true));
  }
  reram::EventCounts events() const override { return s_->events(); }
  std::uint64_t opCount() const override { return s_->opCount(); }

 protected:
  void doBernsteinSelectInto(ScValue& dst, std::span<const ScValue> xCopies,
                             std::span<const ScValue> coeffSelects) override {
    dst = s_->bernstein({xCopies.begin(), xCopies.end()},
                        {coeffSelects.begin(), coeffSelects.end()});
  }

 private:
  template <typename T>
  static void fill(std::span<T> out, std::vector<T> got) {
    if (got.size() != out.size()) {
      throw std::invalid_argument("SurfaceBackend: destination size mismatch");
    }
    for (std::size_t i = 0; i < got.size(); ++i) out[i] = std::move(got[i]);
  }

  std::unique_ptr<OpSurface> s_;
};

/// `SurfaceBackend` over a per-bit SW-SC oracle for \p config.
inline std::unique_ptr<core::ScBackend> swScBitOracleBackend(
    const core::SwScConfig& config) {
  return std::make_unique<SurfaceBackend>(
      std::make_unique<SwScBitOracle>(config));
}

}  // namespace aimsc::oracle
