// Conformance of the destination-passing (*Into) ScBackend forms: every op
// must produce EXACTLY the payloads, randomness epochs and event/op
// accounting of an independent per-substrate oracle, and every fused app
// kernel those of the pre-arena (PR-4) allocating row loops, kept verbatim
// below.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "apps/bilinear.hpp"
#include "apps/compositing.hpp"
#include "apps/filters.hpp"
#include "apps/matting.hpp"
#include "apps/morphology.hpp"
#include "apps/runner.hpp"
#include "core/accelerator.hpp"
#include "core/backend.hpp"
#include "core/backend_swsc.hpp"
#include "core/stream_arena.hpp"
#include "img/image.hpp"
#include "img/synth.hpp"
#include "reliability/fault_plan.hpp"
#include "sc/bernstein.hpp"
#include "sc/cordiv.hpp"
#include "sc/ops.hpp"
#include "sc/rng.hpp"
#include "sc/sfmt.hpp"
#include "sc/sng.hpp"

namespace aimsc::core {
namespace {

// --- op-level conformance against independent oracles -----------------------
//
// The allocating ScBackend forms are generic wrappers over the *Into forms,
// so comparing the two would compare a path with itself.  Instead, one
// fixed op script drives each substrate's *Into forms and an oracle that
// shares no code with them:
//  * ReramSc: a twin core::Accelerator with the same AcceleratorConfig,
//    driven through its own allocating API (encodePixels, ops(), decode);
//  * SwSc LFSR/Sobol/SFMT: per-bit sc::generateSbsFromProb over the
//    swSc*ForEpoch seeds, the sc::sc* allocating gates and serial
//    sc::cordivDivide, with the documented opCount charges;
//  * SwScSimd: the per-bit LFSR oracle, and the scalar SwScLfsr backend;
//  * Reference and BinaryCim: closed-form arithmetic written out below.

constexpr std::size_t kOracleN = 256;
constexpr std::uint64_t kOracleSeed = 0xabcd;

/// The op vocabulary the script drives (values by copy, so every
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

/// Everything the script observed, in call order.
struct OpTrace {
  std::vector<std::string> names;
  std::vector<ScValue> values;
  std::vector<std::uint8_t> bytes;
  reram::EventCounts events;
  std::uint64_t opCount = 0;
};

OpTrace runOpScript(OpSurface& s) {
  OpTrace t;
  const auto note = [&t](const char* name, const ScValue& v) {
    t.names.emplace_back(name);
    t.values.push_back(v);
  };
  const auto noteAll = [&](const char* name, const std::vector<ScValue>& vs) {
    for (const ScValue& v : vs) note(name, v);
  };
  const std::vector<std::uint8_t> xs{10, 100, 200};
  const std::vector<std::uint8_t> ys{30, 60, 250};
  const auto x = s.encode(xs, true);
  const auto y = s.encode(ys, false);
  noteAll("encodePixels", x);
  noteAll("encodePixelsCorrelated", y);
  // Two P=0.5 constants in one epoch: successive, independent pool entries.
  const ScValue h = s.half();
  note("halfStream", h);
  note("encodeProb(0.5)", s.encodeProb(0.5));
  note("encodeProb(0.3)", s.encodeProb(0.3));
  note("multiply", s.multiply(x[0], x[1]));
  note("scaledAdd", s.scaledAdd(x[0], x[1], h));
  note("addApprox", s.addApprox(x[0], x[1]));
  note("absSub", s.absSub(x[0], y[0]));
  note("minimum", s.minimum(x[0], y[0]));
  note("maximum", s.maximum(x[0], y[0]));
  note("majMux", s.majMux(x[0], y[0], x[2]));
  note("majMux4", s.majMux4(x[0], x[1], y[0], y[1], x[2], y[2]));
  const ScValue q = s.divide(x[0], y[2]);
  note("divide", q);
  // Bernstein: epoch-advancing copies, then constants in the new epoch.
  const auto cs = s.copies(140, 3);
  noteAll("encodeCopies", cs);
  std::vector<ScValue> coeffs;
  for (const double bk : {0.0, 0.25, 0.5, 1.0}) coeffs.push_back(s.encodeProb(bk));
  noteAll("bernstein coeff", coeffs);
  note("bernsteinSelect", s.bernstein(cs, coeffs));
  // A correlated encode after the copies joins the last copy's epoch.
  noteAll("encodePixelsCorrelated after copies",
          s.encode(std::vector<std::uint8_t>{140, 70}, false));
  t.bytes = s.decode(y, false);
  const auto stored = s.decode({q, x[1]}, true);
  t.bytes.insert(t.bytes.end(), stored.begin(), stored.end());
  t.events = s.events();
  t.opCount = s.opCount();
  return t;
}

/// Drives a backend through its *Into forms only.
class IntoDriver final : public OpSurface {
 public:
  explicit IntoDriver(ScBackend& b) : b_(b) {}
  std::vector<ScValue> encode(std::span<const std::uint8_t> values,
                              bool freshEpoch) override {
    std::vector<ScValue> out(values.size());
    if (freshEpoch) {
      b_.encodePixelsInto(values, out);
    } else {
      b_.encodePixelsCorrelatedInto(values, out);
    }
    return out;
  }
  ScValue encodeProb(double p) override {
    ScValue v;
    b_.encodeProbInto(v, p);
    return v;
  }
  ScValue half() override {
    ScValue v;
    b_.halfStreamInto(v);
    return v;
  }
  std::vector<ScValue> copies(std::uint8_t v, std::size_t k) override {
    std::vector<ScValue> out(k);
    b_.encodeCopiesInto(v, out);
    return out;
  }
  ScValue multiply(const ScValue& x, const ScValue& y) override {
    ScValue v;
    b_.multiplyInto(v, x, y);
    return v;
  }
  ScValue scaledAdd(const ScValue& x, const ScValue& y,
                    const ScValue& h) override {
    ScValue v;
    b_.scaledAddInto(v, x, y, h);
    return v;
  }
  ScValue addApprox(const ScValue& x, const ScValue& y) override {
    ScValue v;
    b_.addApproxInto(v, x, y);
    return v;
  }
  ScValue absSub(const ScValue& x, const ScValue& y) override {
    ScValue v;
    b_.absSubInto(v, x, y);
    return v;
  }
  ScValue minimum(const ScValue& x, const ScValue& y) override {
    ScValue v;
    b_.minimumInto(v, x, y);
    return v;
  }
  ScValue maximum(const ScValue& x, const ScValue& y) override {
    ScValue v;
    b_.maximumInto(v, x, y);
    return v;
  }
  ScValue majMux(const ScValue& x, const ScValue& y,
                 const ScValue& s) override {
    ScValue v;
    b_.majMuxInto(v, x, y, s);
    return v;
  }
  ScValue majMux4(const ScValue& a, const ScValue& b, const ScValue& c,
                  const ScValue& d, const ScValue& sx,
                  const ScValue& sy) override {
    ScValue v;
    b_.majMux4Into(v, a, b, c, d, sx, sy);
    return v;
  }
  ScValue divide(const ScValue& num, const ScValue& den) override {
    ScValue v;
    b_.divideInto(v, num, den);
    return v;
  }
  ScValue bernstein(const std::vector<ScValue>& xCopies,
                    const std::vector<ScValue>& coeffs) override {
    ScValue v;
    b_.bernsteinSelectInto(v, xCopies, coeffs);
    return v;
  }
  std::vector<std::uint8_t> decode(std::vector<ScValue> values,
                                   bool stored) override {
    std::vector<std::uint8_t> out(values.size());
    if (stored) {
      b_.decodePixelsStoredInto(values, out);
    } else {
      b_.decodePixelsInto(values, out);
    }
    return out;
  }
  reram::EventCounts events() const override { return b_.events(); }
  std::uint64_t opCount() const override { return b_.opCount(); }

 private:
  ScBackend& b_;
};

std::vector<sc::Bitstream> streamsOf(const std::vector<ScValue>& values) {
  std::vector<sc::Bitstream> out;
  for (const ScValue& v : values) out.push_back(v.stream);
  return out;
}

std::vector<ScValue> wrapStreams(std::vector<sc::Bitstream> streams) {
  std::vector<ScValue> out;
  for (auto& s : streams) out.push_back(ScValue::ofStream(std::move(s)));
  return out;
}

/// ReRAM-SC oracle: a twin mat driven through the Accelerator / ImOps
/// allocating API.
class ReramOracle final : public OpSurface {
 public:
  explicit ReramOracle(const AcceleratorConfig& config) : acc_(config) {}
  std::vector<ScValue> encode(std::span<const std::uint8_t> values,
                              bool freshEpoch) override {
    return wrapStreams(freshEpoch ? acc_.encodePixels(values)
                                  : acc_.encodePixelsCorrelated(values));
  }
  ScValue encodeProb(double p) override {
    return ScValue::ofStream(acc_.encodeProb(p));
  }
  ScValue half() override { return ScValue::ofStream(acc_.halfStream()); }
  std::vector<ScValue> copies(std::uint8_t v, std::size_t k) override {
    std::vector<ScValue> out;
    for (std::size_t i = 0; i < k; ++i) {
      out.push_back(ScValue::ofStream(acc_.encodePixel(v)));
    }
    return out;
  }
  ScValue multiply(const ScValue& x, const ScValue& y) override {
    return ScValue::ofStream(acc_.ops().multiply(x.stream, y.stream));
  }
  ScValue scaledAdd(const ScValue& x, const ScValue& y,
                    const ScValue& h) override {
    return ScValue::ofStream(acc_.ops().scaledAdd(x.stream, y.stream, h.stream));
  }
  ScValue addApprox(const ScValue& x, const ScValue& y) override {
    return ScValue::ofStream(acc_.ops().addApprox(x.stream, y.stream));
  }
  ScValue absSub(const ScValue& x, const ScValue& y) override {
    return ScValue::ofStream(acc_.ops().absSub(x.stream, y.stream));
  }
  ScValue minimum(const ScValue& x, const ScValue& y) override {
    return ScValue::ofStream(acc_.ops().minimum(x.stream, y.stream));
  }
  ScValue maximum(const ScValue& x, const ScValue& y) override {
    return ScValue::ofStream(acc_.ops().maximum(x.stream, y.stream));
  }
  ScValue majMux(const ScValue& x, const ScValue& y,
                 const ScValue& s) override {
    return ScValue::ofStream(acc_.ops().majMux(x.stream, y.stream, s.stream));
  }
  ScValue majMux4(const ScValue& a, const ScValue& b, const ScValue& c,
                  const ScValue& d, const ScValue& sx,
                  const ScValue& sy) override {
    return ScValue::ofStream(acc_.ops().majMux4(a.stream, b.stream, c.stream,
                                                d.stream, sx.stream, sy.stream));
  }
  ScValue divide(const ScValue& num, const ScValue& den) override {
    return ScValue::ofStream(acc_.ops().divide(num.stream, den.stream));
  }
  ScValue bernstein(const std::vector<ScValue>& xCopies,
                    const std::vector<ScValue>& coeffs) override {
    return ScValue::ofStream(
        acc_.ops().bernsteinSelect(streamsOf(xCopies), streamsOf(coeffs)));
  }
  std::vector<std::uint8_t> decode(std::vector<ScValue> values,
                                   bool stored) override {
    const auto streams = streamsOf(values);
    return stored ? acc_.decodePixelsStored(streams)
                  : acc_.decodePixels(streams);
  }
  reram::EventCounts events() const override { return acc_.events(); }
  std::uint64_t opCount() const override { return 0; }

 private:
  Accelerator acc_;
};

/// ADC-free counter decode of a software stream: round(popcount / N * 255).
std::uint8_t counterDecode(const sc::Bitstream& s) {
  const double p =
      static_cast<double>(s.popcount()) / static_cast<double>(s.size());
  return static_cast<std::uint8_t>(std::lround(p * 255.0));
}

/// Per-bit SW-SC oracle: one freshly seeded source per stream (the
/// restarted epoch source), the constant bank rotation per epoch, the sc::
/// allocating gates and one opCount charge per serial gate pass.
class SwScBitOracle final : public OpSurface {
 public:
  explicit SwScBitOracle(SwScSng sng) {
    config_.streamLength = kOracleN;
    config_.sng = sng;
    config_.seed = kOracleSeed;
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
    const auto src = swScConstantSource(config_, x, ordinal);
    return ScValue::ofStream(sc::generateSbsFromProb(*src, p, 8, kOracleN));
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
      case SwScSng::Lfsr:
        return std::make_unique<sc::Lfsr>(
            sc::Lfsr::paper8Bit(swScLfsrSeedForEpoch(kOracleSeed, epoch_)));
      case SwScSng::Sobol: {
        const SwScSobolEpoch e = swScSobolForEpoch(kOracleSeed, epoch_);
        return std::make_unique<sc::Sobol>(e.dimension, e.skip);
      }
      case SwScSng::Sfmt:
        return std::make_unique<sc::Sfmt>(
            swScSfmtSeedForEpoch(kOracleSeed, epoch_));
    }
    return nullptr;
  }
  ScValue pixel(std::uint8_t v) const {
    const auto src = epochSource();
    return ScValue::ofStream(sc::generateSbsFromProb(
        *src, static_cast<double>(v) / 255.0, 8, kOracleN));
  }
  ScValue pass(std::uint64_t passes, sc::Bitstream s) {
    passes_ += passes;
    return ScValue::ofStream(std::move(s));
  }

  SwScConfig config_;
  std::uint64_t epoch_ = 0;
  std::map<std::uint32_t, std::uint32_t> used_;
  std::uint64_t passes_ = 0;
};

/// Exact-probability oracle: the ideal value of every op.
class ReferenceOracle final : public OpSurface {
 public:
  std::vector<ScValue> encode(std::span<const std::uint8_t> values,
                              bool /*freshEpoch*/) override {
    std::vector<ScValue> out;
    for (const std::uint8_t v : values) out.push_back(prob(v / 255.0));
    return out;
  }
  ScValue encodeProb(double p) override { return prob(p); }
  ScValue half() override { return prob(0.5); }
  std::vector<ScValue> copies(std::uint8_t v, std::size_t k) override {
    return std::vector<ScValue>(k, prob(v / 255.0));
  }
  ScValue multiply(const ScValue& x, const ScValue& y) override {
    return prob(x.prob * y.prob);
  }
  ScValue scaledAdd(const ScValue& x, const ScValue& y,
                    const ScValue& /*h*/) override {
    return prob((x.prob + y.prob) / 2.0);
  }
  ScValue addApprox(const ScValue& x, const ScValue& y) override {
    return prob(x.prob + y.prob - x.prob * y.prob);
  }
  ScValue absSub(const ScValue& x, const ScValue& y) override {
    return prob(std::abs(x.prob - y.prob));
  }
  ScValue minimum(const ScValue& x, const ScValue& y) override {
    return prob(x.prob < y.prob ? x.prob : y.prob);
  }
  ScValue maximum(const ScValue& x, const ScValue& y) override {
    return prob(x.prob > y.prob ? x.prob : y.prob);
  }
  ScValue majMux(const ScValue& x, const ScValue& y,
                 const ScValue& s) override {
    return prob(x.prob * s.prob + y.prob * (1.0 - s.prob));
  }
  ScValue majMux4(const ScValue& a, const ScValue& b, const ScValue& c,
                  const ScValue& d, const ScValue& sx,
                  const ScValue& sy) override {
    const double dx = sx.prob;
    const double dy = sy.prob;
    return prob((1 - dx) * (1 - dy) * a.prob + (1 - dx) * dy * b.prob +
                dx * (1 - dy) * c.prob + dx * dy * d.prob);
  }
  ScValue divide(const ScValue& num, const ScValue& den) override {
    // Below one LSB the quotient is unspecified and pinned to 0.
    if (den.prob * 255.0 < 1.0) return prob(0.0);
    const double q = num.prob / den.prob;
    return prob(q > 1.0 ? 1.0 : q);
  }
  ScValue bernstein(const std::vector<ScValue>& xCopies,
                    const std::vector<ScValue>& coeffs) override {
    // B_n(x) = sum_k b_k C(n,k) x^k (1-x)^(n-k), summed term by term.
    const std::size_t n = xCopies.size();
    const double x = xCopies.front().prob;
    double sum = 0.0;
    double binom = 1.0;
    for (std::size_t k = 0; k <= n; ++k) {
      sum += coeffs[k].prob * binom * std::pow(x, static_cast<double>(k)) *
             std::pow(1.0 - x, static_cast<double>(n - k));
      binom = binom * static_cast<double>(n - k) / static_cast<double>(k + 1);
    }
    return prob(sum);
  }
  std::vector<std::uint8_t> decode(std::vector<ScValue> values,
                                   bool /*stored*/) override {
    std::vector<std::uint8_t> out;
    for (const ScValue& v : values) {
      out.push_back(static_cast<std::uint8_t>(std::lround(v.prob * 255.0)));
    }
    return out;
  }
  std::uint64_t opCount() const override { return 0; }

 private:
  static ScValue prob(double p) { return ScValue::ofProb(p); }
};

/// Binary-CIM oracle: the integer results of the AritPIM decompositions in
/// closed form, and their fault-free MAGIC cycle charges (full adder 18,
/// saturating subtract 19 per bit; an n-bit multiply (3 + 2*18) * n^2; a
/// restoring divide 19 * numBits * (denBits + 2)).
class BinaryCimOracle final : public OpSurface {
 public:
  std::vector<ScValue> encode(std::span<const std::uint8_t> values,
                              bool /*freshEpoch*/) override {
    std::vector<ScValue> out;
    for (const std::uint8_t v : values) out.push_back(ScValue::ofWord(v));
    return out;
  }
  ScValue encodeProb(double p) override {
    return ScValue::ofWord(static_cast<std::uint32_t>(std::lround(p * 255.0)));
  }
  ScValue half() override { return ScValue::ofWord(128); }
  std::vector<ScValue> copies(std::uint8_t v, std::size_t k) override {
    return std::vector<ScValue>(k, ScValue::ofWord(v));
  }
  ScValue multiply(const ScValue& x, const ScValue& y) override {
    gates_ += mul8() + add(16);
    return word(capped((x.word * y.word + 128) >> 8));
  }
  ScValue scaledAdd(const ScValue& x, const ScValue& y,
                    const ScValue& /*h*/) override {
    gates_ += add(9) + add(10);
    return word(capped((x.word + y.word + 1) >> 1));
  }
  ScValue addApprox(const ScValue& x, const ScValue& y) override {
    gates_ += add(9) + mul8() + add(16) + sub(9);
    const std::uint32_t sum = x.word + y.word;
    const std::uint32_t prod = (x.word * y.word + 128) >> 8;
    return word(capped(sum >= prod ? sum - prod : 0));
  }
  ScValue absSub(const ScValue& x, const ScValue& y) override {
    gates_ += 2 * sub(8);
    return word(x.word > y.word ? x.word - y.word : y.word - x.word);
  }
  ScValue minimum(const ScValue& x, const ScValue& y) override {
    gates_ += 2 * sub(8);
    return word(x.word < y.word ? x.word : y.word);
  }
  ScValue maximum(const ScValue& x, const ScValue& y) override {
    gates_ += sub(8) + add(8);
    return word(x.word > y.word ? x.word : y.word);
  }
  ScValue majMux(const ScValue& x, const ScValue& y,
                 const ScValue& s) override {
    // sel weights x: (x*s + y*(255-s) + 128) / 256.
    return word(lerp(y.word, x.word, s.word));
  }
  ScValue majMux4(const ScValue& a, const ScValue& b, const ScValue& c,
                  const ScValue& d, const ScValue& sx,
                  const ScValue& sy) override {
    const std::uint32_t top = lerp(a.word, c.word, sx.word);
    const std::uint32_t bottom = lerp(b.word, d.word, sx.word);
    return word(lerp(top, bottom, sy.word));
  }
  ScValue divide(const ScValue& num, const ScValue& den) override {
    // alpha = num * 255 / den, a zero denominator saturating to 2^16 - 1.
    gates_ += mul8() + 19 * 16 * (8 + 2);
    return word(den.word == 0 ? 0xffff : num.word * 255 / den.word);
  }
  ScValue bernstein(const std::vector<ScValue>& xCopies,
                    const std::vector<ScValue>& coeffs) override {
    // De Casteljau at t = x: n rounds of lerps.
    std::vector<std::uint32_t> c;
    for (const ScValue& v : coeffs) c.push_back(v.word);
    for (std::size_t round = c.size() - 1; round > 0; --round) {
      for (std::size_t k = 0; k < round; ++k) {
        c[k] = lerp(c[k], c[k + 1], xCopies.front().word);
      }
    }
    return word(c[0]);
  }
  std::vector<std::uint8_t> decode(std::vector<ScValue> values,
                                   bool /*stored*/) override {
    std::vector<std::uint8_t> out;
    for (const ScValue& v : values) {
      out.push_back(static_cast<std::uint8_t>(capped(v.word)));
    }
    return out;
  }
  std::uint64_t opCount() const override { return gates_; }

 private:
  static std::uint64_t add(std::uint64_t bits) { return 18 * bits; }
  static std::uint64_t sub(std::uint64_t bits) { return 19 * bits; }
  static std::uint64_t mul8() { return (3 + 2 * 18) * 8 * 8; }
  static std::uint32_t capped(std::uint32_t v) { return v > 255 ? 255 : v; }
  static ScValue word(std::uint32_t w) { return ScValue::ofWord(w); }
  /// ((255 - t) * a + t * b + 128) / 256, capped at 255.
  std::uint32_t lerp(std::uint32_t a, std::uint32_t b, std::uint32_t t) {
    gates_ += sub(8) + 2 * mul8() + add(16) + add(17);
    return capped(((255 - t) * a + t * b + 128) >> 8);
  }

  std::uint64_t gates_ = 0;
};

struct OracleCase {
  const char* name;
  DesignKind design;
  bool deviceVariability;  ///< ReRAM: probabilistic sensing on
};

void PrintTo(const OracleCase& c, std::ostream* os) { *os << c.name; }

BackendFactoryConfig oracleFactoryConfig(const OracleCase& c) {
  BackendFactoryConfig cfg;
  cfg.streamLength = kOracleN;
  cfg.seed = kOracleSeed;
  if (c.deviceVariability) {
    cfg.faults = reliability::FaultPlan::deviceOnly(
        apps::defaultFaultyDevice(), /*samples=*/4000);
  }
  return cfg;
}

std::unique_ptr<OpSurface> makeOracle(const OracleCase& c) {
  switch (c.design) {
    case DesignKind::Reference: return std::make_unique<ReferenceOracle>();
    case DesignKind::SwScLfsr:
    case DesignKind::SwScSimd:
      return std::make_unique<SwScBitOracle>(SwScSng::Lfsr);
    case DesignKind::SwScSobol:
      return std::make_unique<SwScBitOracle>(SwScSng::Sobol);
    case DesignKind::SwScSfmt:
      return std::make_unique<SwScBitOracle>(SwScSng::Sfmt);
    case DesignKind::ReramSc: {
      const BackendFactoryConfig cfg = oracleFactoryConfig(c);
      AcceleratorConfig ac;
      ac.streamLength = cfg.streamLength;
      ac.seed = cfg.seed;
      ac.deviceVariability = cfg.faults.deviceVariability;
      ac.device = cfg.faults.device;
      ac.faultModelSamples = cfg.faults.faultModelSamples;
      return std::make_unique<ReramOracle>(ac);
    }
    case DesignKind::BinaryCim: return std::make_unique<BinaryCimOracle>();
  }
  return nullptr;
}

void expectSameTrace(const OpTrace& got, const OpTrace& want) {
  ASSERT_EQ(got.values.size(), want.values.size());
  for (std::size_t k = 0; k < got.values.size(); ++k) {
    const std::string& what = got.names[k];
    EXPECT_EQ(got.values[k].stream, want.values[k].stream) << what;
    EXPECT_NEAR(got.values[k].prob, want.values[k].prob, 1e-12) << what;
    EXPECT_EQ(got.values[k].word, want.values[k].word) << what;
  }
  EXPECT_EQ(got.bytes, want.bytes) << "decodePixels / decodePixelsStored";
  EXPECT_EQ(got.events, want.events);
  EXPECT_EQ(got.opCount, want.opCount);
}

class IntoOracle : public ::testing::TestWithParam<OracleCase> {};

TEST_P(IntoOracle, EveryIntoOpMatchesIndependentOracle) {
  const auto backend = makeBackend(GetParam().design,
                                   oracleFactoryConfig(GetParam()));
  IntoDriver into(*backend);
  const auto oracle = makeOracle(GetParam());
  const OpTrace got = runOpScript(into);
  const OpTrace want = runOpScript(*oracle);
  expectSameTrace(got, want);
  // The script really exercised the substrate's accounting.
  if (GetParam().design == DesignKind::ReramSc) {
    EXPECT_GT(got.events.slReads, 0u);
    EXPECT_GT(got.events.adcConversions, 0u);
  } else if (GetParam().design != DesignKind::Reference) {
    EXPECT_GT(got.opCount, 0u);
  }
}

TEST(IntoOracleSimd, SwScSimdMatchesScalarLfsrCallForCall) {
  BackendFactoryConfig cfg;
  cfg.streamLength = kOracleN;
  cfg.seed = kOracleSeed;
  const auto simd = makeBackend(DesignKind::SwScSimd, cfg);
  const auto scalar = makeBackend(DesignKind::SwScLfsr, cfg);
  IntoDriver simdInto(*simd);
  IntoDriver scalarInto(*scalar);
  expectSameTrace(runOpScript(simdInto), runOpScript(scalarInto));
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, IntoOracle,
    ::testing::Values(OracleCase{"Reference", DesignKind::Reference, false},
                      OracleCase{"SwScLfsr", DesignKind::SwScLfsr, false},
                      OracleCase{"SwScSobol", DesignKind::SwScSobol, false},
                      OracleCase{"SwScSfmt", DesignKind::SwScSfmt, false},
                      OracleCase{"SwScSimd", DesignKind::SwScSimd, false},
                      OracleCase{"ReramSc", DesignKind::ReramSc, false},
                      OracleCase{"ReramScFaulty", DesignKind::ReramSc, true},
                      OracleCase{"BinaryCim", DesignKind::BinaryCim, false}),
    [](const ::testing::TestParamInfo<OracleCase>& info) {
      return std::string(info.param.name);
    });

// --- allocating-wrapper conformance -----------------------------------------

class IntoConformance : public ::testing::TestWithParam<DesignKind> {
 protected:
  std::unique_ptr<ScBackend> make() const {
    BackendFactoryConfig cfg;
    cfg.streamLength = 256;
    cfg.seed = 0xabcd;
    return makeBackend(GetParam(), cfg);
  }
};

TEST_P(IntoConformance, IntoOpsAllowDestinationAliasing) {
  const auto a = make();
  const auto i = make();
  const auto ax = a->encodePixels(std::vector<std::uint8_t>{180});
  const auto ay = a->encodePixelsCorrelated(std::vector<std::uint8_t>{70});
  std::vector<ScValue> ix(1);
  std::vector<ScValue> iy(1);
  i->encodePixelsInto(std::vector<std::uint8_t>{180}, ix);
  i->encodePixelsCorrelatedInto(std::vector<std::uint8_t>{70}, iy);

  // The morphology fold shape: dst aliases the first operand.
  ScValue aAcc = ax[0];
  aAcc = a->minimum(aAcc, ay[0]);
  aAcc = a->maximum(aAcc, ax[0]);
  ScValue iAcc = ix[0];
  i->minimumInto(iAcc, iAcc, iy[0]);
  i->maximumInto(iAcc, iAcc, ix[0]);
  EXPECT_EQ(aAcc.stream, iAcc.stream);
  EXPECT_EQ(aAcc.prob, iAcc.prob);
  EXPECT_EQ(aAcc.word, iAcc.word);
}

TEST_P(IntoConformance, SizeMismatchThrows) {
  const auto b = make();
  const std::vector<std::uint8_t> values{1, 2, 3};
  std::vector<ScValue> wrong(2);
  EXPECT_THROW(b->encodePixelsInto(values, wrong), std::invalid_argument);
  EXPECT_THROW(b->encodePixelsCorrelatedInto(values, wrong),
               std::invalid_argument);
  std::vector<ScValue> three(3);
  b->encodePixelsInto(values, three);
  std::vector<std::uint8_t> out2(2);
  EXPECT_THROW(b->decodePixelsInto(three, out2), std::invalid_argument);
  // bernsteinSelectInto enforces the allocating wrapper's contract.
  ScValue dst;
  std::vector<ScValue> copies(2);
  b->encodeCopiesInto(99, copies);
  std::vector<ScValue> tooFew(2);
  EXPECT_THROW(b->bernsteinSelectInto(dst, copies, tooFew),
               std::invalid_argument);
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, IntoConformance,
    ::testing::Values(DesignKind::Reference, DesignKind::SwScLfsr,
                      DesignKind::SwScSobol, DesignKind::SwScSfmt,
                      DesignKind::SwScSimd, DesignKind::ReramSc,
                      DesignKind::BinaryCim),
    [](const ::testing::TestParamInfo<DesignKind>& info) {
      switch (info.param) {
        case DesignKind::Reference: return "Reference";
        case DesignKind::SwScLfsr: return "SwScLfsr";
        case DesignKind::SwScSobol: return "SwScSobol";
        case DesignKind::SwScSfmt: return "SwScSfmt";
        case DesignKind::SwScSimd: return "SwScSimd";
        case DesignKind::ReramSc: return "ReramSc";
        case DesignKind::BinaryCim: return "BinaryCim";
      }
      return "Unknown";
    });

// --- kernel-level conformance: fused vs verbatim allocating loops -----------
//
// Each seed* function is the pre-arena (PR-4) allocating kernel body,
// running against the allocating backend API only.

img::Image seedComposite(const apps::CompositingScene& scene, ScBackend& b) {
  const std::size_t w = scene.background.width();
  img::Image out(w, scene.background.height());
  std::vector<std::uint8_t> frow(w), brow(w), arow(w);
  std::vector<ScValue> blended(w);
  for (std::size_t y = 0; y < out.height(); ++y) {
    for (std::size_t x = 0; x < w; ++x) {
      frow[x] = scene.foreground.at(x, y);
      brow[x] = scene.background.at(x, y);
      arow[x] = scene.alpha.at(x, y);
    }
    const auto fs = b.encodePixels(frow);
    const auto bs = b.encodePixelsCorrelated(brow);
    const auto as = b.encodePixels(arow);
    for (std::size_t x = 0; x < w; ++x) blended[x] = b.majMux(fs[x], bs[x], as[x]);
    const auto row = b.decodePixels(blended);
    for (std::size_t x = 0; x < w; ++x) out.at(x, y) = row[x];
  }
  return out;
}

img::Image seedUpscale(const img::Image& src, std::size_t factor, ScBackend& b) {
  const std::size_t W = src.width() * factor;
  const std::size_t H = src.height() * factor;
  img::Image out(W, H);
  std::vector<std::uint8_t> data(4 * W), dxRow(W);
  std::vector<ScValue> blended(W);
  for (std::size_t Y = 0; Y < H; ++Y) {
    const apps::SampleCoord cy = apps::mapCoord(Y, H, src.height());
    for (std::size_t X = 0; X < W; ++X) {
      const apps::SampleCoord cx = apps::mapCoord(X, W, src.width());
      data[X] = src.at(cx.i0, cy.i0);
      data[W + X] = src.at(cx.i0, cy.i1);
      data[2 * W + X] = src.at(cx.i1, cy.i0);
      data[3 * W + X] = src.at(cx.i1, cy.i1);
      dxRow[X] = cx.frac;
    }
    const auto ds = b.encodePixels(data);
    const auto sxs = b.encodePixels(dxRow);
    const ScValue sy = b.encodePixel(cy.frac);
    for (std::size_t X = 0; X < W; ++X) {
      blended[X] = b.majMux4(ds[X], ds[W + X], ds[2 * W + X], ds[3 * W + X],
                             sxs[X], sy);
    }
    const auto row = b.decodePixels(blended);
    for (std::size_t X = 0; X < W; ++X) out.at(X, Y) = row[X];
  }
  return out;
}

img::Image seedMatting(const apps::MattingScene& scene, ScBackend& b) {
  const std::size_t w = scene.composite.width();
  img::Image out(w, scene.composite.height());
  std::vector<std::uint8_t> irow(w), brow(w), frow(w);
  std::vector<ScValue> quotients(w);
  for (std::size_t y = 0; y < out.height(); ++y) {
    for (std::size_t x = 0; x < w; ++x) {
      irow[x] = scene.composite.at(x, y);
      brow[x] = scene.background.at(x, y);
      frow[x] = scene.foreground.at(x, y);
    }
    const auto is = b.encodePixels(irow);
    const auto bs = b.encodePixelsCorrelated(brow);
    const auto fs = b.encodePixelsCorrelated(frow);
    for (std::size_t x = 0; x < w; ++x) {
      const ScValue num = b.absSub(is[x], bs[x]);
      const ScValue den = b.absSub(fs[x], bs[x]);
      quotients[x] = b.divide(num, den);
    }
    const auto row = b.decodePixelsStored(quotients);
    for (std::size_t x = 0; x < w; ++x) out.at(x, y) = row[x];
  }
  return out;
}

constexpr int kNb[8][2] = {{-1, -1}, {1, 1}, {-1, 1}, {1, -1},
                           {-1, 0},  {1, 0}, {0, -1}, {0, 1}};

img::Image seedSmooth(const img::Image& src, ScBackend& b) {
  img::Image out = src;
  if (src.width() < 3 || src.height() < 3) return out;
  const std::size_t iw = src.width() - 2;
  std::vector<std::uint8_t> data(8 * iw);
  std::vector<ScValue> means(iw);
  for (std::size_t y = 1; y + 1 < src.height(); ++y) {
    for (std::size_t x = 1; x + 1 < src.width(); ++x) {
      for (int i = 0; i < 8; ++i) {
        data[static_cast<std::size_t>(i) * iw + (x - 1)] =
            src.at(x + static_cast<std::size_t>(kNb[i][0]),
                   y + static_cast<std::size_t>(kNb[i][1]));
      }
    }
    const auto ns = b.encodePixels(data);
    ScValue half[7];
    for (auto& h : half) h = b.halfStream();
    for (std::size_t x = 1; x + 1 < src.width(); ++x) {
      const std::size_t c = x - 1;
      ScValue l1[4];
      for (std::size_t i = 0; i < 4; ++i) {
        l1[i] = b.scaledAdd(ns[2 * i * iw + c], ns[(2 * i + 1) * iw + c], half[i]);
      }
      const ScValue l2a = b.scaledAdd(l1[0], l1[1], half[4]);
      const ScValue l2b = b.scaledAdd(l1[2], l1[3], half[5]);
      means[c] = b.scaledAdd(l2a, l2b, half[6]);
    }
    const auto row = b.decodePixels(means);
    for (std::size_t x = 1; x + 1 < src.width(); ++x) out.at(x, y) = row[x - 1];
  }
  return out;
}

img::Image seedEdge(const img::Image& src, ScBackend& b) {
  img::Image out(src.width(), src.height(), 0);
  if (src.width() < 2 || src.height() < 2) return out;
  const std::size_t iw = src.width() - 1;
  std::vector<std::uint8_t> data(4 * iw);
  std::vector<ScValue> mags(iw);
  for (std::size_t y = 0; y + 1 < src.height(); ++y) {
    for (std::size_t x = 0; x + 1 < src.width(); ++x) {
      data[x] = src.at(x, y);
      data[iw + x] = src.at(x + 1, y + 1);
      data[2 * iw + x] = src.at(x + 1, y);
      data[3 * iw + x] = src.at(x, y + 1);
    }
    const auto ws = b.encodePixels(data);
    const ScValue half = b.halfStream();
    for (std::size_t x = 0; x + 1 < src.width(); ++x) {
      const ScValue g1 = b.absSub(ws[x], ws[iw + x]);
      const ScValue g2 = b.absSub(ws[2 * iw + x], ws[3 * iw + x]);
      mags[x] = b.scaledAdd(g1, g2, half);
    }
    const auto row = b.decodePixels(mags);
    for (std::size_t x = 0; x + 1 < src.width(); ++x) out.at(x, y) = row[x];
  }
  return out;
}

img::Image seedGamma(const img::Image& src, double gamma, ScBackend& b,
                     int degree) {
  const std::vector<double> coeffValues = sc::bernsteinCoefficientsOf(
      [gamma](double t) { return std::pow(t, gamma); }, degree);
  img::Image out(src.width(), src.height());
  for (std::size_t y = 0; y < src.height(); ++y) {
    for (std::size_t x = 0; x < src.width(); ++x) {
      const auto xCopies =
          b.encodeCopies(src.at(x, y), static_cast<std::size_t>(degree));
      std::vector<ScValue> coeffs;
      for (const double bk : coeffValues) coeffs.push_back(b.encodeProb(bk));
      out.at(x, y) = b.decodePixel(b.bernsteinSelect(xCopies, coeffs));
    }
  }
  return out;
}

constexpr int kWin[9][2] = {{0, 0},  {-1, -1}, {0, -1}, {1, -1}, {-1, 0},
                            {1, 0},  {-1, 1},  {0, 1},  {1, 1}};

template <typename Fold>
img::Image seedMorph(const img::Image& src, ScBackend& b, Fold&& fold) {
  img::Image out = src;
  if (src.width() < 3 || src.height() < 3) return out;
  const std::size_t iw = src.width() - 2;
  std::vector<std::uint8_t> data(9 * iw);
  std::vector<ScValue> folded(iw);
  for (std::size_t y = 1; y + 1 < src.height(); ++y) {
    for (std::size_t x = 1; x + 1 < src.width(); ++x) {
      for (int i = 0; i < 9; ++i) {
        data[static_cast<std::size_t>(i) * iw + (x - 1)] =
            src.at(x + static_cast<std::size_t>(kWin[i][0]),
                   y + static_cast<std::size_t>(kWin[i][1]));
      }
    }
    const auto ws = b.encodePixels(data);
    for (std::size_t x = 1; x + 1 < src.width(); ++x) {
      const std::size_t c = x - 1;
      ScValue acc = ws[c];
      for (std::size_t i = 1; i < 9; ++i) acc = fold(b, acc, ws[i * iw + c]);
      folded[c] = std::move(acc);
    }
    const auto row = b.decodePixels(folded);
    for (std::size_t x = 1; x + 1 < src.width(); ++x) out.at(x, y) = row[x - 1];
  }
  return out;
}

class FusedKernelConformance : public ::testing::TestWithParam<DesignKind> {
 protected:
  std::unique_ptr<ScBackend> make() const {
    BackendFactoryConfig cfg;
    cfg.streamLength = 128;
    cfg.seed = 0x77;
    return makeBackend(GetParam(), cfg);
  }
};

TEST_P(FusedKernelConformance, AllSevenKernelsMatchAllocatingOracles) {
  const apps::CompositingScene scene = apps::makeCompositingScene(14, 10, 5);
  const apps::MattingScene mscene = apps::makeMattingScene(12, 8, 3);
  const img::Image src = img::naturalScene(12, 9, 21);

  {
    auto a = make();
    auto f = make();
    EXPECT_EQ(apps::compositeKernel(scene, *f).pixels(),
              seedComposite(scene, *a).pixels())
        << "compositing";
    EXPECT_EQ(a->events(), f->events());
    EXPECT_EQ(a->opCount(), f->opCount());
  }
  {
    auto a = make();
    auto f = make();
    EXPECT_EQ(apps::upscaleKernel(src, 2, *f).pixels(),
              seedUpscale(src, 2, *a).pixels())
        << "bilinear";
    EXPECT_EQ(a->events(), f->events());
  }
  {
    auto a = make();
    auto f = make();
    EXPECT_EQ(apps::mattingKernel(mscene, *f).pixels(),
              seedMatting(mscene, *a).pixels())
        << "matting";
    EXPECT_EQ(a->events(), f->events());
  }
  {
    auto a = make();
    auto f = make();
    EXPECT_EQ(apps::smoothKernel(src, *f).pixels(),
              seedSmooth(src, *a).pixels())
        << "smooth";
    EXPECT_EQ(a->events(), f->events());
  }
  {
    auto a = make();
    auto f = make();
    EXPECT_EQ(apps::edgeKernel(src, *f).pixels(), seedEdge(src, *a).pixels())
        << "edge";
    EXPECT_EQ(a->events(), f->events());
  }
  {
    auto a = make();
    auto f = make();
    EXPECT_EQ(apps::gammaKernel(src, 2.2, *f, 4).pixels(),
              seedGamma(src, 2.2, *a, 4).pixels())
        << "gamma";
    EXPECT_EQ(a->events(), f->events());
    EXPECT_EQ(a->opCount(), f->opCount());
  }
  {
    auto a = make();
    auto f = make();
    const auto minFold = [](ScBackend& b, const ScValue& x, const ScValue& y) {
      return b.minimum(x, y);
    };
    EXPECT_EQ(apps::erodeKernel(src, *f).pixels(),
              seedMorph(src, *a, minFold).pixels())
        << "erode";
    EXPECT_EQ(a->events(), f->events());
  }
  {
    auto a = make();
    auto f = make();
    const auto maxFold = [](ScBackend& b, const ScValue& x, const ScValue& y) {
      return b.maximum(x, y);
    };
    EXPECT_EQ(apps::dilateKernel(src, *f).pixels(),
              seedMorph(src, *a, maxFold).pixels())
        << "dilate";
    EXPECT_EQ(a->events(), f->events());
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, FusedKernelConformance,
    ::testing::Values(DesignKind::Reference, DesignKind::SwScLfsr,
                      DesignKind::SwScSobol, DesignKind::SwScSfmt,
                      DesignKind::SwScSimd, DesignKind::ReramSc,
                      DesignKind::BinaryCim),
    [](const ::testing::TestParamInfo<DesignKind>& info) {
      switch (info.param) {
        case DesignKind::Reference: return "Reference";
        case DesignKind::SwScLfsr: return "SwScLfsr";
        case DesignKind::SwScSobol: return "SwScSobol";
        case DesignKind::SwScSfmt: return "SwScSfmt";
        case DesignKind::SwScSimd: return "SwScSimd";
        case DesignKind::ReramSc: return "ReramSc";
        case DesignKind::BinaryCim: return "BinaryCim";
      }
      return "Unknown";
    });

}  // namespace
}  // namespace aimsc::core
