#include "core/backend_swsc.hpp"

#include <array>
#include <stdexcept>

#include "img/image.hpp"
#include "sc/bernstein.hpp"
#include "sc/cordiv.hpp"
#include "sc/ops.hpp"
#include "sc/sfmt.hpp"
#include "sc/sng.hpp"

namespace aimsc::core {

const char* swScSngName(SwScSng sng) {
  switch (sng) {
    case SwScSng::Lfsr: return "LFSR";
    case SwScSng::Sobol: return "Sobol";
    case SwScSng::Sfmt: return "SFMT";
  }
  return "?";
}

std::uint32_t swScPixelThreshold(std::uint8_t v) {
  static const auto kTable = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::size_t i = 0; i < t.size(); ++i) {
      t[i] = sc::quantizeProbability(static_cast<double>(i) / 255.0, 8);
    }
    return t;
  }();
  return kTable[v];
}

namespace {

constexpr std::uint64_t kGolden = 0x9e3779b97f4a7c15ull;
/// Offset separating the constant-stream seed space from the epoch space.
constexpr std::uint64_t kConstSpace = 0x517ec0de'0000'0000ull;

/// splitmix64 finalizer (Steele et al.): full-avalanche mix so nearby
/// epoch indices yield unrelated SFMT seeds.
std::uint64_t splitmix64Fin(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace

std::uint32_t swScLfsrSeedForEpoch(std::uint64_t seed, std::uint64_t epoch) {
  // A new LFSR phase per epoch; the golden-ratio stride decorrelates
  // consecutive epochs over the 254 usable seeds.
  const std::uint64_t mixed = seed + kGolden * epoch;
  return static_cast<std::uint32_t>(mixed % 254 + 1);
}

SwScSobolEpoch swScSobolForEpoch(std::uint64_t seed, std::uint64_t epoch) {
  const auto dim = static_cast<int>(epoch % sc::Sobol::kMaxDimension);
  const std::uint64_t skip =
      1 + (seed & 0xff) + 16 * (epoch / sc::Sobol::kMaxDimension);
  return SwScSobolEpoch{dim, skip};
}

std::uint32_t swScSfmtSeedForEpoch(std::uint64_t seed, std::uint64_t epoch) {
  // Unlike the LFSR's 254-seed space, the SFMT accepts any 32-bit seed, so
  // the golden stride can be finalized into a full-width value.
  return static_cast<std::uint32_t>(splitmix64Fin(seed + kGolden * epoch));
}

std::unique_ptr<sc::RandomSource> swScConstantSource(const SwScConfig& config,
                                                     std::uint32_t threshold,
                                                     std::uint32_t ordinal) {
  // Each (threshold, ordinal) pair owns one slot of a seed space disjoint
  // from the epoch indices (the master seed is remixed with kConstSpace),
  // so constants are independent of every data epoch and of each other.
  const std::uint64_t slot = std::uint64_t{threshold} * 64 + ordinal;
  switch (config.sng) {
    case SwScSng::Lfsr:
      return std::make_unique<sc::Lfsr>(sc::Lfsr::paper8Bit(
          swScLfsrSeedForEpoch(config.seed ^ kConstSpace, slot)));
    case SwScSng::Sfmt:
      return std::make_unique<sc::Sfmt>(
          swScSfmtSeedForEpoch(config.seed ^ kConstSpace, slot));
    case SwScSng::Sobol: break;
  }
  // Keep the Sobol skip moderate: reset() replays `skip` points.
  const auto dim = static_cast<int>(slot % sc::Sobol::kMaxDimension);
  const std::uint64_t skip = 1 + ((config.seed ^ kConstSpace) & 0xff) +
                             16 * (1024 + slot / sc::Sobol::kMaxDimension);
  return std::make_unique<sc::Sobol>(dim, skip);
}

const sc::Bitstream& SwScConstantPool::next(double p) {
  const std::uint32_t x = sc::quantizeProbability(p, 8);
  Bank& bank = pool_[x];
  if (bank.stamp != epochStamp_) {
    bank.stamp = epochStamp_;
    bank.used = 0;
  }
  const std::size_t k = bank.used++;
  while (bank.streams.size() <= k) {
    const auto src = swScConstantSource(
        config_, x, static_cast<std::uint32_t>(bank.streams.size()));
    bank.streams.push_back(sc::generateSbs(*src, x, 8, config_.streamLength));
  }
  return bank.streams[k];
}

void SwScConstantPool::getInto(sc::Bitstream& dst, double p) { dst = next(p); }

void SwScConstantPool::onNewEpoch() { ++epochStamp_; }

// ---------------------------------------------------------------------------
// SwScBackend
// ---------------------------------------------------------------------------

namespace {

template <typename Bulk>
void refillLfsrBlockAs(const SwScConfig& config, std::uint64_t epoch,
                       std::vector<std::uint8_t>& block) {
  std::array<std::uint8_t, Bulk::kLanes> seeds;
  for (std::size_t k = 0; k < seeds.size(); ++k) {
    seeds[k] = static_cast<std::uint8_t>(
        swScLfsrSeedForEpoch(config.seed, epoch + k));
  }
  block.resize(seeds.size() * config.streamLength);
  Bulk bulk(seeds);
  bulk.generate(config.streamLength, block.data());
}

DesignKind designOf(SwScSng sng) {
  switch (sng) {
    case SwScSng::Lfsr: return DesignKind::SwScLfsr;
    case SwScSng::Sobol: return DesignKind::SwScSobol;
    case SwScSng::Sfmt: return DesignKind::SwScSfmt;
  }
  return DesignKind::SwScLfsr;
}

}  // namespace

SwScBackend::SwScBackend(const SwScConfig& config)
    : SwScBackend(config, designOf(config.sng)) {}

SwScBackend::SwScBackend(const SwScConfig& config, DesignKind design)
    : config_(config),
      design_(design),
      resolved_(sc::resolveSimd(config.simd)),
      constants_(config) {
  newEpoch();
}

const char* SwScBackend::name() const { return designKindName(design_); }

void SwScBackend::refillBlock(std::uint64_t epoch) {
  if (config_.sng == SwScSng::Lfsr) {
    // On 512-bit hosts the deep prefetch shape covers one AVX-512 register
    // per SWAR word pass; bit-neutral, since lane seeds derive per epoch.
    if (resolved_ == sc::SimdMode::Avx512) {
      blockLanes_ = sc::BulkLfsr8Wide::kLanes;
      refillLfsrBlockAs<sc::BulkLfsr8Wide>(config_, epoch, block_);
    } else {
      blockLanes_ = sc::BulkLfsr8::kLanes;
      refillLfsrBlockAs<sc::BulkLfsr8>(config_, epoch, block_);
    }
  } else {
    std::array<std::uint32_t, sc::BulkSfmt::kLanes> seeds;
    for (std::size_t k = 0; k < seeds.size(); ++k) {
      seeds[k] = swScSfmtSeedForEpoch(config_.seed, epoch + k);
    }
    blockLanes_ = sc::BulkSfmt::kLanes;
    block_.resize(seeds.size() * config_.streamLength);
    sc::BulkSfmt bulk(seeds, config_.simd);
    bulk.generate(config_.streamLength, block_.data());
  }
  blockBase_ = epoch;
}

void SwScBackend::newEpoch() {
  ++epoch_;
  const std::size_t n = config_.streamLength;
  if (config_.sng == SwScSng::Sobol) {
    const SwScSobolEpoch p = swScSobolForEpoch(config_.seed, epoch_);
    sc::Sobol sobol(p.dimension, p.skip);
    sobolBytes_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      sobolBytes_[i] = static_cast<std::uint8_t>(sobol.next32() >> 24);
    }
    planes_.assign(sobolBytes_.data(), n, config_.simd);
  } else {
    if (blockBase_ == 0 || epoch_ < blockBase_ ||
        epoch_ >= blockBase_ + blockLanes_) {
      refillBlock(epoch_);
    }
    planes_.assign(&block_[(epoch_ - blockBase_) * n], n, config_.simd);
  }
  constants_.onNewEpoch();
}

void SwScBackend::encodePixelsInto(std::span<const std::uint8_t> values,
                                   std::span<ScValue> out) {
  if (values.size() != out.size()) {
    throw std::invalid_argument(
        "SwScBackend::encodePixelsInto: destination size mismatch");
  }
  newEpoch();
  encodePixelsCorrelatedInto(values, out);
}

void SwScBackend::encodePixelsCorrelatedInto(
    std::span<const std::uint8_t> values, std::span<ScValue> out) {
  if (values.size() != out.size()) {
    throw std::invalid_argument(
        "SwScBackend::encodePixelsCorrelatedInto: destination size mismatch");
  }
  for (std::size_t i = 0; i < values.size(); ++i) {
    planes_.encode(swScPixelThreshold(values[i]), out[i].stream,
                   config_.simd);
  }
}

void SwScBackend::encodeProbInto(ScValue& dst, double p) {
  constants_.getInto(dst.stream, p);
}

void SwScBackend::halfStreamInto(ScValue& dst) { encodeProbInto(dst, 0.5); }

void SwScBackend::multiplyInto(ScValue& dst, const ScValue& x,
                               const ScValue& y) {
  ++opPasses_;
  sc::scMultiplyInto(dst.stream, x.stream, y.stream);
}

void SwScBackend::scaledAddInto(ScValue& dst, const ScValue& x,
                                const ScValue& y, const ScValue& half) {
  ++opPasses_;
  sc::scScaledAddMuxInto(dst.stream, x.stream, y.stream, half.stream);
}

void SwScBackend::addApproxInto(ScValue& dst, const ScValue& x,
                                const ScValue& y) {
  ++opPasses_;
  sc::scAddOrInto(dst.stream, x.stream, y.stream);
}

void SwScBackend::absSubInto(ScValue& dst, const ScValue& x,
                             const ScValue& y) {
  ++opPasses_;
  sc::scAbsSubInto(dst.stream, x.stream, y.stream);
}

void SwScBackend::minimumInto(ScValue& dst, const ScValue& x,
                              const ScValue& y) {
  ++opPasses_;
  sc::scMinInto(dst.stream, x.stream, y.stream);
}

void SwScBackend::maximumInto(ScValue& dst, const ScValue& x,
                              const ScValue& y) {
  ++opPasses_;
  sc::scMaxInto(dst.stream, x.stream, y.stream);
}

void SwScBackend::majMuxInto(ScValue& dst, const ScValue& x, const ScValue& y,
                             const ScValue& sel) {
  // The CMOS design uses an exact 2-to-1 MUX (sel = 1 selects x).
  ++opPasses_;
  sc::Bitstream::muxInto(dst.stream, x.stream, y.stream, sel.stream);
}

void SwScBackend::majMux4Into(ScValue& dst, const ScValue& i11,
                              const ScValue& i12, const ScValue& i21,
                              const ScValue& i22, const ScValue& sx,
                              const ScValue& sy) {
  opPasses_ += 3;  // three serial MUX stages (the scMux4 tree, staged)
  sc::Bitstream::muxInto(tmpTop_, i12.stream, i11.stream, sy.stream);
  sc::Bitstream::muxInto(tmpBottom_, i22.stream, i21.stream, sy.stream);
  sc::Bitstream::muxInto(dst.stream, tmpBottom_, tmpTop_, sx.stream);
}

void SwScBackend::divideInto(ScValue& dst, const ScValue& num,
                             const ScValue& den) {
  // One serial CORDIV pass, computed by the word-level scan.
  ++opPasses_;
  sc::cordivDivideWordLevelInto(dst.stream, num.stream, den.stream);
}

void SwScBackend::doBernsteinSelectInto(ScValue& dst,
                                        std::span<const ScValue> xCopies,
                                        std::span<const ScValue> coeffSelects) {
  // Borrowed-pointer staging through member scratch: gamma calls the
  // network once per pixel, so even the pointer vectors must not churn.
  copyPtrScratch_.resize(xCopies.size());
  for (std::size_t i = 0; i < xCopies.size(); ++i) {
    copyPtrScratch_[i] = &xCopies[i].stream;
  }
  coeffPtrScratch_.resize(coeffSelects.size());
  for (std::size_t i = 0; i < coeffSelects.size(); ++i) {
    coeffPtrScratch_[i] = &coeffSelects[i].stream;
  }
  sc::scBernsteinSelectInto(
      dst.stream, std::span<const sc::Bitstream* const>(copyPtrScratch_),
      std::span<const sc::Bitstream* const>(coeffPtrScratch_));
  // A (copies + coeffs - 1)-deep select network, one serial pass per level
  // (same charge as the in-memory MUX-tree realisation); charged after the
  // width checks so a rejected call cannot corrupt the counter.
  opPasses_ += xCopies.size() + coeffSelects.size() - 1;
}

void SwScBackend::decodePixelsInto(std::span<ScValue> values,
                                   std::span<std::uint8_t> out) {
  if (values.size() != out.size()) {
    throw std::invalid_argument(
        "SwScBackend::decodePixelsInto: destination size mismatch");
  }
  // log2(N)-bit output counter: popcount / N.
  for (std::size_t i = 0; i < values.size(); ++i) {
    out[i] = img::Image::fromProb(values[i].stream.value());
  }
}

}  // namespace aimsc::core
