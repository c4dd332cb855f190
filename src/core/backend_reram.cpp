#include "core/backend_reram.hpp"

#include <stdexcept>

namespace aimsc::core {

namespace {

std::vector<ScValue> wrapStreams(std::vector<sc::Bitstream> streams) {
  std::vector<ScValue> out;
  out.reserve(streams.size());
  for (auto& s : streams) out.push_back(ScValue::ofStream(std::move(s)));
  return out;
}

}  // namespace

std::vector<ScValue> ReramScBackend::encodePixels(
    std::span<const std::uint8_t> values) {
  return wrapStreams(acc_->encodePixels(values));
}

std::vector<ScValue> ReramScBackend::encodePixelsCorrelated(
    std::span<const std::uint8_t> values) {
  return wrapStreams(acc_->encodePixelsCorrelated(values));
}

ScValue ReramScBackend::encodeProb(double p) {
  return ScValue::ofStream(acc_->encodeProb(p));
}

ScValue ReramScBackend::halfStream() {
  return ScValue::ofStream(acc_->halfStream());
}

ScValue ReramScBackend::encodePixel(std::uint8_t v) {
  return ScValue::ofStream(acc_->encodePixel(v));
}

ScValue ReramScBackend::encodePixelCorrelated(std::uint8_t v) {
  return ScValue::ofStream(acc_->encodePixelCorrelated(v));
}

ScValue ReramScBackend::multiply(const ScValue& x, const ScValue& y) {
  return ScValue::ofStream(acc_->ops().multiply(x.stream, y.stream));
}

ScValue ReramScBackend::scaledAdd(const ScValue& x, const ScValue& y,
                                  const ScValue& half) {
  return ScValue::ofStream(
      acc_->ops().scaledAdd(x.stream, y.stream, half.stream));
}

ScValue ReramScBackend::addApprox(const ScValue& x, const ScValue& y) {
  return ScValue::ofStream(acc_->ops().addApprox(x.stream, y.stream));
}

ScValue ReramScBackend::absSub(const ScValue& x, const ScValue& y) {
  return ScValue::ofStream(acc_->ops().absSub(x.stream, y.stream));
}

ScValue ReramScBackend::minimum(const ScValue& x, const ScValue& y) {
  return ScValue::ofStream(acc_->ops().minimum(x.stream, y.stream));
}

ScValue ReramScBackend::maximum(const ScValue& x, const ScValue& y) {
  return ScValue::ofStream(acc_->ops().maximum(x.stream, y.stream));
}

ScValue ReramScBackend::majMux(const ScValue& x, const ScValue& y,
                               const ScValue& sel) {
  return ScValue::ofStream(acc_->ops().majMux(x.stream, y.stream, sel.stream));
}

ScValue ReramScBackend::majMux4(const ScValue& i11, const ScValue& i12,
                                const ScValue& i21, const ScValue& i22,
                                const ScValue& sx, const ScValue& sy) {
  return ScValue::ofStream(acc_->ops().majMux4(
      i11.stream, i12.stream, i21.stream, i22.stream, sx.stream, sy.stream));
}

ScValue ReramScBackend::divide(const ScValue& num, const ScValue& den) {
  return ScValue::ofStream(acc_->ops().divide(num.stream, den.stream));
}

ScValue ReramScBackend::doBernsteinSelect(
    std::span<const ScValue> xCopies, std::span<const ScValue> coeffSelects) {
  const auto copies = borrowStreams(xCopies);
  const auto coeffs = borrowStreams(coeffSelects);
  return ScValue::ofStream(acc_->ops().bernsteinSelect(
      std::span<const sc::Bitstream* const>(copies),
      std::span<const sc::Bitstream* const>(coeffs)));
}

namespace {

// Decode consumes its batch, so the streams can be MOVED into the
// contiguous span Accelerator's batched ADC entry expects — O(1) pointer
// steals, no payload copies on the hot per-row path.
std::vector<sc::Bitstream> takeStreams(std::span<ScValue> values) {
  std::vector<sc::Bitstream> streams;
  streams.reserve(values.size());
  for (ScValue& v : values) streams.push_back(std::move(v.stream));
  return streams;
}

}  // namespace

std::vector<std::uint8_t> ReramScBackend::decodePixels(
    std::span<ScValue> values) {
  return acc_->decodePixels(takeStreams(values));
}

std::vector<std::uint8_t> ReramScBackend::decodePixelsStored(
    std::span<ScValue> values) {
  return acc_->decodePixelsStored(takeStreams(values));
}

// --- destination-passing forms ----------------------------------------------

void ReramScBackend::encodePixelsInto(std::span<const std::uint8_t> values,
                                      std::span<ScValue> out) {
  if (values.size() != out.size()) {
    throw std::invalid_argument(
        "ReramScBackend::encodePixelsInto: destination size mismatch");
  }
  outPtrScratch_.resize(out.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    outPtrScratch_[i] = &out[i].stream;
  }
  acc_->encodePixelsInto(values, outPtrScratch_);
}

void ReramScBackend::encodePixelsCorrelatedInto(
    std::span<const std::uint8_t> values, std::span<ScValue> out) {
  if (values.size() != out.size()) {
    throw std::invalid_argument(
        "ReramScBackend::encodePixelsCorrelatedInto: destination size "
        "mismatch");
  }
  outPtrScratch_.resize(out.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    outPtrScratch_[i] = &out[i].stream;
  }
  acc_->encodePixelsCorrelatedInto(values, outPtrScratch_);
}

void ReramScBackend::encodeProbInto(ScValue& dst, double p) {
  acc_->encodeProbInto(p, dst.stream);
}

void ReramScBackend::halfStreamInto(ScValue& dst) {
  acc_->encodeProbInto(0.5, dst.stream);
}

void ReramScBackend::multiplyInto(ScValue& dst, const ScValue& x,
                                  const ScValue& y) {
  acc_->ops().multiplyInto(dst.stream, x.stream, y.stream);
}

void ReramScBackend::scaledAddInto(ScValue& dst, const ScValue& x,
                                   const ScValue& y, const ScValue& half) {
  acc_->ops().scaledAddInto(dst.stream, x.stream, y.stream, half.stream);
}

void ReramScBackend::addApproxInto(ScValue& dst, const ScValue& x,
                                   const ScValue& y) {
  acc_->ops().addApproxInto(dst.stream, x.stream, y.stream);
}

void ReramScBackend::absSubInto(ScValue& dst, const ScValue& x,
                                const ScValue& y) {
  acc_->ops().absSubInto(dst.stream, x.stream, y.stream);
}

void ReramScBackend::minimumInto(ScValue& dst, const ScValue& x,
                                 const ScValue& y) {
  acc_->ops().minimumInto(dst.stream, x.stream, y.stream);
}

void ReramScBackend::maximumInto(ScValue& dst, const ScValue& x,
                                 const ScValue& y) {
  acc_->ops().maximumInto(dst.stream, x.stream, y.stream);
}

void ReramScBackend::majMuxInto(ScValue& dst, const ScValue& x,
                                const ScValue& y, const ScValue& sel) {
  acc_->ops().majMuxInto(dst.stream, x.stream, y.stream, sel.stream);
}

void ReramScBackend::majMux4Into(ScValue& dst, const ScValue& i11,
                                 const ScValue& i12, const ScValue& i21,
                                 const ScValue& i22, const ScValue& sx,
                                 const ScValue& sy) {
  acc_->ops().majMux4Into(dst.stream, i11.stream, i12.stream, i21.stream,
                          i22.stream, sx.stream, sy.stream);
}

void ReramScBackend::divideInto(ScValue& dst, const ScValue& num,
                                const ScValue& den) {
  acc_->ops().divideInto(dst.stream, num.stream, den.stream);
}

void ReramScBackend::doBernsteinSelectInto(
    ScValue& dst, std::span<const ScValue> xCopies,
    std::span<const ScValue> coeffSelects) {
  copyPtrScratch_.resize(xCopies.size());
  for (std::size_t i = 0; i < xCopies.size(); ++i) {
    copyPtrScratch_[i] = &xCopies[i].stream;
  }
  coeffPtrScratch_.resize(coeffSelects.size());
  for (std::size_t i = 0; i < coeffSelects.size(); ++i) {
    coeffPtrScratch_[i] = &coeffSelects[i].stream;
  }
  acc_->ops().bernsteinSelectInto(
      dst.stream, std::span<const sc::Bitstream* const>(copyPtrScratch_),
      std::span<const sc::Bitstream* const>(coeffPtrScratch_));
}

void ReramScBackend::decodePixelsInto(std::span<ScValue> values,
                                      std::span<std::uint8_t> out) {
  if (values.size() != out.size()) {
    throw std::invalid_argument(
        "ReramScBackend::decodePixelsInto: destination size mismatch");
  }
  // Identical ADC walk and event charges to the batched allocating form —
  // the streams are just borrowed instead of moved out.
  for (std::size_t i = 0; i < values.size(); ++i) {
    out[i] = acc_->decodePixel(values[i].stream);
  }
}

void ReramScBackend::decodePixelsStoredInto(std::span<ScValue> values,
                                            std::span<std::uint8_t> out) {
  if (values.size() != out.size()) {
    throw std::invalid_argument(
        "ReramScBackend::decodePixelsStoredInto: destination size mismatch");
  }
  for (std::size_t i = 0; i < values.size(); ++i) {
    out[i] = acc_->decodePixelStored(values[i].stream);
  }
}

}  // namespace aimsc::core
