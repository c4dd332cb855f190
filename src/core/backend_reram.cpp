#include "core/backend_reram.hpp"

#include <stdexcept>

namespace aimsc::core {

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
