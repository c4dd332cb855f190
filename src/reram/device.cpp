#include "reram/device.hpp"

#include <cmath>
#include <stdexcept>

namespace aimsc::reram {

void validateDeviceParams(const DeviceParams& params) {
  if (params.rLrsOhm <= 0 || params.rHrsOhm <= 0) {
    throw std::invalid_argument("DeviceModel: resistances must be positive");
  }
  if (params.rLrsOhm >= params.rHrsOhm) {
    throw std::invalid_argument("DeviceModel: LRS must be below HRS");
  }
  if (params.sigmaLrs < 0 || params.sigmaHrs < 0) {
    throw std::invalid_argument("DeviceModel: negative sigma");
  }
}

DeviceModel::DeviceModel(const DeviceParams& params, std::uint64_t seed)
    : params_(params), eng_(seed) {
  validateDeviceParams(params_);
}

double DeviceModel::sampleResistance(bool lrs) {
  const double median = lrs ? params_.rLrsOhm : params_.rHrsOhm;
  const double sigma = lrs ? params_.sigmaLrs : params_.sigmaHrs;
  if (sigma == 0.0) return median;
  return median * std::exp(sigma * gauss_(eng_));
}

double DeviceModel::sampleCurrent(bool lrs) {
  return params_.vRead / sampleResistance(lrs);
}

}  // namespace aimsc::reram
