/// \file device.hpp
/// \brief Behavioural VCM ReRAM device model (paper Sec. II-A, [39]).
///
/// Each cell stores a bit in its resistance state: low-resistance state
/// (LRS) = '1', high-resistance state (HRS) = '0'.  Real devices are
/// variable: successive reads of the same state draw from a distribution.
/// Following the HRS-instability characterization of Wiefels et al. [39],
/// both states are modelled log-normally with the HRS spread considerably
/// wider than the LRS spread — this overlap is what makes scouting-logic
/// decisions fail and is the origin of the CIM fault rates used in Sec. IV.
#pragma once

#include <cstdint>
#include <random>

namespace aimsc::reram {

/// Device / array electrical parameters.
struct DeviceParams {
  double rLrsOhm = 10e3;    ///< median LRS resistance
  double rHrsOhm = 1.0e6;   ///< median HRS resistance
  double sigmaLrs = 0.08;   ///< log-normal sigma of ln(R_LRS)
  double sigmaHrs = 0.45;   ///< log-normal sigma of ln(R_HRS) (HRS instability)
  double vRead = 0.2;       ///< read voltage on activated wordlines [V]
  std::uint64_t enduranceCycles = 100'000'000;  ///< writes before wear-out

  /// Idealized device: no variability (scouting logic becomes exact).
  static DeviceParams ideal() {
    DeviceParams p;
    p.sigmaLrs = 0.0;
    p.sigmaHrs = 0.0;
    return p;
  }

  /// Nominal (median) read current for a state [A].
  double nominalCurrent(bool lrs) const {
    return vRead / (lrs ? rLrsOhm : rHrsOhm);
  }

  /// Field-wise equality (device corners key caches and wire messages).
  friend bool operator==(const DeviceParams&, const DeviceParams&) = default;
};

/// Throws std::invalid_argument unless both resistances are positive, LRS
/// lies below HRS and neither sigma is negative.
void validateDeviceParams(const DeviceParams& params);

/// Samples per-read resistance/current realisations.
class DeviceModel {
 public:
  explicit DeviceModel(const DeviceParams& params = DeviceParams{},
                       std::uint64_t seed = 0x0d371ce);

  /// One resistance realisation for the given state [Ohm].
  double sampleResistance(bool lrs);

  /// One read-current realisation for the given state [A].
  double sampleCurrent(bool lrs);

  const DeviceParams& params() const { return params_; }
  void reseed(std::uint64_t seed) { eng_.seed(seed); }

 private:
  DeviceParams params_;
  std::mt19937_64 eng_;
  std::normal_distribution<double> gauss_{0.0, 1.0};
};

}  // namespace aimsc::reram
