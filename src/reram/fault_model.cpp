#include "reram/fault_model.hpp"

#include <algorithm>
#include <stdexcept>

#include "reram/fault_kernel.hpp"

namespace aimsc::reram {

FaultModel::FaultModel(const DeviceParams& params, std::uint64_t seed,
                       std::size_t samples)
    : params_(params), seed_(seed), samples_(samples) {
  if (samples_ == 0) throw std::invalid_argument("FaultModel: zero samples");
  for (auto& slot : slots_) slot.store(-1.0, std::memory_order_relaxed);
}

double FaultModel::misdecisionProb(SlOp op, int onesCount, int numRows) const {
  if (onesCount < 0 || onesCount > numRows || numRows < 1) {
    throw std::invalid_argument("FaultModel: bad pattern");
  }
  if (numRows <= kSlotRows) {
    // Rows r occupy slots [(r-1)(r+2)/2, ...) of the op's block, one per
    // ones count 0..r.
    const auto inBlock = static_cast<std::size_t>(
        (numRows - 1) * (numRows + 2) / 2 + onesCount);
    auto& slot = slots_[static_cast<std::size_t>(op) * kSlotsPerOp + inBlock];
    double p = slot.load(std::memory_order_acquire);
    if (p < 0.0) {
      p = compute(op, onesCount, numRows);
      slot.store(p, std::memory_order_release);
    }
    return p;
  }
  const auto key = std::make_tuple(op, onesCount, numRows);
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = cache_.find(key);
    if (it != cache_.end()) return it->second;
  }
  // Compute outside the lock (Monte-Carlo is slow; the per-entry seed makes
  // a duplicate computation by a racing lane yield the identical value).
  const double p = compute(op, onesCount, numRows);
  const std::lock_guard<std::mutex> lock(mutex_);
  cache_.emplace(key, p);
  return p;
}

double FaultModel::compute(SlOp op, int onesCount, int numRows) const {
  if (params_.sigmaLrs == 0.0 && params_.sigmaHrs == 0.0) return 0.0;

  // Deterministic per-entry seed so the table does not depend on query order.
  const std::uint64_t entrySeed =
      seed_ ^ (static_cast<std::uint64_t>(op) << 48) ^
      (static_cast<std::uint64_t>(onesCount) << 24) ^
      static_cast<std::uint64_t>(numRows);
  const std::size_t wrong = countMisdecisions(params_, op, onesCount, numRows,
                                              entrySeed, samples_);
  return static_cast<double>(wrong) / static_cast<double>(samples_);
}

double FaultModel::worstCase(SlOp op, int numRows) const {
  double worst = 0.0;
  for (int ones = 0; ones <= numRows; ++ones) {
    worst = std::max(worst, misdecisionProb(op, ones, numRows));
  }
  return worst;
}

}  // namespace aimsc::reram
