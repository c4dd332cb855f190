#include "service/fault_model_cache.hpp"

namespace aimsc::service {

FaultModelCache::Key FaultModelCache::keyFor(const reram::DeviceParams& device,
                                             std::uint64_t seed,
                                             std::size_t samples) {
  return Key{device.rLrsOhm, device.rHrsOhm,  device.sigmaLrs,
             device.sigmaHrs, device.vRead,   device.enduranceCycles,
             seed,            samples};
}

std::shared_ptr<const reram::FaultModel> FaultModelCache::get(
    const reram::DeviceParams& device, std::uint64_t seed,
    std::size_t samples) {
  const Key key = keyFor(device, seed, samples);
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = models_.find(key);
  if (it != models_.end()) {
    ++hits_;
    recency_.splice(recency_.begin(), recency_, it->second);
    return it->second->second;
  }
  ++misses_;
  // Constructing is cheap — the Monte-Carlo happens lazily per queried
  // pattern inside the model, memoized there for the model's lifetime.
  auto model = std::make_shared<const reram::FaultModel>(device, seed, samples);
  recency_.emplace_front(key, model);
  models_.emplace(key, recency_.begin());
  if (recency_.size() > kCapacity) {
    models_.erase(recency_.back().first);
    recency_.pop_back();
    ++evictions_;
  }
  return model;
}

core::FaultModelProvider FaultModelCache::provider() {
  return [this](const reram::DeviceParams& device, std::uint64_t seed,
                std::size_t samples) { return get(device, seed, samples); };
}

std::uint64_t FaultModelCache::hits() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return hits_;
}

std::uint64_t FaultModelCache::misses() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return misses_;
}

std::uint64_t FaultModelCache::evictions() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return evictions_;
}

std::size_t FaultModelCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return models_.size();
}

}  // namespace aimsc::service
