/// \file fault_model_cache.hpp
/// \brief Memoized misdecision tables — the daemon's warm-state win.
///
/// A per-mat `reram::FaultModel` is a pure function of its constructor
/// triple (device params, seed, samples): every table entry is Monte-Carlo
/// sampled from a seed derived deterministically from that triple and the
/// query pattern.  One-shot `apps::runApp` therefore re-pays the full
/// Monte-Carlo campaign on EVERY call with a device-variability FaultPlan
/// (perfbench's `reram.fault_tables_ms` measures it); a persistent service
/// can keep the tables.
///
/// The cache memoizes whole models by their constructor triple and hands
/// them out through the `core::FaultModelProvider` hook.  Because a hit
/// returns a model built from exactly the arguments the mat would have used
/// itself, cached runs are bit-identical to cold runs — the request seed
/// still namespaces the tables, and tenants with different seeds or device
/// corners get distinct entries.  Concurrent lanes may query one model
/// safely: `FaultModel` publishes its 1..3-row entries through lock-free
/// atomic slots and guards only the wider-pattern map with a mutex.
///
/// The cache is a least-recently-used map of at most `kCapacity` models, so
/// a service fed endless distinct fault configurations keeps bounded
/// memory.  An evicted model stays alive for executors still holding it;
/// asking for its key again is a miss that rebuilds the identical tables.
#pragma once

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <tuple>

#include "core/accelerator.hpp"
#include "reram/device.hpp"
#include "reram/fault_model.hpp"

namespace aimsc::service {

class FaultModelCache {
 public:
  /// Models kept at most.  The largest working sets measured are 24 models
  /// (perfbench bulk-hd) and 8 (bench_service), far below it.
  static constexpr std::size_t kCapacity = 64;

  /// The memoized equivalent of `new FaultModel(device, seed, samples)`.
  std::shared_ptr<const reram::FaultModel> get(
      const reram::DeviceParams& device, std::uint64_t seed,
      std::size_t samples);

  /// Provider bound to this cache (for AcceleratorConfig::faultModelProvider).
  /// The cache must outlive every executor built with the provider.
  core::FaultModelProvider provider();

  std::uint64_t hits() const;
  std::uint64_t misses() const;
  std::uint64_t evictions() const;
  std::size_t size() const;

 private:
  // Every field that changes the Monte-Carlo outcome is part of the key.
  using Key = std::tuple<double, double, double, double, double,
                         std::uint64_t, std::uint64_t, std::size_t>;
  using Entry = std::pair<Key, std::shared_ptr<const reram::FaultModel>>;
  static Key keyFor(const reram::DeviceParams& device, std::uint64_t seed,
                    std::size_t samples);

  mutable std::mutex mutex_;
  std::list<Entry> recency_;  ///< most recently used first
  std::map<Key, std::list<Entry>::iterator> models_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace aimsc::service
