/// \file layers.hpp
/// \brief The traced run's layer replay: each distinct traffic item is run
///        again through the public functions of core, reram, reliability,
///        shard, apps and img, with the benchmark timing its own calls into
///        each.  A split counts only when the replay reproduces the
///        service's bytes and ledgers; otherwise it is reported unavailable.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/thread_pool.hpp"
#include "service/fault_model_cache.hpp"
#include "workloads.hpp"

namespace aimsc::shard {
class ShardCoordinator;
}

namespace perfbench {

/// Per-substrate stage split from the timing backend decorator.
struct DesignSplit {
  double encodeNs = 0, opsNs = 0, decodeNs = 0;
  double opCount = 0;
  std::size_t pixels = 0;
  std::size_t items = 0;
  std::size_t mismatches = 0;
};

/// What one item's replay spent in each layer (the blocking-path pieces the
/// unattributed share is computed from).
struct ItemCost {
  double buildUs = 0;   ///< executor builds, all replicas
  double waveUs = 0;    ///< parallel lane waves, all replicas and stages
  double coldUs = 0;    ///< builds + waves with a fresh fault-table cache
  double voteUs = 0;    ///< replica vote
  double shardUs = 0;   ///< coordinator runReplica, all replicas
  double synthUs = 0;   ///< input synthesis
  double scoringUs = 0; ///< float reference + quality score
  double oneshotUs = 0; ///< the whole apps::runAppDetailed call
};

/// The item's output on runApp's own lane fleet (the factory's lanes with
/// every RunConfig knob, the service's stage kernels and vote): the oracle
/// for items a service request cannot express.
Expected replayOnFleet(const Item& item);

class LayerReplay {
 public:
  /// Forks the replay's shard workers; call before any thread starts.
  explicit LayerReplay(std::size_t shards);
  ~LayerReplay();

  LayerReplay(const LayerReplay&) = delete;
  LayerReplay& operator=(const LayerReplay&) = delete;

  /// Replays \p item through every layer; returns its per-layer cost.
  ItemCost replay(const Item& item);

  /// Appends the per-layer metrics this replay measured to \p out.
  void report(std::vector<Metric>& out) const;

  /// Shard fabric counters of the replay coordinator.
  std::uint64_t retries() const;
  std::uint64_t respawns() const;
  std::uint64_t timeouts() const;

  std::size_t mismatches() const { return coreMismatches_; }

 private:
  struct Channels;

  void replayCore(const Item& item, service::FaultModelCache& cache,
                  ItemCost& cost);
  void replayDesign(const Item& item, service::FaultModelCache& cache);
  void replayShard(const Item& item, ItemCost& cost);
  void replayApps(const Item& item, ItemCost& cost);

  std::unique_ptr<Channels> channels_;
  std::unique_ptr<aimsc::shard::ShardCoordinator> coordinator_;
  /// Built after the shard workers fork, so they fork single-threaded.
  std::unique_ptr<aimsc::core::ThreadPool> pool_;

  // core / reram / reliability
  std::vector<double> buildUs_, waveSerialMs_, waveMs_, laneImbalance_;
  double serialSum_ = 0, parallelSum_ = 0;
  std::vector<double> tablesMs_, probabilisticRatio_, faultedRatio_, voteUs_;
  std::uint64_t tablesBuilt_ = 0;
  std::size_t coreMismatches_ = 0;
  std::map<core::DesignKind, DesignSplit> designs_;

  // shard
  std::vector<double> frameBytes_, encodeUs_, sendUs_, recvWaitUs_,
      workerServeUs_, transportUs_, decodeReplyUs_, coordSelfUs_;
  std::size_t shardMismatches_ = 0, shardSkipped_ = 0;

  // apps / img
  std::vector<double> oneshotMs_, scoringMs_, synthMs_;
};

}  // namespace perfbench
