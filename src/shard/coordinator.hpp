/// \file coordinator.hpp
/// \brief The shard coordinator: fans one request's lane fleet out across
///        supervised workers and merges row slices + cost ledgers at join.
///
/// Partitioning rule (docs/SHARDING.md): with `activeShards =
/// min(shards, lanes)`, shard s owns lanes `{l : l % activeShards == s}`
/// — the SAME modular pinning `TileExecutor` uses for tiles, one level up.
/// Every lane is owned by exactly one shard, every tile is pinned to
/// exactly one lane, so the union of the shards' row segments covers every
/// output row exactly once and the merged ledger bills every lane exactly
/// once.  Because a lane's bits depend only on its seed and its ascending
/// tile sequence, the merged bytes are identical for ANY shard count —
/// including 1 — and equal to the in-process dispatcher and one-shot
/// apps::runApp (tests/test_shard.cpp proves this differentially over the
/// real subprocess transport).
///
/// Pipelined batches (docs/SHARDING.md "Pipelined batches"): a batch is
/// ONE fan-out.  Every (request, replica, shard) frame is encoded up
/// front, started under a per-shard byte window (kShardWindowBytes) and
/// joined in order; a request is merged, voted and handed to the caller as
/// soon as its last frame is in, so workers compute the next frames while
/// the coordinator merges.  runReplica/runReplicated are one-item batches.
///
/// Failure semantics (docs/SHARDING.md "Failure semantics & recovery"):
/// transient worker failures are absorbed by the `ShardSupervisor`
/// (retry/backoff/respawn, byte-identical replay).  A shard that exhausts
/// its budget is DEAD; after the joins the coordinator re-dispatches each
/// of that shard's EXACT encoded frames to a survivor.  A frame carries the
/// complete lane assignment and every seed, so worker identity does not
/// touch the bits: the survivor produces byte-for-byte the rows the dead
/// shard would have, merges stay exactly-once, and only the requests whose
/// frames moved are marked degraded.  A request fails on its own (an
/// `ok == false` reply, a failed merge) or when every shard is dead — with
/// an error, never a hang (every wait is deadline-bounded).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "service/request.hpp"
#include "shard/supervisor.hpp"
#include "shard/transport.hpp"
#include "shard/wire.hpp"

namespace aimsc::shard {

/// Per-shard send window of a pipelined batch: frame bytes plus expected
/// reply bytes of the frames in flight on one shard.  At least one frame
/// is always allowed.  It stays below what either direction of a channel
/// buffers (AF_UNIX socketpair 208 KiB; TCP loopback 16 KiB send + 128 KiB
/// receive), so all replies owed fit in the reply direction: a worker never
/// blocks writing while the coordinator blocks sending, and the pipeline
/// cannot deadlock (docs/SHARDING.md).
constexpr std::size_t kShardWindowBytes = std::size_t{64} << 10;

class ShardCoordinator {
 public:
  /// Takes ownership of the supervised \p fabric; \p lanes / \p rowsPerTile
  /// are the fleet shape of every request (ServiceConfig's role — part of
  /// the bit contract, carried on the wire).
  ShardCoordinator(std::unique_ptr<ShardSupervisor> fabric, std::size_t lanes,
                   std::size_t rowsPerTile);

  /// Convenience: wraps bare \p channels in a supervisor with no respawn
  /// factory (retry-in-place only — failures past the attempt budget mark
  /// the shard dead).  The differential tests' cheap construction path.
  ShardCoordinator(std::vector<std::unique_ptr<ShardChannel>> channels,
                   std::size_t lanes, std::size_t rowsPerTile);

  /// One replica execution fanned across the shards.
  struct ReplicaRun {
    std::vector<std::uint8_t> pixels;  ///< full output image, row-major
    reram::EventCounts events;         ///< summed over all lanes
    std::uint64_t opCount = 0;         ///< summed over all lanes
    bool degraded = false;  ///< some lane slice ran on a stand-in shard
  };

  /// Executes ONE replica of \p q (fleet master seed \p replicaSeed, which
  /// must already be namespaced and replica-strided) across all live
  /// shards, re-dispatching dead shards' frames to survivors, and merges
  /// the row segments into the full output image.  Throws
  /// std::runtime_error on deterministic worker failure, incomplete row
  /// coverage, or when every shard is dead.  A one-item fan-out.
  ReplicaRun runReplica(const service::Request& q, service::TenantId tenant,
                        std::uint64_t seedNamespace,
                        std::uint64_t replicaSeed);

  /// Full request execution equal to the solo path: a one-item runBatch
  /// that throws the item's error as std::runtime_error.  \p effectiveSeed
  /// is the tenant-namespaced request seed.
  service::RequestResult runReplicated(service::TenantId tenant,
                                       const service::Request& q,
                                       std::uint64_t seedNamespace,
                                       std::uint64_t effectiveSeed);

  /// One request of a batch.  `request` (and the client memory it views)
  /// must stay valid until the item's callback has run.
  struct BatchItem {
    const service::Request* request = nullptr;
    service::TenantId tenant = 0;
    std::uint64_t seedNamespace = 0;
    std::uint64_t effectiveSeed = 0;  ///< tenant-namespaced request seed
  };

  /// Called once per item, in completion order, as soon as the item
  /// resolves.  Empty \p error = success: the voted bytes have been written
  /// through `request->out` and \p result holds the replica-summed ledgers
  /// (`degraded` set if any of its frames ran on a stand-in shard).
  using ItemDone = std::function<void(
      std::size_t item, const service::RequestResult& result,
      const std::string& error)>;

  /// Runs every replica of every item as one pipelined fan-out: frames go
  /// out under the per-shard window, replies are joined in order, and each
  /// item is merged, voted (reliability::voteImages), written and passed to
  /// \p done the moment its last frame is in.  One item's failure never
  /// touches another's outcome.
  void runBatch(std::span<const BatchItem> items, const ItemDone& done);

  ShardSupervisor& fabric() { return *fabric_; }
  const ShardSupervisor& fabric() const { return *fabric_; }

  /// Lane slices served by a stand-in shard because their owner was dead.
  std::uint64_t reassignedDispatches() const { return reassigned_; }
  /// Replicas that completed in degraded mode.
  std::uint64_t degradedReplicas() const { return degradedReplicas_; }

  std::size_t shardCount() const { return fabric_->shardCount(); }
  std::size_t lanes() const { return lanes_; }
  std::size_t rowsPerTile() const { return rowsPerTile_; }

 private:
  /// The replica seeds of one request in a fan-out.
  struct Job {
    const service::Request* request = nullptr;
    service::TenantId tenant = 0;
    std::uint64_t seedNamespace = 0;
    std::vector<std::uint64_t> replicaSeeds;
  };
  /// Per-job completion: the merged replica runs, or an error.
  using JobDone = std::function<void(std::size_t job,
                                     std::vector<ReplicaRun>& runs,
                                     const std::string& error)>;

  /// The one fan-out path behind runReplica/runReplicated/runBatch.
  void fanOut(std::span<const Job> jobs, const JobDone& done);

  std::unique_ptr<ShardSupervisor> fabric_;
  std::size_t lanes_;
  std::size_t rowsPerTile_;
  std::uint64_t reassigned_ = 0;
  std::uint64_t degradedReplicas_ = 0;
};

}  // namespace aimsc::shard
