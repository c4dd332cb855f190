#include "shard/coordinator.hpp"

#include <algorithm>
#include <deque>
#include <stdexcept>
#include <string>
#include <utility>

#include "reliability/redundancy.hpp"

namespace aimsc::shard {

namespace {

void validateShape(std::size_t lanes, std::size_t rowsPerTile) {
  if (lanes == 0 || rowsPerTile == 0) {
    throw std::invalid_argument("ShardCoordinator: zero-sized fleet shape");
  }
}

/// Exact size of the reply shard \p s of \p active sends for a
/// \p shape output: one segment per owned tile (tile t runs on lane
/// t % lanes), one ledger per owned lane — the worker's reply layout.
std::size_t expectedReplyBytes(const service::OutputShape& shape,
                               std::size_t lanes, std::size_t rowsPerTile,
                               std::size_t s, std::size_t active) {
  std::size_t rows = 0, segments = 0, ownedLanes = 0;
  for (std::size_t r0 = 0, t = 0; r0 < shape.height; r0 += rowsPerTile, ++t) {
    if ((t % lanes) % active != s) continue;
    rows += std::min(rowsPerTile, shape.height - r0);
    ++segments;
  }
  for (std::size_t l = 0; l < lanes; ++l) ownedLanes += l % active == s;
  return resultReplyBytes(static_cast<std::uint32_t>(shape.width), rows,
                          segments, ownedLanes);
}

}  // namespace

ShardCoordinator::ShardCoordinator(std::unique_ptr<ShardSupervisor> fabric,
                                   std::size_t lanes, std::size_t rowsPerTile)
    : fabric_(std::move(fabric)), lanes_(lanes), rowsPerTile_(rowsPerTile) {
  if (fabric_ == nullptr) {
    throw std::invalid_argument("ShardCoordinator: null fabric");
  }
  validateShape(lanes_, rowsPerTile_);
}

ShardCoordinator::ShardCoordinator(
    std::vector<std::unique_ptr<ShardChannel>> channels, std::size_t lanes,
    std::size_t rowsPerTile)
    : ShardCoordinator(
          std::make_unique<ShardSupervisor>(std::move(channels),
                                            ShardSupervisor::ChannelFactory{}),
          lanes, rowsPerTile) {}

void ShardCoordinator::fanOut(std::span<const Job> jobs, const JobDone& done) {
  // Surplus shards idle: a lane is the indivisible unit of work, so at
  // most `lanes` shards can own one.  (Idle shards still count as
  // re-dispatch survivors below.)
  const std::size_t shardCount = fabric_->shardCount();
  const std::size_t active = std::min(shardCount, lanes_);

  // A replica's merge target, allocated at its first reply and handed to
  // the caller when its job completes.
  struct Merge {
    ReplicaRun run;
    std::vector<std::uint8_t> rowSeen, laneSeen;
  };
  struct JobState {
    service::OutputShape shape;
    std::vector<Merge> replicas;
    std::size_t outstanding = 0;  ///< frames not yet merged
    bool resolved = false;        ///< done() already called
  };
  // One (job, replica, shard) frame.  The bytes move into the supervisor
  // when the frame starts and die at its join; an orphan gets them back.
  struct Slot {
    std::size_t job = 0, replica = 0, shard = 0;
    std::vector<std::uint8_t> frame;
    std::size_t cost = 0;  ///< frame + expected reply bytes (the window)
    bool orphan = false;
  };

  std::vector<JobState> state(jobs.size());
  std::vector<Slot> slots;
  const auto fail = [&](std::size_t j, const std::string& error) {
    if (state[j].resolved) return;
    state[j].resolved = true;
    state[j].replicas.clear();
    std::vector<ReplicaRun> none;
    done(j, none, error);
  };

  // Encode every frame of the batch up front, in join order (job-major,
  // then replica, then shard).  Keeping the frames is what makes degraded
  // output byte-identical: a dead shard's frame is re-dispatched verbatim
  // (it carries the full lane assignment and all seeds — worker identity
  // never touches the bits).
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const Job& job = jobs[j];
    try {
      const service::Request& q = *job.request;
      JobState& js = state[j];
      js.shape = service::outputShapeFor(q);
      js.replicas.resize(job.replicaSeeds.size());
      // One wire request per job (the pixels are copied once); each frame
      // differs only in its replica seed and lane slice.
      WireRequest wq = makeWireRequest(
          q, job.tenant, job.seedNamespace, 0,
          static_cast<std::uint32_t>(lanes_),
          static_cast<std::uint32_t>(rowsPerTile_), TileAssignment{});
      wq.assignment.laneStride = static_cast<std::uint32_t>(active);
      wq.assignment.rowEnd = static_cast<std::uint32_t>(js.shape.height);
      std::vector<Slot> mine;
      for (std::size_t r = 0; r < job.replicaSeeds.size(); ++r) {
        wq.seed = job.replicaSeeds[r];
        wq.assignment.laneSeedBase = job.replicaSeeds[r];
        for (std::size_t s = 0; s < active; ++s) {
          wq.assignment.laneBegin = static_cast<std::uint32_t>(s);
          Slot& slot = mine.emplace_back();
          slot.job = j;
          slot.replica = r;
          slot.shard = s;
          slot.frame = encodeRequest(wq);
          slot.cost = slot.frame.size() +
                      expectedReplyBytes(js.shape, lanes_, rowsPerTile_, s,
                                         active);
        }
      }
      js.outstanding = mine.size();
      for (Slot& slot : mine) slots.push_back(std::move(slot));
    } catch (const std::exception& e) {
      fail(j, e.what());
    }
  }

  // Per shard: frames waiting for window room, frames in flight (the
  // supervisor's FIFO, in the same order) and the window bytes they hold.
  std::vector<std::deque<std::size_t>> queued(shardCount), sent(shardCount);
  std::vector<std::size_t> window(shardCount, 0);
  for (std::size_t i = 0; i < slots.size(); ++i) {
    queued[slots[i].shard].push_back(i);
  }
  const auto orphanAll = [&](std::size_t s) {
    std::vector<std::vector<std::uint8_t>> back = fabric_->takeOrphans(s);
    if (back.size() != sent[s].size()) {
      throw std::logic_error("ShardCoordinator: orphan count mismatch");
    }
    for (std::size_t k = 0; k < back.size(); ++k) {
      slots[sent[s][k]].frame = std::move(back[k]);
    }
    for (const auto* list : {&sent[s], &queued[s]}) {
      for (const std::size_t i : *list) slots[i].orphan = true;
    }
    sent[s].clear();
    queued[s].clear();
    window[s] = 0;
  };
  // Start queued frames while they fit the window (one always fits).
  const auto fill = [&](std::size_t s) {
    if (fabric_->dead(s)) {
      orphanAll(s);
      return;
    }
    while (!queued[s].empty()) {
      Slot& slot = slots[queued[s].front()];
      if (!sent[s].empty() && window[s] + slot.cost > kShardWindowBytes) break;
      window[s] += slot.cost;
      sent[s].push_back(queued[s].front());
      queued[s].pop_front();
      fabric_->start(s, std::move(slot.frame));
    }
  };

  // Merge one reply into its replica; throws on any contract violation.
  const auto merge = [&](const Slot& slot, const WireReply& reply) {
    JobState& js = state[slot.job];
    const service::OutputShape& shape = js.shape;
    if (!reply.ok) {
      throw std::runtime_error("shard " + std::to_string(slot.shard) +
                               " failed: " + reply.error);
    }
    if (reply.width != shape.width || reply.height != shape.height) {
      throw std::runtime_error("shard " + std::to_string(slot.shard) +
                               " replied with a mismatched output shape");
    }
    Merge& m = js.replicas[slot.replica];
    if (m.rowSeen.empty()) {
      m.run.pixels.assign(shape.width * shape.height, 0);
      m.rowSeen.assign(shape.height, 0);
      m.laneSeen.assign(lanes_, 0);
    }
    for (const RowSegment& seg : reply.segments) {
      for (std::size_t r = seg.rowBegin; r < seg.rowEnd; ++r) {
        if (m.rowSeen[r]) {
          throw std::runtime_error("shard merge: row " + std::to_string(r) +
                                   " covered twice");
        }
        m.rowSeen[r] = 1;
      }
      std::copy(seg.pixels.begin(), seg.pixels.end(),
                m.run.pixels.begin() + seg.rowBegin * shape.width);
    }
    for (const LaneStats& ls : reply.laneStats) {
      if (ls.lane >= lanes_ || m.laneSeen[ls.lane]) {
        throw std::runtime_error("shard merge: bad or duplicate lane ledger");
      }
      m.laneSeen[ls.lane] = 1;
      m.run.events += ls.events;
      m.run.opCount += ls.opCount;
    }
  };
  // Counts one merged frame; the job's last one checks coverage and hands
  // the replicas over.
  const auto complete = [&](std::size_t j) {
    JobState& js = state[j];
    if (js.resolved || --js.outstanding > 0) return;
    std::vector<ReplicaRun> runs;
    for (Merge& m : js.replicas) {
      // Every row lands exactly once and every lane bills exactly once —
      // degraded or not, the contract is identical.
      if (std::find(m.rowSeen.begin(), m.rowSeen.end(), 0) !=
          m.rowSeen.end()) {
        fail(j, "shard merge: incomplete row coverage");
        return;
      }
      if (std::find(m.laneSeen.begin(), m.laneSeen.end(), 0) !=
          m.laneSeen.end()) {
        fail(j, "shard merge: lane ledger missing");
        return;
      }
      runs.push_back(std::move(m.run));
    }
    js.resolved = true;
    js.replicas.clear();
    done(j, runs, {});
  };
  const auto accept = [&](Slot& slot, const WireReply& reply) {
    if (state[slot.job].resolved) return;  // its job already failed
    try {
      merge(slot, reply);
    } catch (const std::exception& e) {
      fail(slot.job, e.what());
      return;
    }
    complete(slot.job);
  };

  // Fan out, then join in order.  Each join frees window room that the
  // shard's next frames fill at once, so a worker computes while the
  // coordinator merges.  A shard that dies leaves its unjoined frames as
  // orphans; survivors pick those up after the healthy joins complete.
  try {
    for (std::size_t s = 0; s < active; ++s) fill(s);
    for (std::size_t i = 0; i < slots.size(); ++i) {
      Slot& slot = slots[i];
      if (slot.orphan) continue;
      const std::size_t s = slot.shard;
      if (sent[s].empty() || sent[s].front() != i) {
        throw std::logic_error("ShardCoordinator: join out of order");
      }
      WireReply reply;
      try {
        reply = fabric_->finish(s);
      } catch (const ShardDead&) {
        orphanAll(s);
        continue;
      }
      sent[s].pop_front();
      window[s] -= slot.cost;
      fill(s);
      accept(slot, reply);
    }
  } catch (...) {
    // Leave no reply owed on a live channel: the next fan-out would pair
    // it with the wrong frame.
    for (std::size_t s = 0; s < active; ++s) {
      for (; !sent[s].empty(); sent[s].pop_front()) {
        try {
          (void)fabric_->finish(s);
        } catch (const ShardDead&) {
          (void)fabric_->takeOrphans(s);
          break;
        } catch (const std::exception&) {
        }
      }
    }
    throw;
  }

  // Degraded mode: each orphaned frame goes, verbatim, to the first live
  // shard that will take it.  All joins above are done, so every live
  // channel is idle; a survivor that dies mid-stand-in hands the frame
  // back and it moves to the next one.
  for (Slot& slot : slots) {
    if (!slot.orphan || state[slot.job].resolved) continue;
    bool served = false;
    std::string lastWhy = "no live shard remains";
    WireReply reply;
    for (std::size_t s = 0; s < shardCount && !served; ++s) {
      if (fabric_->dead(s)) continue;
      try {
        reply = fabric_->roundTrip(s, std::move(slot.frame));
        served = true;
        ++reassigned_;
      } catch (const ShardDead& e) {
        lastWhy = e.what();
        slot.frame = std::move(fabric_->takeOrphans(s).at(0));
      }
    }
    if (!served) {
      fail(slot.job, "shard fabric exhausted: " + lastWhy);
      continue;
    }
    Merge& m = state[slot.job].replicas[slot.replica];
    if (!m.run.degraded) ++degradedReplicas_;
    m.run.degraded = true;
    accept(slot, reply);
  }
}

ShardCoordinator::ReplicaRun ShardCoordinator::runReplica(
    const service::Request& q, service::TenantId tenant,
    std::uint64_t seedNamespace, std::uint64_t replicaSeed) {
  const Job job{&q, tenant, seedNamespace, {replicaSeed}};
  ReplicaRun out;
  std::string failure;
  fanOut(std::span(&job, 1),
         [&](std::size_t, std::vector<ReplicaRun>& runs,
             const std::string& error) {
           failure = error;
           if (error.empty()) out = std::move(runs.front());
         });
  if (!failure.empty()) throw std::runtime_error(failure);
  return out;
}

void ShardCoordinator::runBatch(std::span<const BatchItem> items,
                                const ItemDone& done) {
  std::vector<Job> jobs;
  jobs.reserve(items.size());
  for (const BatchItem& item : items) {
    Job& job = jobs.emplace_back();
    job.request = item.request;
    job.tenant = item.tenant;
    job.seedNamespace = item.seedNamespace;
    const std::size_t replicas =
        std::max<std::size_t>(item.request->redundancy.replicas, 1);
    for (std::size_t r = 0; r < replicas; ++r) {
      job.replicaSeeds.push_back(
          reliability::replicaSeed(item.effectiveSeed, r));
    }
  }
  fanOut(jobs, [&](std::size_t j, std::vector<ReplicaRun>& runs,
                   const std::string& error) {
    service::RequestResult res;
    if (!error.empty()) {
      done(j, res, error);
      return;
    }
    const service::Request& q = *items[j].request;
    std::vector<std::vector<std::uint8_t>> outputs;
    outputs.reserve(runs.size());
    for (ReplicaRun& run : runs) {
      res.events += run.events;
      res.opCount += run.opCount;
      res.degraded = res.degraded || run.degraded;
      outputs.push_back(std::move(run.pixels));
    }
    try {
      const reliability::Vote vote =
          reliability::resolveVote(q.redundancy.vote, q.design);
      const std::vector<std::uint8_t> voted =
          outputs.size() == 1 ? std::move(outputs.front())
                              : reliability::voteImages(outputs, vote);
      q.out.assign(voted);
    } catch (const std::exception& e) {
      done(j, service::RequestResult{}, e.what());
      return;
    }
    done(j, res, {});
  });
}

service::RequestResult ShardCoordinator::runReplicated(
    service::TenantId tenant, const service::Request& q,
    std::uint64_t seedNamespace, std::uint64_t effectiveSeed) {
  const BatchItem item{&q, tenant, seedNamespace, effectiveSeed};
  service::RequestResult out;
  std::string failure;
  runBatch(std::span(&item, 1),
           [&](std::size_t, const service::RequestResult& res,
               const std::string& error) {
             out = res;
             failure = error;
           });
  if (!failure.empty()) throw std::runtime_error(failure);
  return out;
}

}  // namespace aimsc::shard
