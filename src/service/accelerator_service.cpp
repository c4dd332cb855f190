#include "service/accelerator_service.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "core/tile_executor.hpp"
#include "reliability/fault_rng.hpp"
#include "service/request_kernels.hpp"
#include "shard/coordinator.hpp"

namespace aimsc::service {

namespace {

using Clock = std::chrono::steady_clock;

double microsSince(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double, std::micro>(t1 - t0).count();
}

const ServiceConfig& validated(const ServiceConfig& config) {
  if (config.lanes == 0 || config.rowsPerTile == 0 || config.maxBatch == 0 ||
      config.queueCapacity == 0) {
    throw std::invalid_argument("ServiceConfig: zero-sized knob");
  }
  return config;
}

/// Builds the shard fan-out when configured.  Runs in the member-init list
/// BEFORE the worker pool / dispatcher threads exist: fork()ing subprocess
/// workers from a multi-threaded parent would be unsafe.
std::unique_ptr<shard::ShardCoordinator> makeCoordinator(
    const ServiceConfig& config) {
  if (config.shards == 0) return nullptr;
  return std::make_unique<shard::ShardCoordinator>(
      shard::makeSupervisedFabric(config.shardTransport, config.shards,
                                  config.shardDeadlines, config.shardRetry,
                                  config.shardFaults),
      config.lanes, config.rowsPerTile);
}

}  // namespace

/// Everything one queued request carries through the pipeline.  The frame
/// views alias client memory; replica outputs are service-owned staging
/// that dies with the batch (the voted bytes leave through `request.out`).
struct AcceleratorService::Pending {
  TenantId tenant = 0;
  Request request;
  std::uint64_t effectiveSeed = 0;
  std::uint64_t id = 0;
  Clock::time_point submitTime;

  // Batch-local execution state (dispatcher only), one entry per replica.
  std::vector<std::unique_ptr<core::TileExecutor>> execs;
  std::vector<apps::StageRunner> runs;

  // Completion (guarded by the service ticket mutex).
  bool done = false;
  std::string error;
  RequestResult result;
};

AcceleratorService::AcceleratorService(const ServiceConfig& config)
    : config_(validated(config)),
      queue_(config.queueCapacity),
      coordinator_(makeCoordinator(config_)),
      pool_(config.workerThreads),
      paused_(config.startPaused) {
  dispatcher_ = std::thread([this] { dispatchLoop(); });
}

AcceleratorService::~AcceleratorService() { shutdown(); }

std::uint64_t AcceleratorService::namespacedSeed(TenantId tenant,
                                                 std::uint64_t seed) const {
  std::uint64_t ns = 0;
  {
    std::lock_guard<std::mutex> lock(statsMutex_);
    const auto it = ledgers_.find(tenant);
    if (it != ledgers_.end()) ns = it->second.seedNamespace;
  }
  if (ns == 0) return seed;
  // Re-key through the mixer so tenant universes never collide with each
  // other or with the lane/replica seed strides.
  return reliability::mix64(ns ^ (seed + 0x9e3779b97f4a7c15ull));
}

std::shared_ptr<AcceleratorService::Pending> AcceleratorService::makePending(
    TenantId tenant, const Request& request) {
  auto p = std::make_shared<Pending>();
  p->tenant = tenant;
  p->request = request;
  p->effectiveSeed = namespacedSeed(tenant, request.seed);
  p->submitTime = Clock::now();
  return p;
}

Ticket AcceleratorService::registerTicket(
    const std::shared_ptr<Pending>& pending) {
  std::lock_guard<std::mutex> lock(ticketMutex_);
  const std::uint64_t id = nextTicket_++;
  pending->id = id;
  tickets_.emplace(id, pending);
  return Ticket{id};
}

Ticket AcceleratorService::submit(TenantId tenant, const Request& request) {
  validateRequest(request);
  auto pending = makePending(tenant, request);
  const Ticket ticket = registerTicket(pending);
  if (!queue_.push(pending)) {
    std::lock_guard<std::mutex> lock(ticketMutex_);
    tickets_.erase(ticket.id);
    throw std::runtime_error("AcceleratorService: stopped");
  }
  return ticket;
}

std::optional<Ticket> AcceleratorService::trySubmit(TenantId tenant,
                                                    const Request& request) {
  validateRequest(request);
  auto pending = makePending(tenant, request);
  const Ticket ticket = registerTicket(pending);
  if (!queue_.tryPush(pending)) {
    std::lock_guard<std::mutex> lock(ticketMutex_);
    tickets_.erase(ticket.id);
    return std::nullopt;
  }
  return ticket;
}

bool AcceleratorService::poll(const Ticket& ticket) const {
  std::lock_guard<std::mutex> lock(ticketMutex_);
  const auto it = tickets_.find(ticket.id);
  return it == tickets_.end() || it->second->done;
}

std::shared_ptr<AcceleratorService::Pending> AcceleratorService::redeem(
    const Ticket& ticket, std::optional<std::chrono::microseconds> timeout) {
  std::unique_lock<std::mutex> lock(ticketMutex_);
  const auto it = tickets_.find(ticket.id);
  if (it == tickets_.end()) {
    throw std::invalid_argument(
        "AcceleratorService: unknown or already-redeemed ticket");
  }
  std::shared_ptr<Pending> pending = it->second;
  const auto resolved = [&] { return pending->done; };
  if (!timeout) {
    ticketCv_.wait(lock, resolved);
  } else if (!ticketCv_.wait_for(lock, *timeout, resolved)) {
    return nullptr;  // still pending; ticket stays redeemable
  }
  tickets_.erase(ticket.id);
  return pending;
}

namespace {

// Redemption of a resolved Pending (a private type, hence the templates).
template <typename P>
RequestResult resultOf(const P& p) {
  if (!p.error.empty()) throw std::runtime_error(p.error);
  return p.result;
}

template <typename P>
TicketOutcome outcomeOf(const P& p) {
  TicketOutcome outcome;
  if (!p.error.empty()) {
    outcome.status = TicketStatus::Failed;
    outcome.error = p.error;
    return outcome;
  }
  outcome.result = p.result;
  outcome.status =
      p.result.degraded ? TicketStatus::Degraded : TicketStatus::Ok;
  return outcome;
}

}  // namespace

RequestResult AcceleratorService::wait(const Ticket& ticket) {
  return resultOf(*redeem(ticket, std::nullopt));
}

std::optional<RequestResult> AcceleratorService::waitFor(
    const Ticket& ticket, std::chrono::microseconds timeout) {
  const auto pending = redeem(ticket, timeout);
  if (pending == nullptr) return std::nullopt;
  return resultOf(*pending);
}

TicketOutcome AcceleratorService::waitOutcome(const Ticket& ticket) {
  return outcomeOf(*redeem(ticket, std::nullopt));
}

std::optional<TicketOutcome> AcceleratorService::waitOutcomeFor(
    const Ticket& ticket, std::chrono::microseconds timeout) {
  const auto pending = redeem(ticket, timeout);
  if (pending == nullptr) return std::nullopt;
  return outcomeOf(*pending);
}

RequestResult AcceleratorService::run(TenantId tenant, const Request& request) {
  return wait(submit(tenant, request));
}

void AcceleratorService::setTenantSeedNamespace(TenantId tenant,
                                                std::uint64_t ns) {
  std::lock_guard<std::mutex> lock(statsMutex_);
  ledgers_[tenant].seedNamespace = ns;
}

TenantLedger AcceleratorService::tenantLedger(TenantId tenant) const {
  std::lock_guard<std::mutex> lock(statsMutex_);
  const auto it = ledgers_.find(tenant);
  return it == ledgers_.end() ? TenantLedger{} : it->second;
}

ServiceStats AcceleratorService::stats() const {
  std::lock_guard<std::mutex> lock(statsMutex_);
  ServiceStats s = stats_;
  s.faultModelCacheHits = faultCache_.hits();
  s.faultModelCacheMisses = faultCache_.misses();
  s.faultModelCacheEvictions = faultCache_.evictions();
  s.faultModelCacheSize = faultCache_.size();
  return s;
}

void AcceleratorService::pause() {
  std::lock_guard<std::mutex> lock(pauseMutex_);
  paused_ = true;
}

void AcceleratorService::resume() {
  std::lock_guard<std::mutex> lock(pauseMutex_);
  paused_ = false;
  pauseCv_.notify_all();
}

void AcceleratorService::shutdown() {
  {
    std::lock_guard<std::mutex> lock(pauseMutex_);
    stopping_ = true;
    paused_ = false;  // a paused dispatcher must wake to drain
    pauseCv_.notify_all();
  }
  queue_.close();
  if (dispatcher_.joinable()) dispatcher_.join();
}

void AcceleratorService::finish(Pending& p, const std::string& error,
                                const RequestResult& result) {
  std::lock_guard<std::mutex> lock(ticketMutex_);
  p.error = error;
  p.result = result;
  p.done = true;
  ticketCv_.notify_all();
}

void AcceleratorService::billLocked(TenantId tenant, std::size_t pixels,
                                    std::size_t replicas,
                                    const RequestResult& res) {
  TenantLedger& ledger = ledgers_[tenant];
  ledger.requests += 1;
  ledger.pixels += pixels;
  ledger.replicasRun += replicas;
  ledger.opCount += res.opCount;
  ledger.events += res.events;
}

void AcceleratorService::recordBatchLocked(std::size_t batchSize,
                                           std::size_t served) {
  stats_.requestsServed += served;
  stats_.batches += 1;
  if (stats_.batchOccupancy.size() <= batchSize) {
    stats_.batchOccupancy.resize(batchSize + 1, 0);
  }
  stats_.batchOccupancy[batchSize] += 1;
}

void AcceleratorService::dispatchLoop() {
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(pauseMutex_);
      pauseCv_.wait(lock, [this] { return !paused_ || stopping_; });
    }
    auto batch = queue_.popBatch(config_.maxBatch, config_.flushDeadline);
    if (batch.empty()) return;  // queue closed and drained
    executeBatch(batch);
  }
}

void AcceleratorService::executeBatchSharded(
    std::vector<std::shared_ptr<Pending>>& batch) {
  const auto batchStart = Clock::now();
  std::size_t served = 0;
  // Publish the fabric's cumulative counters.  The supervisor is
  // dispatcher-thread-only, so copying under statsMutex_ is the one place
  // they become visible to concurrent stats() readers; it runs BEFORE each
  // ticket resolves so a client that waits on a ticket and then reads
  // stats() sees the recovery work its own request caused.
  const auto snapshotFabricLocked = [this]() {
    const shard::FabricStats& fs = coordinator_->fabric().stats();
    stats_.shardRetries = fs.retries;
    stats_.shardRespawns = fs.respawns;
    stats_.shardTimeouts = fs.timeouts;
    stats_.shardGarbageReplies = fs.garbageReplies;
    stats_.shardFaultsInjected = fs.faultsInjected;
    stats_.deadShards = fs.deadShards;
    stats_.reassignedDispatches = coordinator_->reassignedDispatches();
  };
  std::vector<shard::ShardCoordinator::BatchItem> items;
  items.reserve(batch.size());
  {
    std::lock_guard<std::mutex> lock(statsMutex_);
    for (const auto& p : batch) {
      const auto it = ledgers_.find(p->tenant);
      items.push_back({&p->request, p->tenant,
                       it == ledgers_.end() ? 0 : it->second.seedNamespace,
                       p->effectiveSeed});
    }
  }
  // One pipelined fan-out for the whole batch; each ticket resolves the
  // moment its request is merged and voted, not at the end of the batch.
  const auto resolve = [&](std::size_t i, const RequestResult& result,
                           const std::string& error) {
    Pending& p = *batch[i];
    if (!error.empty()) {
      {
        std::lock_guard<std::mutex> lock(statsMutex_);
        snapshotFabricLocked();
      }
      finish(p, error);
      return;
    }
    RequestResult res = result;
    res.queueMicros = microsSince(p.submitTime, batchStart);
    res.execMicros = microsSince(batchStart, Clock::now());
    res.batchSize = batch.size();
    {
      const OutputShape shape = outputShapeFor(p.request);
      std::lock_guard<std::mutex> lock(statsMutex_);
      billLocked(p.tenant, shape.width * shape.height,
                 std::max<std::size_t>(p.request.redundancy.replicas, 1), res);
      if (res.degraded) ++stats_.degradedRequests;
      snapshotFabricLocked();
      ++served;
    }
    finish(p, {}, res);
  };
  try {
    coordinator_->runBatch(items, resolve);
  } catch (const std::exception& e) {
    for (auto& p : batch) {
      if (!p->done) {
        finish(*p, std::string("batch execution failed: ") + e.what());
      }
    }
  }

  std::lock_guard<std::mutex> lock(statsMutex_);
  recordBatchLocked(batch.size(), served);
  snapshotFabricLocked();
}

void AcceleratorService::executeBatch(
    std::vector<std::shared_ptr<Pending>>& batch) {
  if (coordinator_ != nullptr) {
    executeBatchSharded(batch);
    return;
  }
  const auto batchStart = Clock::now();

  // Every request builds its per-replica lane fleets, then the batch runs
  // stage-major: ONE merged wave per stage collects stage s of every
  // rider's replicas (a later stage reads its predecessor's full output,
  // so the barrier sits between waves).  Tasks are self-contained (own
  // backends/arenas, disjoint rows of the replica's own stage buffer), so
  // wave composition cannot change any bit.
  const ExecShape es{config_.lanes, config_.rowsPerTile};
  for (std::size_t s = 0; s < apps::kMaxStages; ++s) {
    std::vector<std::function<void()>> wave;
    for (auto& p : batch) {
      if (p->done) continue;  // failed in setup
      try {
        const Request& q = p->request;
        if (s == 0) {
          const std::size_t replicas =
              std::max<std::size_t>(q.redundancy.replicas, 1);
          p->execs.reserve(replicas);
          p->runs.reserve(replicas);
          for (std::size_t r = 0; r < replicas; ++r) {
            p->execs.push_back(makeRequestExecutor(
                es, q, reliability::replicaSeed(p->effectiveSeed, r),
                faultCache_));
            p->runs.emplace_back(apps::appSpec(q.app), inputsOf(q));
          }
        }
        for (std::size_t r = 0; r < p->runs.size(); ++r) {
          apps::StageRunner& run = p->runs[r];
          if (s >= run.stages()) continue;
          auto tasks = p->execs[r]->laneTasks(run.height(), run.stage(s));
          for (auto& t : tasks) wave.push_back(std::move(t));
        }
      } catch (const std::exception& e) {
        finish(*p, e.what());
      }
    }
    if (wave.empty()) break;
    try {
      pool_.run(std::move(wave));
    } catch (const std::exception& e) {
      std::lock_guard<std::mutex> lock(ticketMutex_);
      for (auto& p : batch) {
        if (p->done) continue;
        p->error = std::string("batch execution failed: ") + e.what();
        p->done = true;
      }
      ticketCv_.notify_all();
      return;
    }
  }

  const auto batchEnd = Clock::now();
  const double execMicros = microsSince(batchStart, batchEnd);
  std::size_t served = 0;

  // Join: vote, write through the client span, bill the tenant.
  for (auto& p : batch) {
    if (p->done) continue;  // failed in setup
    const Request& q = p->request;
    RequestResult res;
    try {
      std::vector<std::vector<std::uint8_t>> outputs;
      outputs.reserve(p->runs.size());
      for (auto& run : p->runs) {
        outputs.push_back(std::move(run.output().pixels()));
      }
      const reliability::Vote vote =
          reliability::resolveVote(q.redundancy.vote, q.design);
      const std::vector<std::uint8_t> voted =
          outputs.size() == 1 ? std::move(outputs.front())
                              : reliability::voteImages(outputs, vote);
      q.out.assign(voted);

      for (auto& exec : p->execs) {
        res.events += exec->totalEvents();
        for (std::size_t i = 0; i < exec->lanes(); ++i) {
          res.opCount += exec->backend(i).opCount();
        }
      }
      res.queueMicros = microsSince(p->submitTime, batchStart);
      res.execMicros = execMicros;
      res.batchSize = batch.size();

      {
        std::lock_guard<std::mutex> lock(statsMutex_);
        billLocked(p->tenant, voted.size(), p->execs.size(), res);
      }
      ++served;
    } catch (const std::exception& e) {
      finish(*p, e.what());
      continue;
    }

    // Free the batch-local execution state before handing the result over.
    p->execs.clear();
    p->runs.clear();
    finish(*p, {}, res);
  }

  std::lock_guard<std::mutex> lock(statsMutex_);
  recordBatchLocked(batch.size(), served);
}

}  // namespace aimsc::service
