#include "layers.hpp"

#include <functional>
#include <span>
#include <utility>

#include "apps/bilinear.hpp"
#include "apps/compositing.hpp"
#include "apps/filters.hpp"
#include "apps/matting.hpp"
#include "apps/morphology.hpp"
#include "core/backend_reram.hpp"
#include "reliability/injector.hpp"
#include "reliability/redundancy.hpp"
#include "service/request_kernels.hpp"
#include "shard/coordinator.hpp"
#include "shard/transport.hpp"
#include "shard/wire.hpp"
#include "shard/worker.hpp"

namespace perfbench {

namespace shard = aimsc::shard;

namespace {

/// Adds the lifetime of the guard, in nanoseconds, to an accumulator.
class Span {
 public:
  explicit Span(double& acc) : acc_(acc), t0_(Clock::now()) {}
  ~Span() {
    acc_ += std::chrono::duration<double, std::nano>(Clock::now() - t0_).count();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  double& acc_;
  Clock::time_point t0_;
};

/// Forwarding decorator that times stage-1 encodes, stage-2 ops and
/// stage-3 decodes of one lane into a per-design split.  Lanes run serially
/// in the replay, so the shared split needs no lock.
class TimedBackend final : public core::ScBackend {
 public:
  TimedBackend(std::unique_ptr<core::ScBackend> inner, DesignSplit& split)
      : inner_(std::move(inner)), s_(split) {}

  using V = core::ScValue;
  using Bytes = std::span<const std::uint8_t>;

  const char* name() const override { return inner_->name(); }

  std::vector<V> encodePixels(Bytes v) override {
    Span t(s_.encodeNs);
    return inner_->encodePixels(v);
  }
  std::vector<V> encodePixelsCorrelated(Bytes v) override {
    Span t(s_.encodeNs);
    return inner_->encodePixelsCorrelated(v);
  }
  V encodeProb(double p) override {
    Span t(s_.encodeNs);
    return inner_->encodeProb(p);
  }
  V halfStream() override {
    Span t(s_.encodeNs);
    return inner_->halfStream();
  }
  V encodePixel(std::uint8_t v) override {
    Span t(s_.encodeNs);
    return inner_->encodePixel(v);
  }
  V encodePixelCorrelated(std::uint8_t v) override {
    Span t(s_.encodeNs);
    return inner_->encodePixelCorrelated(v);
  }
  std::vector<V> encodeCopies(std::uint8_t v, std::size_t k) override {
    Span t(s_.encodeNs);
    return inner_->encodeCopies(v, k);
  }

  V multiply(const V& x, const V& y) override {
    Span t(s_.opsNs);
    return inner_->multiply(x, y);
  }
  V scaledAdd(const V& x, const V& y, const V& h) override {
    Span t(s_.opsNs);
    return inner_->scaledAdd(x, y, h);
  }
  V addApprox(const V& x, const V& y) override {
    Span t(s_.opsNs);
    return inner_->addApprox(x, y);
  }
  V absSub(const V& x, const V& y) override {
    Span t(s_.opsNs);
    return inner_->absSub(x, y);
  }
  V minimum(const V& x, const V& y) override {
    Span t(s_.opsNs);
    return inner_->minimum(x, y);
  }
  V maximum(const V& x, const V& y) override {
    Span t(s_.opsNs);
    return inner_->maximum(x, y);
  }
  V majMux(const V& x, const V& y, const V& sel) override {
    Span t(s_.opsNs);
    return inner_->majMux(x, y, sel);
  }
  V majMux4(const V& a, const V& b, const V& c, const V& d, const V& sx,
            const V& sy) override {
    Span t(s_.opsNs);
    return inner_->majMux4(a, b, c, d, sx, sy);
  }
  V divide(const V& n, const V& d) override {
    Span t(s_.opsNs);
    return inner_->divide(n, d);
  }

  std::vector<std::uint8_t> decodePixels(std::span<V> v) override {
    Span t(s_.decodeNs);
    return inner_->decodePixels(v);
  }
  std::vector<std::uint8_t> decodePixelsStored(std::span<V> v) override {
    Span t(s_.decodeNs);
    return inner_->decodePixelsStored(v);
  }

  void encodePixelsInto(Bytes v, std::span<V> out) override {
    Span t(s_.encodeNs);
    inner_->encodePixelsInto(v, out);
  }
  void encodePixelsCorrelatedInto(Bytes v, std::span<V> out) override {
    Span t(s_.encodeNs);
    inner_->encodePixelsCorrelatedInto(v, out);
  }
  void encodeProbInto(V& dst, double p) override {
    Span t(s_.encodeNs);
    inner_->encodeProbInto(dst, p);
  }
  void halfStreamInto(V& dst) override {
    Span t(s_.encodeNs);
    inner_->halfStreamInto(dst);
  }
  void encodeCopiesInto(std::uint8_t v, std::span<V> out) override {
    Span t(s_.encodeNs);
    inner_->encodeCopiesInto(v, out);
  }
  void multiplyInto(V& dst, const V& x, const V& y) override {
    Span t(s_.opsNs);
    inner_->multiplyInto(dst, x, y);
  }
  void scaledAddInto(V& dst, const V& x, const V& y, const V& h) override {
    Span t(s_.opsNs);
    inner_->scaledAddInto(dst, x, y, h);
  }
  void addApproxInto(V& dst, const V& x, const V& y) override {
    Span t(s_.opsNs);
    inner_->addApproxInto(dst, x, y);
  }
  void absSubInto(V& dst, const V& x, const V& y) override {
    Span t(s_.opsNs);
    inner_->absSubInto(dst, x, y);
  }
  void minimumInto(V& dst, const V& x, const V& y) override {
    Span t(s_.opsNs);
    inner_->minimumInto(dst, x, y);
  }
  void maximumInto(V& dst, const V& x, const V& y) override {
    Span t(s_.opsNs);
    inner_->maximumInto(dst, x, y);
  }
  void majMuxInto(V& dst, const V& x, const V& y, const V& sel) override {
    Span t(s_.opsNs);
    inner_->majMuxInto(dst, x, y, sel);
  }
  void majMux4Into(V& dst, const V& a, const V& b, const V& c, const V& d,
                   const V& sx, const V& sy) override {
    Span t(s_.opsNs);
    inner_->majMux4Into(dst, a, b, c, d, sx, sy);
  }
  void divideInto(V& dst, const V& n, const V& d) override {
    Span t(s_.opsNs);
    inner_->divideInto(dst, n, d);
  }
  void decodePixelsInto(std::span<V> v, std::span<std::uint8_t> out) override {
    Span t(s_.decodeNs);
    inner_->decodePixelsInto(v, out);
  }
  void decodePixelsStoredInto(std::span<V> v,
                              std::span<std::uint8_t> out) override {
    Span t(s_.decodeNs);
    inner_->decodePixelsStoredInto(v, out);
  }

  reram::EventCounts events() const override { return inner_->events(); }
  void resetEvents() override { inner_->resetEvents(); }
  std::uint64_t opCount() const override { return inner_->opCount(); }

 protected:
  V doBernsteinSelect(std::span<const V> x, std::span<const V> c) override {
    Span t(s_.opsNs);
    return inner_->bernsteinSelect(x, c);
  }
  void doBernsteinSelectInto(V& dst, std::span<const V> x,
                             std::span<const V> c) override {
    Span t(s_.opsNs);
    inner_->bernsteinSelectInto(dst, x, c);
  }

 private:
  std::unique_ptr<core::ScBackend> inner_;
  DesignSplit& s_;
};

/// One channel operation as the coordinator saw it.
struct Io {
  std::size_t shard = 0;
  bool send = false;
  Clock::time_point t0, t1;
  std::vector<std::uint8_t> frame;
};

/// Forwarding ShardChannel that logs every send / receive interval and
/// frame; the coordinator is single-threaded, so the log needs no lock.
class TimingChannel final : public shard::ShardChannel {
 public:
  TimingChannel(std::unique_ptr<shard::ShardChannel> inner, std::size_t shard,
                std::vector<Io>& log)
      : inner_(std::move(inner)), shard_(shard), log_(log) {}

  void send(std::span<const std::uint8_t> frame) override {
    Io io{shard_, true, Clock::now(), {}, {frame.begin(), frame.end()}};
    inner_->send(frame);
    io.t1 = Clock::now();
    log_.push_back(std::move(io));
  }
  std::vector<std::uint8_t> receive() override {
    Io io{shard_, false, Clock::now(), {}, {}};
    io.frame = inner_->receive();
    io.t1 = Clock::now();
    log_.push_back(io);
    return std::move(io.frame);
  }
  void terminate() override { inner_->terminate(); }
  int workerPid() const override { return inner_->workerPid(); }
  bool healthy() const override { return inner_->healthy(); }

 private:
  std::unique_ptr<shard::ShardChannel> inner_;
  std::size_t shard_;
  std::vector<Io>& log_;
};

using ExecFactory =
    std::function<std::unique_ptr<core::TileExecutor>(std::uint64_t seed)>;

/// A request replayed on explicitly built lane fleets, replica by replica,
/// with the same staging and stage kernels as the service dispatcher.
struct FleetRun {
  std::vector<std::uint8_t> bytes;
  reram::EventCounts events;
  std::uint64_t opCount = 0;
  std::vector<double> buildUs;  ///< per replica
  double waveUs = 0;
  double voteUs = 0;
  std::vector<double> laneUs;   ///< per lane, summed (parallel waves only)
};

void runStage(core::TileExecutor& exec, std::size_t height,
              core::TileExecutor::ArenaTileKernel kernel,
              aimsc::core::ThreadPool* pool, FleetRun& run) {
  if (pool == nullptr) {
    const auto t0 = Clock::now();
    exec.forEachTile(height, kernel);
    run.waveUs += microsBetween(t0, Clock::now());
    return;
  }
  auto tasks = exec.laneTasks(height, std::move(kernel));
  run.laneUs.resize(tasks.size(), 0.0);
  std::vector<std::function<void()>> timed;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    timed.push_back([&task = tasks[i], &us = run.laneUs[i]] {
      const auto t0 = Clock::now();
      task();
      us += microsBetween(t0, Clock::now());
    });
  }
  const auto t0 = Clock::now();
  pool->run(std::move(timed));
  run.waveUs += microsBetween(t0, Clock::now());
}

FleetRun runFleet(const Item& item, const service::Request& q,
                  const ExecFactory& make, aimsc::core::ThreadPool* pool) {
  FleetRun run;
  const std::size_t replicas = std::max<std::size_t>(q.redundancy.replicas, 1);
  const bool morph = q.app == apps::AppKind::Morphology;
  std::vector<std::vector<std::uint8_t>> outputs;
  for (std::size_t r = 0; r < replicas; ++r) {
    const auto t0 = Clock::now();
    auto exec = make(reliability::replicaSeed(item.effectiveSeed, r));
    run.buildUs.push_back(microsBetween(t0, Clock::now()));
    img::Image tmp, out;
    if (morph) {
      tmp = service::makeStage0Staging(q, item.shape);
      out = img::Image(item.shape.width, item.shape.height);
    } else {
      out = service::makeStage0Staging(q, item.shape);
    }
    img::Image& stage0 = morph ? tmp : out;
    runStage(*exec, stage0.height(), service::stage0Kernel(q, stage0), pool,
             run);
    if (morph) {
      out.pixels() = tmp.pixels();
      runStage(*exec, out.height(), service::stage1Kernel(tmp, out), pool, run);
    }
    run.events += exec->totalEvents();
    for (std::size_t i = 0; i < exec->lanes(); ++i) {
      run.opCount += exec->backend(i).opCount();
    }
    outputs.push_back(std::move(out.pixels()));
  }
  const auto t0 = Clock::now();
  run.bytes = replicas == 1
                  ? std::move(outputs.front())
                  : reliability::voteImages(
                        outputs, reliability::resolveVote(q.redundancy.vote,
                                                          q.design));
  run.voteUs = microsBetween(t0, Clock::now());
  return run;
}

/// runApp's own lane fleet for \p item (the factory's lanes with every
/// RunConfig knob) under \p faults, seeded \p seed.
std::unique_ptr<core::TileExecutor> runAppFleet(
    const Item& item, const reliability::FaultPlan& faults, std::uint64_t seed) {
  core::BackendFactoryConfig bc = apps::backendConfigFor(item.cfg);
  bc.seed = seed;
  bc.faults = faults;
  return std::make_unique<core::TileExecutor>(
      core::makeBackendLanes(item.design, bc, kLanes),
      core::ParallelConfig{kLanes, 0, kRowsPerTile});
}

bool matches(const Item& item, const FleetRun& run) {
  return matchesOracle(item, run.bytes, run.events, run.opCount);
}

/// The item's lane fleet as the factory builds it (the shape runApp uses
/// for non-ReRAM designs), optionally decorated per lane.  ReRAM lanes are
/// built with the MatGroup seed stride and the warm table provider, so the
/// decorated fleet pays no Monte-Carlo cost the service would not.
std::vector<std::unique_ptr<core::ScBackend>> backendLanes(
    const Item& item, std::uint64_t seed, service::FaultModelCache& cache) {
  if (item.design != core::DesignKind::ReramSc) {
    core::BackendFactoryConfig bc = apps::backendConfigFor(item.cfg);
    bc.seed = seed;
    return core::makeBackendLanes(item.design, bc, kLanes);
  }
  std::vector<std::unique_ptr<core::ScBackend>> lanes;
  const reliability::FaultPlan& plan = item.cfg.faults;
  for (std::size_t i = 0; i < kLanes; ++i) {
    core::AcceleratorConfig ac;
    ac.streamLength = item.cfg.streamLength;
    ac.seed = seed + 0x9e3779b97f4a7c15ull * (i + 1);
    ac.deviceVariability = plan.deviceVariability;
    if (plan.deviceVariability) ac.device = plan.device;
    ac.faultModelSamples = plan.faultModelSamples;
    ac.faultModelProvider = cache.provider();
    lanes.push_back(reliability::wrapWithFaults(
        std::make_unique<core::ReramScBackend>(ac), item.design, plan, ac.seed,
        i));
  }
  return lanes;
}

/// The Table IV score of \p out: the app's float reference plus
/// apps::compareQuality (matting re-blends the estimated alpha).
double score(const Item& item, const img::Image& out) {
  switch (item.app) {
    case apps::AppKind::Compositing:
      return apps::compareQuality(
                 out, apps::compositeReference(
                          {item.src, item.aux1, item.aux2}))
          .ssimPct;
    case apps::AppKind::Matting: {
      const apps::MattingScene scene =
          apps::makeMattingScene(item.cfg.width, item.cfg.height,
                                 item.effectiveSeed);
      return apps::compareQuality(apps::blendWithAlpha(scene, out),
                                  scene.composite)
          .ssimPct;
    }
    case apps::AppKind::Bilinear:
      return apps::compareQuality(
                 out, apps::upscaleReference(item.src, item.cfg.upscaleFactor))
          .ssimPct;
    case apps::AppKind::Filters:
      return apps::compareQuality(out, apps::smoothReference(item.src)).ssimPct;
    case apps::AppKind::Gamma:
      return apps::compareQuality(out, apps::gammaReference(item.src, 2.2))
          .ssimPct;
    case apps::AppKind::Morphology:
      return apps::compareQuality(out, apps::openReference(item.src)).ssimPct;
  }
  return 0.0;
}

/// Total length of the union of [t0, t1) intervals clipped to [lo, hi).
double unionMicros(std::vector<std::pair<Clock::time_point, Clock::time_point>> iv,
                   Clock::time_point lo, Clock::time_point hi) {
  std::sort(iv.begin(), iv.end());
  double total = 0;
  Clock::time_point end = lo;
  for (auto [a, b] : iv) {
    a = std::max(a, end);
    b = std::min(b, hi);
    if (b > a) {
      total += microsBetween(a, b);
      end = b;
    }
  }
  return total;
}

}  // namespace

Expected replayOnFleet(const Item& item) {
  const ExecFactory make = [&item](std::uint64_t seed) {
    return runAppFleet(item, item.cfg.faults, seed);
  };
  FleetRun run = runFleet(item, item.request(img::ImageSpan{}), make, nullptr);
  Expected e;
  e.bytes = std::move(run.bytes);
  e.events = run.events;
  e.opCount = run.opCount;
  return e;
}

struct LayerReplay::Channels {
  std::vector<Io> log;
  shard::ShardWorker localWorker;
};

LayerReplay::LayerReplay(std::size_t shards)
    : channels_(std::make_unique<Channels>()) {
  std::vector<std::unique_ptr<shard::ShardChannel>> wrapped;
  auto raw = shard::makeShardChannels(shard::ShardTransportKind::Subprocess,
                                      shards);
  for (std::size_t s = 0; s < raw.size(); ++s) {
    wrapped.push_back(
        std::make_unique<TimingChannel>(std::move(raw[s]), s, channels_->log));
  }
  coordinator_ = std::make_unique<shard::ShardCoordinator>(
      std::move(wrapped), kLanes, kRowsPerTile);
  pool_ = std::make_unique<aimsc::core::ThreadPool>(kThreads);
}

LayerReplay::~LayerReplay() = default;

std::uint64_t LayerReplay::retries() const {
  return coordinator_->fabric().stats().retries;
}
std::uint64_t LayerReplay::respawns() const {
  return coordinator_->fabric().stats().respawns;
}
std::uint64_t LayerReplay::timeouts() const {
  return coordinator_->fabric().stats().timeouts;
}

ItemCost LayerReplay::replay(const Item& item) {
  ItemCost cost;
  service::FaultModelCache cache;
  replayCore(item, cache, cost);
  replayDesign(item, cache);
  replayShard(item, cost);
  replayApps(item, cost);
  return cost;
}

void LayerReplay::replayCore(const Item& item, service::FaultModelCache& cache,
                             ItemCost& cost) {
  aimsc::core::ThreadPool* pool = pool_.get();
  const service::Request q = item.request(img::ImageSpan{});
  auto factoryFor = [&](const service::Request& req) -> ExecFactory {
    if (item.serviceable()) {
      return [&cache, req, &item](std::uint64_t seed) {
        return service::makeRequestExecutor({kLanes, kRowsPerTile}, req, seed,
                                            cache);
      };
    }
    // Gate-protected binary CIM: the request cannot carry the knob, so the
    // replay builds runApp's fleet from the factory directly.
    return [&item, faults = req.faults](std::uint64_t seed) {
      return runAppFleet(item, faults, seed);
    };
  };
  const ExecFactory make = factoryFor(q);
  const bool device = item.cfg.faults.deviceVariability;

  FleetRun cold;
  if (device) {
    cold = runFleet(item, q, make, pool);
    tablesBuilt_ += cache.misses();
  }
  const FleetRun warm = runFleet(item, q, make, pool);
  const FleetRun serial = runFleet(item, q, make, nullptr);
  if (!matches(item, warm) || !matches(item, serial) ||
      (device && !matches(item, cold))) {
    ++coreMismatches_;
    return;
  }
  for (const double us : warm.buildUs) buildUs_.push_back(us);
  waveMs_.push_back(warm.waveUs / 1000.0);
  waveSerialMs_.push_back(serial.waveUs / 1000.0);
  parallelSum_ += warm.waveUs;
  serialSum_ += serial.waveUs;
  if (!warm.laneUs.empty()) {
    const double mx = *std::max_element(warm.laneUs.begin(), warm.laneUs.end());
    const double mean = sum(warm.laneUs) / static_cast<double>(warm.laneUs.size());
    if (mean > 0) laneImbalance_.push_back(mx / mean);
  }
  if (item.cfg.redundancy.replicas > 1) voteUs_.push_back(warm.voteUs);
  cost.buildUs = sum(warm.buildUs);
  cost.waveUs = warm.waveUs;
  cost.voteUs = warm.voteUs;
  cost.coldUs = device ? sum(cold.buildUs) + cold.waveUs : cost.buildUs + cost.waveUs;

  if (device) {
    tablesMs_.push_back((sum(cold.buildUs) + cold.waveUs - sum(warm.buildUs) -
                         warm.waveUs) / 1000.0);
    service::Request clean = q;
    clean.faults = reliability::FaultPlan::none();
    const FleetRun free = runFleet(item, clean, factoryFor(clean), pool);
    if (free.waveUs > 0) probabilisticRatio_.push_back(warm.waveUs / free.waveUs);
  }
  if (item.cfg.faults.anyStreamClass()) {
    service::Request stripped = q;
    stripped.faults.stuckAtRate = 0;
    stripped.faults.transientFlipRate = 0;
    stripped.faults.wearDriftPerMegaCycle = 0;
    const FleetRun plain = runFleet(item, stripped, factoryFor(stripped), pool);
    if (plain.waveUs > 0) faultedRatio_.push_back(warm.waveUs / plain.waveUs);
  }
}

void LayerReplay::replayDesign(const Item& item,
                               service::FaultModelCache& cache) {
  DesignSplit split;
  const service::Request q = item.request(img::ImageSpan{});
  const ExecFactory make = [&](std::uint64_t seed) {
    std::vector<std::unique_ptr<core::ScBackend>> lanes;
    for (auto& lane : backendLanes(item, seed, cache)) {
      lanes.push_back(std::make_unique<TimedBackend>(std::move(lane), split));
    }
    return std::make_unique<core::TileExecutor>(
        std::move(lanes), core::ParallelConfig{kLanes, 0, kRowsPerTile});
  };
  const FleetRun run = runFleet(item, q, make, nullptr);
  DesignSplit& total = designs_[item.design];
  if (!matches(item, run)) {
    ++total.mismatches;
    return;
  }
  total.encodeNs += split.encodeNs;
  total.opsNs += split.opsNs;
  total.decodeNs += split.decodeNs;
  total.opCount += static_cast<double>(run.opCount);
  total.pixels += item.outPixels();
  total.items += 1;
}

void LayerReplay::replayShard(const Item& item, ItemCost& cost) {
  if (!item.serviceable()) {
    ++shardSkipped_;
    return;
  }
  const service::Request q = item.request(img::ImageSpan{});
  const std::size_t replicas =
      std::max<std::size_t>(item.cfg.redundancy.replicas, 1);
  const std::size_t active = std::min(coordinator_->shardCount(), kLanes);
  std::vector<std::vector<std::uint8_t>> outputs;
  reram::EventCounts events;
  std::uint64_t ops = 0;
  std::vector<double> frameBytes, encodeUs, sendUs, recvWaitUs, serveUs,
      transportUs, decodeUs, selfUs;
  bool replyMismatch = false;
  for (std::size_t r = 0; r < replicas; ++r) {
    const std::uint64_t seed = reliability::replicaSeed(item.effectiveSeed, r);
    // One untimed pass first: the service's workers are warm when its
    // requests arrive, so the replay's must be too.
    (void)coordinator_->runReplica(q, item.tenant, item.seedNamespace, seed);
    std::vector<Io>& log = channels_->log;
    log.clear();
    const auto t0 = Clock::now();
    auto run = coordinator_->runReplica(q, item.tenant, item.seedNamespace, seed);
    const auto t1 = Clock::now();
    cost.shardUs += microsBetween(t0, t1);

    std::vector<std::pair<Clock::time_point, Clock::time_point>> children;
    for (const Io& io : log) children.emplace_back(io.t0, io.t1);
    selfUs.push_back(microsBetween(t0, t1) - unionMicros(children, t0, t1));

    for (const Io& sent : log) {
      if (!sent.send) continue;
      const Io* reply = nullptr;
      for (const Io& io : log) {
        if (!io.send && io.shard == sent.shard && io.t0 >= sent.t1) {
          reply = &io;
          break;
        }
      }
      if (reply == nullptr) continue;
      frameBytes.push_back(static_cast<double>(sent.frame.size()));
      sendUs.push_back(microsBetween(sent.t0, sent.t1));
      const double waitUs = microsBetween(sent.t1, reply->t1);
      recvWaitUs.push_back(waitUs);
      (void)channels_->localWorker.serve(sent.frame);  // warm, as above
      const auto s0 = Clock::now();
      const auto local = channels_->localWorker.serve(sent.frame);
      const double served = microsBetween(s0, Clock::now());
      serveUs.push_back(served);
      transportUs.push_back(waitUs - served);
      if (local != reply->frame) replyMismatch = true;
      const auto d0 = Clock::now();
      (void)shard::decodeReply(reply->frame);
      decodeUs.push_back(microsBetween(d0, Clock::now()));
    }
    for (std::size_t s = 0; s < active; ++s) {
      shard::TileAssignment a;
      a.laneSeedBase = seed;
      a.laneBegin = static_cast<std::uint32_t>(s);
      a.laneStride = static_cast<std::uint32_t>(active);
      a.rowEnd = static_cast<std::uint32_t>(item.shape.height);
      const auto e0 = Clock::now();
      const auto frame = shard::encodeRequest(shard::makeWireRequest(
          q, item.tenant, item.seedNamespace, seed, kLanes, kRowsPerTile, a));
      encodeUs.push_back(microsBetween(e0, Clock::now()));
    }
    outputs.push_back(std::move(run.pixels));
    events += run.events;
    ops += run.opCount;
  }
  const std::vector<std::uint8_t> voted =
      replicas == 1 ? std::move(outputs.front())
                    : reliability::voteImages(
                          outputs, reliability::resolveVote(
                                       item.cfg.redundancy.vote, item.design));
  if (replyMismatch || !matchesOracle(item, voted, events, ops)) {
    ++shardMismatches_;
    return;
  }
  auto append = [](std::vector<double>& to, const std::vector<double>& from) {
    to.insert(to.end(), from.begin(), from.end());
  };
  append(frameBytes_, frameBytes);
  append(encodeUs_, encodeUs);
  append(sendUs_, sendUs);
  append(recvWaitUs_, recvWaitUs);
  append(workerServeUs_, serveUs);
  append(transportUs_, transportUs);
  append(decodeReplyUs_, decodeUs);
  append(coordSelfUs_, selfUs);
}

void LayerReplay::replayApps(const Item& item, ItemCost& cost) {
  const auto t0 = Clock::now();
  const apps::RunResult r = apps::runAppDetailed(
      item.app, item.design, item.cfg, {kLanes, kThreads, kRowsPerTile});
  Item fresh = item;
  const auto t1 = Clock::now();
  synthesizeFrames(fresh);
  const auto t2 = Clock::now();
  const double ssim = score(item, r.output);
  const auto t3 = Clock::now();
  if (ssim != item.expected.ssimPct) ++coreMismatches_;
  cost.oneshotUs = microsBetween(t0, t1);
  oneshotMs_.push_back(microsBetween(t0, t1) / 1000.0);
  synthMs_.push_back(microsBetween(t1, t2) / 1000.0);
  scoringMs_.push_back(microsBetween(t2, t3) / 1000.0);
  cost.synthUs = microsBetween(t1, t2);
  cost.scoringUs = microsBetween(t2, t3);
}

void LayerReplay::report(std::vector<Metric>& out) const {
  auto add = [&](const std::string& name, const std::vector<double>& v,
                 double q, const std::string& unit, const std::string& why) {
    Metric m{name, percentile(v, q), unit, v.size(), "", !v.empty()};
    if (v.empty()) m.note = why;
    out.push_back(m);
  };
  add("core.executor_build_us", buildUs_, 50, "us", "no replay matched");
  add("core.wave_serial_ms", waveSerialMs_, 50, "ms", "no replay matched");
  add("core.wave_ms", waveMs_, 50, "ms", "no replay matched");
  out.push_back({"core.wave_speedup",
                 parallelSum_ > 0 ? serialSum_ / parallelSum_ : 0.0, "ratio",
                 waveMs_.size(), "sum serial / sum 4-thread", parallelSum_ > 0});
  add("core.lane_imbalance", laneImbalance_, 50, "ratio", "no replay matched");
  for (const core::DesignKind d :
       {core::DesignKind::ReramSc, core::DesignKind::SwScLfsr,
        core::DesignKind::SwScSobol, core::DesignKind::SwScSimd,
        core::DesignKind::SwScSfmt, core::DesignKind::BinaryCim}) {
    const std::string key = std::string("core.") + designKey(d) + ".";
    const auto it = designs_.find(d);
    const DesignSplit s = it == designs_.end() ? DesignSplit{} : it->second;
    const bool ok = s.pixels > 0;
    const double px = ok ? static_cast<double>(s.pixels) : 1.0;
    std::string why;
    if (!ok) {
      why = s.mismatches > 0 ? "replay bytes differ from the service"
                             : "substrate not in this workload";
    }
    out.push_back({key + "encode_ns_per_px", s.encodeNs / px, "ns/px", s.items,
                   why, ok});
    out.push_back({key + "ops_ns_per_px", s.opsNs / px, "ns/px", s.items, why, ok});
    out.push_back({key + "decode_ns_per_px", s.decodeNs / px, "ns/px", s.items,
                   why, ok});
    out.push_back({key + "ops_per_px", s.opCount / px, "ops/px", s.items, why, ok});
  }
  out.push_back({"reram.fault_tables_built", static_cast<double>(tablesBuilt_),
                 "count", tablesMs_.size(), "fresh-cache misses in the replay",
                 true});
  add("reram.fault_tables_ms", tablesMs_, 50, "ms",
      "no device-variability item in this workload");
  add("reram.probabilistic_wave_ratio", probabilisticRatio_, 50, "ratio",
      "no device-variability item in this workload");
  add("reliability.vote_us", voteUs_, 50, "us", "no redundant item");
  add("reliability.faulted_wave_ratio", faultedRatio_, 50, "ratio",
      "no stream-level FaultPlan in this workload");
  const std::string noShard = shardMismatches_ > 0
                                  ? "shard replay bytes differ"
                                  : "no serviceable item";
  add("shard.frame_bytes", frameBytes_, 50, "bytes", noShard);
  add("shard.encode_us", encodeUs_, 50, "us", noShard);
  add("shard.send_us", sendUs_, 50, "us", noShard);
  add("shard.recv_wait_us", recvWaitUs_, 50, "us", noShard);
  add("shard.worker_serve_us", workerServeUs_, 50, "us", noShard);
  add("shard.transport_us", transportUs_, 50, "us", noShard);
  add("shard.decode_reply_us", decodeReplyUs_, 50, "us", noShard);
  add("shard.coordinator_self_us", coordSelfUs_, 50, "us", noShard);
  add("apps.oneshot_ms", oneshotMs_, 50, "ms", "no item");
  add("apps.scoring_ms", scoringMs_, 50, "ms", "no item");
  add("img.synth_ms", synthMs_, 50, "ms", "no item");
}

}  // namespace perfbench
