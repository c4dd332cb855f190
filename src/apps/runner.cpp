#include "apps/runner.hpp"

#include <algorithm>
#include <utility>
#include <vector>

namespace aimsc::apps {

reram::DeviceParams defaultFaultyDevice() {
  reram::DeviceParams p;
  p.sigmaLrs = 0.15;
  p.sigmaHrs = 1.20;  // HRS instability [39] dominates the overlap
  return p;
}

namespace {

/// Display gamma used by the Table IV gamma row (degree-4 Bernstein).
constexpr double kGammaValue = 2.2;

/// The serial form of a non-ReRAM design: one backend, one tile spanning
/// all \p rows, so each stage makes the whole-image kernel's single call.
std::unique_ptr<core::TileExecutor> serialFleet(DesignKind design,
                                                const RunConfig& cfg,
                                                std::uint64_t seed,
                                                std::size_t rows) {
  core::BackendFactoryConfig bc = backendConfigFor(cfg);
  bc.seed = seed;
  std::vector<std::unique_ptr<core::ScBackend>> lane;
  lane.push_back(core::makeBackend(design, bc));
  const core::ParallelConfig oneTile{1, 0, std::max<std::size_t>(rows, 1)};
  return std::make_unique<core::TileExecutor>(std::move(lane), oneTile);
}

}  // namespace

core::BackendFactoryConfig backendConfigFor(const RunConfig& cfg) {
  core::BackendFactoryConfig bc;
  bc.streamLength = cfg.streamLength;
  bc.seed = cfg.seed;
  bc.faults = cfg.faults;
  bc.bincimProtection = cfg.bincimProtection;
  return bc;
}

core::TileExecutorConfig tileConfigFor(const RunConfig& cfg,
                                       const ParallelConfig& par) {
  const reliability::FaultPlan& plan = cfg.faults;
  core::TileExecutorConfig tc;
  static_cast<core::ParallelConfig&>(tc) = par;
  tc.mat.streamLength = cfg.streamLength;
  tc.mat.deviceVariability = plan.deviceVariability;
  if (plan.deviceVariability) tc.mat.device = plan.device;
  tc.mat.faultModelSamples = plan.faultModelSamples;
  tc.mat.wearWindowRows = cfg.wearWindowRows;
  tc.mat.seed = cfg.seed;
  tc.faults = plan;
  return tc;
}

std::unique_ptr<core::TileExecutor> makeFleet(
    DesignKind design, const RunConfig& cfg, const ParallelConfig& par,
    std::uint64_t seed, core::FaultModelProvider faultModels) {
  if (design == DesignKind::ReramSc) {
    core::TileExecutorConfig tc = tileConfigFor(cfg, par);
    tc.mat.seed = seed;
    tc.mat.faultModelProvider = std::move(faultModels);
    return std::make_unique<core::TileExecutor>(tc);
  }
  core::BackendFactoryConfig bc = backendConfigFor(cfg);
  bc.seed = seed;
  return std::make_unique<core::TileExecutor>(
      core::makeBackendLanes(design, bc, par.lanes), par);
}

RunResult runAppDetailed(AppKind app, DesignKind design, const RunConfig& cfg,
                         const ParallelConfig& par) {
  const AppSpec& spec = appSpec(app);
  const std::size_t replicas = std::max<std::size_t>(cfg.redundancy.replicas, 1);
  RunResult result;

  // The scene derives from cfg.seed only, so every replica processes the
  // same inputs and scoring uses the same ground truth.
  const AppScene scene = spec.synthesize(cfg.width, cfg.height, cfg.seed);
  const AppInputs in = scene.inputs(kGammaValue, cfg.upscaleFactor);

  // Replica 0 runs on the unmodified seed, so replicas = 1 IS the
  // unmitigated path bit for bit; later replicas re-key backend randomness
  // and fault draws while processing the same scene.
  const FrameShape shape = outputShapeOf(spec, in);
  std::vector<std::vector<std::uint8_t>> outputs;
  outputs.reserve(replicas);
  for (std::size_t r = 0; r < replicas; ++r) {
    const std::uint64_t seed = reliability::replicaSeed(cfg.seed, r);
    const auto fleet = design != DesignKind::ReramSc && par.threads == 0
                           ? serialFleet(design, cfg, seed, shape.height)
                           : makeFleet(design, cfg, par, seed);
    outputs.push_back(std::move(runStages(app, in, *fleet).pixels()));
    result.events += fleet->totalEvents();
    for (std::size_t i = 0; i < fleet->lanes(); ++i) {
      result.opCount += fleet->backend(i).opCount();
    }
  }

  const reliability::Vote vote =
      reliability::resolveVote(cfg.redundancy.vote, design);
  std::vector<std::uint8_t> voted = replicas == 1
                                        ? std::move(outputs.front())
                                        : reliability::voteImages(outputs, vote);
  result.output = img::Image(shape.width, shape.height);
  result.output.pixels() = std::move(voted);
  result.quality = spec.score(in, result.output);
  return result;
}

Quality runApp(AppKind app, DesignKind design, const RunConfig& cfg,
               const ParallelConfig& par) {
  return runAppDetailed(app, design, cfg, par).quality;
}

}  // namespace aimsc::apps
