#include "service/request_kernels.hpp"

#include "apps/runner.hpp"

namespace aimsc::service {

std::unique_ptr<core::TileExecutor> makeRequestExecutor(
    const ExecShape& shape, const Request& q, std::uint64_t seed,
    FaultModelCache& faultCache) {
  apps::RunConfig cfg;
  cfg.streamLength = q.streamLength;
  cfg.faults = q.faults;
  // threads = 0: the caller's pool runs the wave, not the executor.
  return apps::makeFleet(q.design, cfg, {shape.lanes, 0, shape.rowsPerTile},
                         seed, faultCache.provider());
}

img::Image makeStage0Staging(const Request& q, const OutputShape& shape) {
  if (apps::appSpec(q.app).stages[0].copiesInput) return q.src.toImage();
  return img::Image(shape.width, shape.height);
}

core::TileExecutor::ArenaTileKernel stage0Kernel(const Request& q,
                                                 img::Image& out) {
  return apps::appSpec(q.app).stages[0].bind(inputsOf(q), out);
}

core::TileExecutor::ArenaTileKernel stage1Kernel(const img::Image& tmp,
                                                 img::Image& out) {
  return apps::appSpec(apps::AppKind::Morphology).stages[1].bind({tmp}, out);
}

}  // namespace aimsc::service
