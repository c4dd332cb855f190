/// \file request_kernels.hpp
/// \brief A request's lane fleet and stages, for the in-process dispatcher
///        (AcceleratorService) and the shard worker (shard::ShardWorker).
///
/// The service's byte-exactness contract — a request's output bytes are a
/// pure function of (request fields, tenant seed namespace), equal to the
/// one-shot apps::runApp — only survives process fan-out if every executor
/// that touches the request is built IDENTICALLY.  There is one definition
/// of each part: the fleet is `apps::makeFleet` (the builder runApp uses),
/// and the staging init and stage kernels are the request's app-table row
/// run through `apps::StageRunner`.  The helpers below are thin views of
/// those for callers that drive the stages by hand.
#pragma once

#include <memory>

#include "core/tile_executor.hpp"
#include "img/image.hpp"
#include "service/fault_model_cache.hpp"
#include "service/request.hpp"

namespace aimsc::service {

/// The fleet-shape half of ServiceConfig — the part of the bit contract a
/// shard worker must reproduce (carried on the wire; see shard::WireRequest).
struct ExecShape {
  std::size_t lanes = 4;
  std::size_t rowsPerTile = 4;
};

/// Per-replica lane fleet for one request — `apps::makeFleet`, the builder
/// runApp uses, so a service request is bit-identical to the equivalent
/// runApp call (tests assert this).  The daemon-only difference
/// is warm state: device-variability mats draw their misdecision tables
/// from \p faultCache instead of re-running the Monte-Carlo per call (a
/// bit-preserving memoization — see fault_model_cache.hpp).  \p seed is the
/// fleet master seed (already namespaced and replica-strided); lanes derive
/// their own seeds from it inside the executor.
std::unique_ptr<core::TileExecutor> makeRequestExecutor(
    const ExecShape& shape, const Request& q, std::uint64_t seed,
    FaultModelCache& faultCache);

/// Stage-0 staging image for \p q per its app row's staging init (a copy
/// of the source, or blank at the output shape).
img::Image makeStage0Staging(const Request& q, const OutputShape& shape);

/// Stage-0 tile kernel of \p q's app row writing \p out (for morphology:
/// the erode pass into the intermediate).
core::TileExecutor::ArenaTileKernel stage0Kernel(const Request& q,
                                                 img::Image& out);

/// Stage-1 kernel of the two-stage row (morphology): the dilate pass over
/// the eroded intermediate.  The caller seeds `out.pixels() = tmp.pixels()`
/// first (borders pass through), as the row's staging init does.
core::TileExecutor::ArenaTileKernel stage1Kernel(const img::Image& tmp,
                                                 img::Image& out);

}  // namespace aimsc::service
