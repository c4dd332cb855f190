/// \file app_spec.hpp
/// \brief The app table: the one place that knows the applications.
///
/// Every app runs as the paper's in-place flow on ReRAM mats — generate
/// SBSs, run SC ops, convert back — written as an ordered list of arena
/// stage kernels over a lane fleet.  One `AppSpec` row holds everything a
/// caller needs to run, check, score and cost an app: its names, frame
/// roles and output shape, the staging init and stage kernels, scene
/// synthesis, the Table IV score and the energy profile.  `runApp`, the
/// service dispatcher and the shard worker all execute rows through one
/// `StageRunner`, so a new app is one new row.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>

#include "core/tile_executor.hpp"
#include "energy/system_model.hpp"
#include "img/image.hpp"

namespace aimsc::apps {

/// The workload axis of the Table IV matrix: the paper's three evaluation
/// apps plus the extension kernels (filters, Bernstein gamma, morphology).
/// The values index the app table and are wire-stable.
enum class AppKind { Compositing, Bilinear, Matting, Filters, Gamma,
                     Morphology };

/// Rows in the app table (AppKind values are 0 .. kAppCount - 1).
inline constexpr std::size_t kAppCount = 6;

/// The most stages any row runs (morphology: erode, then dilate).
inline constexpr std::size_t kMaxStages = 2;

struct Quality {
  double ssimPct = 0;  ///< mean SSIM * 100
  double psnrDb = 0;
};

Quality compareQuality(const img::Image& test, const img::Image& ref);

/// The inputs of one app run: up to three frame views in the row's role
/// order (unused views stay empty) and the app knobs.
struct AppInputs {
  img::ImageView src{};
  img::ImageView aux1{};
  img::ImageView aux2{};
  double gamma = 2.2;             ///< Gamma app exponent
  std::size_t upscaleFactor = 2;  ///< Bilinear app factor
};

/// Owning frames synthesized from a seed, in the row's role order.
struct AppScene {
  std::array<img::Image, 3> frames;

  AppInputs inputs(double gamma, std::size_t upscaleFactor) const {
    return {frames[0], frames[1], frames[2], gamma, upscaleFactor};
  }
};

struct FrameShape {
  std::size_t width = 0;
  std::size_t height = 0;
};

using StageKernel = core::TileExecutor::ArenaTileKernel;

/// One stage of a row.  Stage 0 reads the run's inputs; stage s > 0 reads
/// the output of stage s - 1 as `in.src`.  Every stage writes a buffer of
/// the output shape.
struct StageSpec {
  /// Staging init: true = the buffer starts as a copy of the stage's
  /// `in.src` (rows and columns the kernel skips pass through), false =
  /// blank (the kernel overwrites every pixel).
  bool copiesInput = false;
  /// Binds the stage kernel to its inputs and output buffer.  Views and
  /// spans are captured by value and must outlive the wave.
  StageKernel (*bind)(const AppInputs& in, img::ImageSpan out) = nullptr;
};

struct AppSpec {
  AppKind kind;
  const char* alias;  ///< CLI alias (parseAppKind; the display name is
                      ///< `profile.name`)
  /// Frame role of src / aux1 / aux2; nullptr = unused.  Every used frame
  /// must be present and shaped like src.
  std::array<const char*, 3> roles;
  /// Output shape for validated inputs (throws std::invalid_argument on a
  /// bad knob).
  FrameShape (*outputShape)(const AppInputs& in);
  std::array<StageSpec, kMaxStages> stages;
  /// The row's scene from (width, height, seed).
  AppScene (*synthesize)(std::size_t width, std::size_t height,
                         std::uint64_t seed);
  /// Table IV score of a raw output against the float reference (matting:
  /// the re-blended composite against the observed one).
  Quality (*score)(const AppInputs& in, const img::Image& out);
  /// Fig. 4/5 workload profile; its `name` is the app's display name
  /// (appName).
  energy::AppProfile profile;

  std::size_t stageCount() const {
    std::size_t n = 0;
    while (n < stages.size() && stages[n].bind != nullptr) ++n;
    return n;
  }
};

/// The table row of \p app (throws std::invalid_argument out of range).
const AppSpec& appSpec(AppKind app);

const char* appName(AppKind app);

/// Inverse of `appName`: parses an app selector from CLI/args.  Matching is
/// case-insensitive, ignores punctuation and accepts the short alias
/// ("matting" for "Image Matting").  Throws std::invalid_argument (listing
/// the valid names) on no match.
AppKind parseAppKind(std::string_view name);

/// Per-element workload profile feeding the Fig. 4/5 system model.
energy::AppProfile profileFor(AppKind app);

/// Checks the row's frames (present, shaped like src) and returns the
/// output shape; throws std::invalid_argument with the reason.
FrameShape outputShapeOf(const AppSpec& spec, const AppInputs& in);

/// One replica's pass through a row's stages: owns the stage buffers and
/// binds each stage kernel in order.  Callers drive the stages on a lane
/// fleet (`runStages`: forEachTile per stage; the service: merged
/// `laneTasks` waves; the shard worker: its owned lanes on the last stage).
class StageRunner {
 public:
  StageRunner(const AppSpec& spec, const AppInputs& in);

  std::size_t stages() const { return spec_->stageCount(); }

  /// Rows of every stage buffer (the tile range of every stage).
  std::size_t height() const { return shape_.height; }

  /// Initializes stage \p s's buffer and returns its kernel bound to it.
  /// Call for s = 0, 1, ... in order, each after stage s - 1 has run.
  StageKernel stage(std::size_t s);

  /// The last stage's buffer: the run's output once every stage ran.
  img::Image& output() { return buffers_[stages() - 1]; }

 private:
  const AppSpec* spec_;
  AppInputs in_;
  FrameShape shape_;
  std::array<img::Image, kMaxStages> buffers_;
};

/// Runs every stage of \p app on \p fleet (one forEachTile per stage, a
/// full barrier between stages) and returns the output.
img::Image runStages(AppKind app, const AppInputs& in,
                     core::TileExecutor& fleet);

}  // namespace aimsc::apps
