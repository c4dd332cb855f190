#include "apps/app_spec.hpp"

#include <stdexcept>
#include <string>
#include <utility>

#include "apps/bilinear.hpp"
#include "apps/compositing.hpp"
#include "apps/filters.hpp"
#include "apps/matting.hpp"
#include "apps/morphology.hpp"
#include "core/backend_reference.hpp"
#include "img/metrics.hpp"
#include "img/synth.hpp"

namespace aimsc::apps {

namespace {

using core::ScBackend;
using core::StreamArena;

// --- stage kernels ---------------------------------------------------------

StageKernel bindComposite(const AppInputs& in, img::ImageSpan out) {
  const CompositingFrames frames(in.src, in.aux1, in.aux2);
  return [frames, out](ScBackend& b, StreamArena& arena, std::size_t r0,
                       std::size_t r1) {
    compositeKernelRows(frames, b, arena, out, r0, r1);
  };
}

StageKernel bindUpscale(const AppInputs& in, img::ImageSpan out) {
  return [src = in.src, factor = in.upscaleFactor, out](
             ScBackend& b, StreamArena& arena, std::size_t r0,
             std::size_t r1) {
    upscaleKernelRows(src, factor, b, arena, out, r0, r1);
  };
}

StageKernel bindMatting(const AppInputs& in, img::ImageSpan out) {
  const MattingFrames frames(in.src, in.aux1, in.aux2);
  return [frames, out](ScBackend& b, StreamArena& arena, std::size_t r0,
                       std::size_t r1) {
    mattingKernelRows(frames, b, arena, out, r0, r1);
  };
}

StageKernel bindGamma(const AppInputs& in, img::ImageSpan out) {
  // The coefficients are computed once per bound kernel, not once per tile.
  return [src = in.src, coeffs = gammaCoefficients(in.gamma), out](
             ScBackend& b, StreamArena& arena, std::size_t r0,
             std::size_t r1) {
    gammaKernelRows(src, coeffs, b, arena, out, r0, r1);
  };
}

/// Binds a rows kernel that reads only `in.src` (smoothing, erode, dilate).
template <void (*Rows)(img::ImageView, ScBackend&, StreamArena&,
                       img::ImageSpan, std::size_t, std::size_t)>
StageKernel bindSource(const AppInputs& in, img::ImageSpan out) {
  return [src = in.src, out](ScBackend& b, StreamArena& arena, std::size_t r0,
                             std::size_t r1) {
    Rows(src, b, arena, out, r0, r1);
  };
}

// --- shapes and scenes -----------------------------------------------------

FrameShape sameShape(const AppInputs& in) {
  return {in.src.width(), in.src.height()};
}

FrameShape upscaledShape(const AppInputs& in) {
  if (in.upscaleFactor < 1) {
    throw std::invalid_argument("Bilinear Interpolation: bad upscaleFactor");
  }
  return {in.src.width() * in.upscaleFactor,
          in.src.height() * in.upscaleFactor};
}

AppScene compositingScene(std::size_t w, std::size_t h, std::uint64_t seed) {
  CompositingScene s = makeCompositingScene(w, h, seed);
  return {{std::move(s.background), std::move(s.foreground),
           std::move(s.alpha)}};
}

AppScene mattingScene(std::size_t w, std::size_t h, std::uint64_t seed) {
  MattingScene s = makeMattingScene(w, h, seed);
  return {{std::move(s.composite), std::move(s.background),
           std::move(s.foreground)}};
}

AppScene naturalSource(std::size_t w, std::size_t h, std::uint64_t seed) {
  return {{img::naturalScene(w, h, seed ^ 0xb111), {}, {}}};
}

/// Analytic AritPIM cycle counts per primitive ([35]: addition O(n) at
/// ~16 cycles/bit, multiplication O(n^2) at ~6.5 n^2, restoring division
/// ~n (FA + restore) per quotient bit).  Our MagicEngine decomposition is
/// pedagogical (5-NOR XOR) and ~4x larger; the cost profile uses the
/// optimized counts a real AritPIM deployment would see, while the fault
/// study uses the gate-accurate engine.
constexpr double kAritAdd8 = 130.0;
constexpr double kAritAdd11 = 180.0;
constexpr double kAritSub8 = 130.0;
constexpr double kAritMul8 = 416.0;   // 6.5 * 64
constexpr double kAritDiv16x8 = 1400.0;

static_assert(static_cast<std::size_t>(AppKind::Morphology) + 1 == kAppCount,
              "one table row per AppKind");

/// Rows in AppKind order (appSpec indexes by the enum value).
const std::array<AppSpec, kAppCount>& table() {
  static const std::array<AppSpec, kAppCount> kTable = {{
      {.kind = AppKind::Compositing,
       .alias = "compositing",
       .roles = {"background", "foreground (aux1)", "alpha (aux2)"},
       .outputShape = sameShape,
       .stages = {{{false, bindComposite}}},
       .synthesize = compositingScene,
       .score = [](const AppInputs& in, const img::Image& out) {
         core::ReferenceBackend reference;
         return compareQuality(
             out, compositeKernel(CompositingFrames(in.src, in.aux1, in.aux2),
                                  reference));
       },
       .profile = {
           .name = "Image Compositing",
           .conversionsPerElement = 3.0,  // F, B, alpha
           .bulkOpsPerElement = 1.0,      // one MAJ cycle
           .sbsWritesPerElement = 3.0,    // operand SBS storage
           .cmosOpClass = energy::ScOpKind::ScaledAddition,
           .cmosOpPasses = 1.0,
           .ioBytesPerElement = 4.0,      // F, B, alpha in; C out
           // C = F*a + B*(255-a): two 8-bit multiplies, (255-a), final add.
           .bincimGateOps = 2 * kAritMul8 + kAritSub8 + 2 * kAritAdd8}},
      {.kind = AppKind::Bilinear,
       .alias = "bilinear",
       .roles = {"source", nullptr, nullptr},
       .outputShape = upscaledShape,
       .stages = {{{false, bindUpscale}}},
       .synthesize = naturalSource,
       .score = [](const AppInputs& in, const img::Image& out) {
         return compareQuality(out, upscaleReference(in.src, in.upscaleFactor));
       },
       // x2 up-scaling: the four source streams are shared by the factor^2
       // outputs in-array; the dx/dy selects are shared along rows/columns.
       // Amortized per *output* pixel: ~4/4 + shared selects + reuse slack.
       .profile = {
           .name = "Bilinear Interpolation",
           .conversionsPerElement = 4.5,
           .bulkOpsPerElement = 3.0,  // MAJ tree
           .sbsWritesPerElement = 4.5,
           .cmosOpClass = energy::ScOpKind::ScaledAddition,
           .cmosOpPasses = 3.0,       // three serial MUX stages
           .ioBytesPerElement = 7.0,  // 4 neighbours + 2 coords in, 1 out
           // Three integer lerps: each (256-t), 2 multiplies, add, round.
           .bincimGateOps = 3 * (kAritSub8 + 2 * kAritMul8 + 2 * kAritAdd8)}},
      {.kind = AppKind::Matting,
       .alias = "matting",
       .roles = {"composite", "background (aux1)", "foreground (aux2)"},
       .outputShape = sameShape,
       .stages = {{{false, bindMatting}}},
       .synthesize = mattingScene,
       .score = [](const AppInputs& in, const img::Image& out) {
         return compareQuality(
             blendWithAlpha(MattingFrames(in.src, in.aux1, in.aux2), out),
             in.src.toImage());
       },
       .profile = {
           .name = "Image Matting",
           .conversionsPerElement = 3.0,  // I, B, F (correlated set)
           .bulkOpsPerElement = 2.0,      // two XOR window ops
           .usesCordiv = true,
           .sbsWritesPerElement = 4.0,    // + quotient column for the ADC
           .cmosOpClass = energy::ScOpKind::Division,
           .cmosOpPasses = 1.6,           // division + two subtraction passes
           .ioBytesPerElement = 4.0,      // I, B, F in; alpha out
           // |I-B|, |F-B| (two subs each), num*255, restoring 16/8 division.
           .bincimGateOps = 4 * kAritSub8 + kAritMul8 + kAritDiv16x8}},
      {.kind = AppKind::Filters,
       .alias = "filters",
       .roles = {"source", nullptr, nullptr},
       .outputShape = sameShape,
       .stages = {{{true, bindSource<smoothKernelRows>}}},
       .synthesize = naturalSource,
       .score = [](const AppInputs& in, const img::Image& out) {
         return compareQuality(out, smoothReference(in.src));
       },
       // 8-neighbour smoothing: 8 data conversions + 7 row-shared selects
       // (amortized over the row width) per interior pixel.
       .profile = {
           .name = "Image Filters",
           .conversionsPerElement = 8.2,
           .bulkOpsPerElement = 7.0,      // three MAJ-tree levels
           .sbsWritesPerElement = 8.2,
           .cmosOpClass = energy::ScOpKind::ScaledAddition,
           .cmosOpPasses = 7.0,           // seven serial MUX passes
           .ioBytesPerElement = 2.0,  // overlapping reads cache; 1 in, 1 out
           // Eight 11-bit accumulating adds + rounding add.
           .bincimGateOps = 9 * kAritAdd11}},
      {.kind = AppKind::Gamma,
       .alias = "gamma",
       .roles = {"source", nullptr, nullptr},
       .outputShape = sameShape,
       .stages = {{{false, bindGamma}}},
       .synthesize = naturalSource,
       .score = [](const AppInputs& in, const img::Image& out) {
         return compareQuality(out, gammaReference(in.src, in.gamma));
       },
       // Degree-4 Bernstein synthesis: 4 independent pixel copies + 5
       // coefficient conversions per pixel; the selection network is an
       // 8-level MUX/MAJ tree (copies + coeffs - 1 sensing steps).
       .profile = {
           .name = "Gamma Correction",
           .conversionsPerElement = 9.0,
           .bulkOpsPerElement = 8.0,
           .sbsWritesPerElement = 9.0,
           .cmosOpClass = energy::ScOpKind::ScaledAddition,
           .cmosOpPasses = 8.0,
           .ioBytesPerElement = 2.0,  // 1 in, 1 out
           // De Casteljau: 10 integer lerps, each (255-t), 2 muls, 2 adds.
           .bincimGateOps = 10 * (kAritSub8 + 2 * kAritMul8 + 2 * kAritAdd8)}},
      {.kind = AppKind::Morphology,
       .alias = "morphology",
       .roles = {"source", nullptr, nullptr},
       .outputShape = sameShape,
       // Opening: erode into a copy of the source, then dilate into a copy
       // of the eroded intermediate (borders pass through both passes).
       .stages = {{{true, bindSource<erodeKernelRows>},
                   {true, bindSource<dilateKernelRows>}}},
       .synthesize = naturalSource,
       .score = [](const AppInputs& in, const img::Image& out) {
         return compareQuality(out, openReference(in.src));
       },
       // Opening = erode + dilate: per pass 9 window conversions and an
       // 8-deep AND/OR chain per interior pixel (correlated family).
       .profile = {
           .name = "Morphology",
           .conversionsPerElement = 18.0,
           .bulkOpsPerElement = 16.0,
           .sbsWritesPerElement = 18.0,
           .cmosOpClass = energy::ScOpKind::Minimum,
           .cmosOpPasses = 16.0,
           .ioBytesPerElement = 2.0,  // overlapping reads cache; 1 in, 1 out
           // Integer min/max cost two saturating 8-bit sub/add passes each.
           .bincimGateOps = 16 * 2 * kAritSub8}},
  }};
  return kTable;
}

}  // namespace

Quality compareQuality(const img::Image& test, const img::Image& ref) {
  return Quality{img::ssim(test, ref) * 100.0, img::psnrDb(test, ref)};
}

const AppSpec& appSpec(AppKind app) {
  const auto i = static_cast<std::size_t>(app);
  if (i >= kAppCount) throw std::invalid_argument("appSpec: bad app");
  return table()[i];
}

const char* appName(AppKind app) {
  const auto i = static_cast<std::size_t>(app);
  return i < kAppCount ? table()[i].profile.name.c_str() : "?";
}

AppKind parseAppKind(std::string_view name) {
  // Same spelling rules as parseDesignKind (shared fold).
  const auto& normalize = core::normalizeSelector;
  const std::string wanted = normalize(name);
  std::string valid;
  for (const AppSpec& spec : table()) {
    if (wanted == normalize(spec.profile.name) || wanted == spec.alias) {
      return spec.kind;
    }
    if (!valid.empty()) valid += ", ";
    valid += spec.alias;
  }
  throw std::invalid_argument("parseAppKind: unknown app '" +
                              std::string(name) + "' (valid: " + valid + ")");
}

energy::AppProfile profileFor(AppKind app) { return appSpec(app).profile; }

FrameShape outputShapeOf(const AppSpec& spec, const AppInputs& in) {
  const img::ImageView* frames[3] = {&in.src, &in.aux1, &in.aux2};
  for (std::size_t i = 0; i < 3; ++i) {
    if (spec.roles[i] == nullptr) continue;
    const img::ImageView& f = *frames[i];
    if (f.data() == nullptr || f.empty()) {
      throw std::invalid_argument(spec.profile.name + ": missing " +
                                  spec.roles[i] + " frame");
    }
    if (f.width() != in.src.width() || f.height() != in.src.height()) {
      throw std::invalid_argument(spec.profile.name +
                                  ": frame shape mismatch (" + spec.roles[0] +
                                  " vs " + spec.roles[i] + ")");
    }
  }
  return spec.outputShape(in);
}

StageRunner::StageRunner(const AppSpec& spec, const AppInputs& in)
    : spec_(&spec), in_(in), shape_(outputShapeOf(spec, in)) {}

StageKernel StageRunner::stage(std::size_t s) {
  const StageSpec& st = spec_->stages.at(s);
  AppInputs in = in_;
  if (s > 0) in.src = buffers_[s - 1];
  buffers_[s] = st.copiesInput ? in.src.toImage()
                               : img::Image(shape_.width, shape_.height);
  return st.bind(in, buffers_[s]);
}

img::Image runStages(AppKind app, const AppInputs& in,
                     core::TileExecutor& fleet) {
  StageRunner run(appSpec(app), in);
  for (std::size_t s = 0; s < run.stages(); ++s) {
    fleet.forEachTile(run.height(), run.stage(s));
  }
  return std::move(run.output());
}

}  // namespace aimsc::apps
