// Morphology app: 3x3 erosion/dilation via the promoted minimum/maximum
// vocabulary, open/close compositions, SW-SC bit-identity with the per-bit
// oracle for the new ops, and tiled thread-count determinism.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "apps/filters.hpp"
#include "apps/morphology.hpp"
#include "apps/runner.hpp"
#include "core/backend.hpp"
#include "core/backend_swsc.hpp"
#include "core/tile_executor.hpp"
#include "img/metrics.hpp"
#include "img/synth.hpp"

#include "op_oracle.hpp"

namespace aimsc::apps {
namespace {

// --- reference properties --------------------------------------------------

TEST(MorphologyReference, ErodeSrcDilateOrdering) {
  const img::Image src = img::naturalScene(20, 20, 3);
  const img::Image er = erodeReference(src);
  const img::Image di = dilateReference(src);
  for (std::size_t i = 0; i < src.size(); ++i) {
    EXPECT_LE(er[i], src[i]);
    EXPECT_GE(di[i], src[i]);
  }
}

TEST(MorphologyReference, OpenAndCloseAreIdempotent) {
  // The classic algebraic property: open(open(x)) == open(x) (and close
  // likewise).  With border copy-through this holds on the full image.
  const img::Image src = img::gaussianBlobs(24, 24, 10, 5);
  const img::Image opened = openReference(src);
  EXPECT_EQ(openReference(opened).pixels(), opened.pixels());
  const img::Image closed = closeReference(src);
  EXPECT_EQ(closeReference(closed).pixels(), closed.pixels());
}

TEST(MorphologyReference, OpenRemovesImpulseCloseKeepsIt) {
  img::Image impulse(9, 9, 0);
  impulse.at(4, 4) = 240;
  // A single bright pixel is an opening casualty (erosion kills it) ...
  const img::Image opened = openReference(impulse);
  for (std::size_t i = 0; i < opened.size(); ++i) EXPECT_EQ(opened[i], 0);
  // ... but closing of the inverted scene keeps the dark speck filled.
  img::Image dark(9, 9, 200);
  dark.at(4, 4) = 0;
  const img::Image closed = closeReference(dark);
  EXPECT_EQ(closed.at(4, 4), 200);
}

// --- SC kernels on stochastic substrates -----------------------------------

TEST(MorphologyKernel, TracksReferenceOnEverySubstrate) {
  const img::Image src = img::naturalScene(16, 16, 7);
  const img::Image refOpen = openReference(src);
  core::BackendFactoryConfig cfg;
  cfg.streamLength = 1024;
  for (const core::DesignKind d :
       {core::DesignKind::Reference, core::DesignKind::SwScLfsr,
        core::DesignKind::SwScSobol, core::DesignKind::SwScSimd,
        core::DesignKind::ReramSc, core::DesignKind::BinaryCim}) {
    const auto b = core::makeBackend(d, cfg);
    const img::Image out = openKernel(src, *b);
    EXPECT_GT(img::psnrDb(out, refOpen), 18.0) << core::designKindName(d);
  }
}

TEST(MorphologyKernel, CorrelatedWindowMakesMinExact) {
  // On an exact-value substrate (Reference / BinaryCim) erosion equals the
  // integer reference bit for bit; on stream substrates the correlated
  // AND tree is exact up to decode rounding.
  const img::Image src = img::naturalScene(12, 12, 9);
  core::BackendFactoryConfig cfg;
  cfg.streamLength = 256;
  const auto ref = core::makeBackend(core::DesignKind::Reference, cfg);
  EXPECT_EQ(erodeKernel(src, *ref).pixels(), erodeReference(src).pixels());
  const auto cim = core::makeBackend(core::DesignKind::BinaryCim, cfg);
  EXPECT_EQ(dilateKernel(src, *cim).pixels(), dilateReference(src).pixels());
}

// --- SW-SC bit-identity with the per-bit oracle for the promoted vocabulary --

core::SwScConfig swCfg(std::size_t n, sc::SimdMode mode) {
  core::SwScConfig cfg;
  cfg.streamLength = n;
  cfg.sng = core::SwScSng::Lfsr;
  cfg.seed = 0xfeed;
  cfg.simd = mode;
  return cfg;
}

class VocabOracleIdentity : public ::testing::TestWithParam<sc::SimdMode> {
 protected:
  /// The engine at the parameter's width, and its per-bit oracle.
  core::SwScBackend engine(std::size_t n = 512) const {
    return core::SwScBackend(swCfg(n, GetParam()));
  }
  static std::unique_ptr<core::ScBackend> bitOracle(std::size_t n = 512) {
    return oracle::swScBitOracleBackend(swCfg(n, sc::SimdMode::Auto));
  }
};

TEST_P(VocabOracleIdentity, MinimumMaximumAddApproxBitIdentical) {
  core::SwScBackend e = engine();
  const auto o = bitOracle();

  const std::vector<std::uint8_t> a{10, 100, 200};
  const std::vector<std::uint8_t> b{240, 140, 40};
  const auto xs = e.encodePixels(a);
  const auto ys = e.encodePixelsCorrelated(b);
  const auto xv = o->encodePixels(a);
  const auto yv = o->encodePixelsCorrelated(b);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(e.minimum(xs[i], ys[i]).stream, o->minimum(xv[i], yv[i]).stream);
    EXPECT_EQ(e.maximum(xs[i], ys[i]).stream, o->maximum(xv[i], yv[i]).stream);
  }
  // addApprox wants independent inputs: fresh single-pixel epochs.
  const core::ScValue sx = e.encodePixel(60);
  const core::ScValue sy = e.encodePixel(90);
  const core::ScValue vx = o->encodePixel(60);
  const core::ScValue vy = o->encodePixel(90);
  EXPECT_EQ(e.addApprox(sx, sy).stream, o->addApprox(vx, vy).stream);
  EXPECT_EQ(e.opCount(), o->opCount());
}

TEST_P(VocabOracleIdentity, BernsteinSelectAndCopiesBitIdentical) {
  core::SwScBackend e = engine();
  const auto o = bitOracle();

  const std::vector<double> coeffValues{0.0, 0.1, 0.45, 1.0};
  const auto sCopies = e.encodeCopies(150, 3);
  const auto vCopies = o->encodeCopies(150, 3);
  ASSERT_EQ(sCopies.size(), vCopies.size());
  std::vector<core::ScValue> sCoeffs;
  std::vector<core::ScValue> vCoeffs;
  for (const double bk : coeffValues) {
    sCoeffs.push_back(e.encodeProb(bk));
    vCoeffs.push_back(o->encodeProb(bk));
  }
  for (std::size_t i = 0; i < sCopies.size(); ++i) {
    EXPECT_EQ(sCopies[i].stream, vCopies[i].stream);
  }
  EXPECT_EQ(e.bernsteinSelect(sCopies, sCoeffs).stream,
            o->bernsteinSelect(vCopies, vCoeffs).stream);
  EXPECT_EQ(e.opCount(), o->opCount());
}

TEST_P(VocabOracleIdentity, GammaAndMorphologyKernelsBitIdentical) {
  const img::Image src = img::naturalScene(12, 10, 5);
  core::SwScBackend eG = engine(256);
  EXPECT_EQ(gammaKernel(src, 2.2, eG, 4).pixels(),
            gammaKernel(src, 2.2, *bitOracle(256), 4).pixels());

  core::SwScBackend eM = engine(256);
  EXPECT_EQ(openKernel(src, eM).pixels(), openKernel(src, *bitOracle(256)).pixels());
}

INSTANTIATE_TEST_SUITE_P(PortableAndAuto, VocabOracleIdentity,
                         ::testing::Values(sc::SimdMode::Portable,
                                           sc::SimdMode::Auto),
                         [](const auto& info) {
                           return std::string(sc::simdModeName(info.param));
                         });

// --- tiled determinism -------------------------------------------------------

TEST(MorphologyTiled, ThreadCountInvariantIncludingCompositions) {
  const img::Image src = img::naturalScene(20, 20, 11);
  auto run = [&](std::size_t threads) {
    core::TileExecutorConfig cfg;
    cfg.lanes = 4;
    cfg.threads = threads;
    cfg.rowsPerTile = 2;
    cfg.mat.streamLength = 128;
    cfg.mat.device = reram::DeviceParams::ideal();
    core::TileExecutor exec(cfg);
    return runStages(AppKind::Morphology, {.src = src}, exec);
  };
  const img::Image at0 = run(0);
  EXPECT_EQ(run(2).pixels(), at0.pixels());
  EXPECT_EQ(run(8).pixels(), at0.pixels());
  // Quality class sanity against the integer oracle.
  EXPECT_GT(img::psnrDb(at0, openReference(src)), 15.0);
}

TEST(MorphologyTiled, RunAppGammaAndMorphologyThreadInvariant) {
  RunConfig cfg;
  cfg.width = 12;
  cfg.height = 12;
  cfg.streamLength = 64;
  // threads >= 1 keeps every design on the lane-fleet path (non-ReRAM
  // designs run serially at threads == 0, which is a different — also
  // deterministic — bit pattern).
  const ParallelConfig par1{4, 1, 2};
  const ParallelConfig par4{4, 4, 2};
  for (const AppKind app : {AppKind::Gamma, AppKind::Morphology}) {
    for (const DesignKind d : {DesignKind::ReramSc, DesignKind::SwScSimd}) {
      const Quality a = runApp(app, d, cfg, par1);
      const Quality b = runApp(app, d, cfg, par4);
      EXPECT_EQ(a.psnrDb, b.psnrDb)
          << appName(app) << " / " << core::designKindName(d);
      EXPECT_EQ(a.ssimPct, b.ssimPct)
          << appName(app) << " / " << core::designKindName(d);
    }
  }
}

}  // namespace
}  // namespace aimsc::apps
