// SW-SC engine suite: the bulk SNG layer reproduces the per-bit sources
// bit for bit, the word-level CORDIV equals the serial flip-flop, the
// engine matches the per-bit oracle of op_oracle.hpp on all four apps for
// every SNG family at the portable and the widest width (across epoch
// prefetch-block refills), every width on the SSE2/AVX2/AVX-512 ladder
// agrees with the portable fallback, and tiled runs are deterministic
// across worker-thread counts.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "apps/bilinear.hpp"
#include "apps/compositing.hpp"
#include "apps/filters.hpp"
#include "apps/matting.hpp"
#include "apps/runner.hpp"
#include "core/backend.hpp"
#include "core/backend_swsc.hpp"
#include "core/tile_executor.hpp"
#include "img/synth.hpp"
#include "sc/bulk_sng.hpp"
#include "sc/cordiv.hpp"
#include "sc/rng.hpp"
#include "sc/sng.hpp"

#include "op_oracle.hpp"

namespace aimsc {
namespace {

using core::DesignKind;
using core::ScBackend;
using core::SwScConfig;

// --- bulk PRNG layer --------------------------------------------------------

TEST(BulkLfsr8, EveryLaneMatchesScalarLfsr) {
  std::array<std::uint8_t, sc::BulkLfsr8::kLanes> seeds;
  for (std::size_t k = 0; k < seeds.size(); ++k) {
    seeds[k] = static_cast<std::uint8_t>((k * 37 + 1) % 254 + 1);
  }
  const std::size_t n = 300;  // > the 255-step period: covers the wrap
  std::vector<std::uint8_t> bulkOut(seeds.size() * n);
  sc::BulkLfsr8 bulk(seeds);
  bulk.generate(n, bulkOut.data());
  for (std::size_t k = 0; k < seeds.size(); ++k) {
    sc::Lfsr scalar = sc::Lfsr::paper8Bit(seeds[k]);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(bulkOut[k * n + i], scalar.next(8))
          << "lane " << k << " step " << i;
    }
  }
}

TEST(BulkLfsr8, ZeroSeedThrows) {
  std::array<std::uint8_t, sc::BulkLfsr8::kLanes> seeds;
  seeds.fill(1);
  seeds[13] = 0;
  EXPECT_THROW(sc::BulkLfsr8 bulk(seeds), std::invalid_argument);
}

TEST(BulkLfsr8Wide, EveryLaneMatchesScalarLfsr) {
  // The deep (64-lane, one AVX-512 register per word pass) prefetch shape
  // must reproduce the scalar source exactly like the 32-lane default.
  std::array<std::uint8_t, sc::BulkLfsr8Wide::kLanes> seeds;
  for (std::size_t k = 0; k < seeds.size(); ++k) {
    seeds[k] = static_cast<std::uint8_t>((k * 41 + 3) % 254 + 1);
  }
  const std::size_t n = 300;
  std::vector<std::uint8_t> bulkOut(seeds.size() * n);
  sc::BulkLfsr8Wide bulk(seeds);
  bulk.generate(n, bulkOut.data());
  for (std::size_t k = 0; k < seeds.size(); ++k) {
    sc::Lfsr scalar = sc::Lfsr::paper8Bit(seeds[k]);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(bulkOut[k * n + i], scalar.next(8))
          << "lane " << k << " step " << i;
    }
  }
}

// --- packed comparator ------------------------------------------------------

TEST(RandomPlanes, EncodeMatchesGenerateSbsForAllThresholds) {
  // Odd length exercises the partial-word tail.
  const std::size_t n = 200;
  sc::Lfsr src = sc::Lfsr::paper8Bit(77);
  std::vector<std::uint8_t> r(n);
  for (auto& b : r) b = static_cast<std::uint8_t>(src.next(8));
  sc::RandomPlanes planes;
  planes.assign(r.data(), n);

  for (std::uint32_t x = 0; x <= 256; ++x) {
    src.reset();
    const sc::Bitstream ref = sc::generateSbs(src, x, 8, n);
    sc::Bitstream got;
    planes.encode(x, got, sc::SimdMode::Portable);
    ASSERT_EQ(got, ref) << "threshold " << x;
  }
}

TEST(RandomPlanes, EveryWidthBitIdenticalToPortable) {
  // The full ladder: explicit requests clamp down on weak hosts, so every
  // level is safe to run everywhere — on this host it may alias a narrower
  // path, in which case the assertion is trivially (still correctly) true.
  std::mt19937 rng(123);
  for (const std::size_t n : {std::size_t{64}, std::size_t{100},
                              std::size_t{256}, std::size_t{1000}}) {
    std::vector<std::uint8_t> r(n);
    for (auto& b : r) b = static_cast<std::uint8_t>(rng());
    sc::RandomPlanes planes;
    planes.assign(r.data(), n);
    for (const sc::SimdMode mode :
         {sc::SimdMode::Auto, sc::SimdMode::Sse2, sc::SimdMode::Avx2,
          sc::SimdMode::Avx512}) {
      for (std::uint32_t x = 0; x <= 256; ++x) {
        sc::Bitstream fast;
        sc::Bitstream slow;
        planes.encode(x, fast, mode);
        planes.encode(x, slow, sc::SimdMode::Portable);
        ASSERT_EQ(fast, slow) << "n=" << n << " mode "
                              << sc::simdModeName(mode) << " threshold " << x;
      }
    }
  }
}

TEST(RandomPlanes, PortableAssignBuildsPlanesEagerly) {
  // Regression for the mutable lazy-cache hazard: a portable-mode assign
  // must materialize the bit-planes up front, so a later encode (possibly
  // from another thread adopting the arena) never writes shared state.
  std::vector<std::uint8_t> r(100, 42);
  sc::RandomPlanes planes;
  planes.assign(r.data(), r.size(), sc::SimdMode::Portable);
  EXPECT_TRUE(planes.planesReady());

  // Auto mirrors the resolved width: planes are pre-built exactly when the
  // host (or AIMSC_SIMD) resolves Auto to the portable path.
  sc::RandomPlanes autoPlanes;
  autoPlanes.assign(r.data(), r.size(), sc::SimdMode::Auto);
  EXPECT_EQ(autoPlanes.planesReady(),
            sc::resolveSimd(sc::SimdMode::Auto) == sc::SimdMode::Portable);

  // The eager build is the one the portable encode uses.
  sc::Bitstream eager;
  planes.encode(7, eager, sc::SimdMode::Portable);
  sc::Bitstream lazy;
  autoPlanes.encode(7, lazy, sc::SimdMode::Portable);
  EXPECT_EQ(eager, lazy);
}

TEST(SimdCaps, ResolveClampsDownAndAutoIsConcrete) {
  const sc::SimdMode best = sc::detectBestSimd();
  EXPECT_NE(sc::resolveSimd(sc::SimdMode::Auto), sc::SimdMode::Auto);
  EXPECT_EQ(sc::resolveSimd(sc::SimdMode::Portable), sc::SimdMode::Portable);
  // An explicit request never resolves above host support.
  if (best != sc::SimdMode::Avx512) {
    EXPECT_NE(sc::resolveSimd(sc::SimdMode::Avx512), sc::SimdMode::Avx512);
  } else {
    EXPECT_EQ(sc::resolveSimd(sc::SimdMode::Avx512), sc::SimdMode::Avx512);
  }
  EXPECT_THROW(sc::parseSimdMode("avx1024"), std::invalid_argument);
  EXPECT_EQ(sc::parseSimdMode("avx512"), sc::SimdMode::Avx512);
  EXPECT_STREQ(sc::simdModeName(sc::SimdMode::Sse2), "sse2");
}

// --- word-level CORDIV ------------------------------------------------------

TEST(CordivWordLevel, MatchesSerialFlipFlop) {
  std::mt19937 rng(99);
  for (const std::size_t n : {std::size_t{1}, std::size_t{63}, std::size_t{64},
                              std::size_t{65}, std::size_t{130},
                              std::size_t{256}}) {
    for (int trial = 0; trial < 40; ++trial) {
      sc::Bitstream x(n);
      sc::Bitstream y(n);
      for (std::size_t i = 0; i < n; ++i) {
        const bool yi = (rng() & 3u) != 0;  // mostly-1 divisor + zero runs
        y.set(i, yi);
        x.set(i, yi && (rng() & 1u));
      }
      ASSERT_EQ(sc::cordivDivideWordLevel(x, y), sc::cordivDivide(x, y))
          << "n=" << n << " trial " << trial;
    }
  }
}

// --- the engine vs the per-bit oracle: bit-identical apps -------------------

SwScConfig swScConfig(core::SwScSng sng, std::uint64_t seed, std::size_t n,
                      sc::SimdMode mode = sc::SimdMode::Auto) {
  SwScConfig cfg;
  cfg.streamLength = n;
  cfg.sng = sng;
  cfg.seed = seed;
  cfg.simd = mode;
  return cfg;
}

std::unique_ptr<ScBackend> engine(core::SwScSng sng, std::uint64_t seed,
                                  std::size_t n,
                                  sc::SimdMode mode = sc::SimdMode::Auto) {
  return std::make_unique<core::SwScBackend>(swScConfig(sng, seed, n, mode));
}

std::unique_ptr<ScBackend> bitOracle(core::SwScSng sng, std::uint64_t seed,
                                     std::size_t n) {
  return oracle::swScBitOracleBackend(swScConfig(sng, seed, n));
}

using EngineCase = std::tuple<core::SwScSng, sc::SimdMode>;

class EngineMatchesBitOracle : public ::testing::TestWithParam<EngineCase> {};

TEST_P(EngineMatchesBitOracle, AllFourAppsBitIdenticalAt64) {
  // 64 rows of compositing open 128 fresh epochs per backend and matting
  // 64: more than one prefetch block (32 or 64 LFSR epochs, 16 SFMT), so
  // every family crosses block refills.  Output bytes and the serial-pass
  // ledger must equal the per-bit oracle's.
  const auto [sng, mode] = GetParam();
  const std::uint64_t seed = 0x5eed;
  const std::size_t n = 256;
  const auto check = [&](const char* app, auto&& kernel) {
    const auto e = engine(sng, seed, n, mode);
    const auto o = bitOracle(sng, seed, n);
    EXPECT_EQ(kernel(*e).pixels(), kernel(*o).pixels()) << app;
    EXPECT_EQ(e->opCount(), o->opCount()) << app;
    EXPECT_GT(e->opCount(), 0u) << app;
  };

  const apps::CompositingScene scene = apps::makeCompositingScene(64, 64, 21);
  check("compositing",
        [&](ScBackend& b) { return apps::compositeKernel(scene, b); });
  const img::Image src = img::naturalScene(32, 32, 4);
  check("bilinear",
        [&](ScBackend& b) { return apps::upscaleKernel(src, 2, b); });
  const apps::MattingScene mat = apps::makeMattingScene(64, 64, 8);
  check("matting", [&](ScBackend& b) { return apps::mattingKernel(mat, b); });
  check("smoothing", [&](ScBackend& b) { return apps::smoothKernel(src, b); });
}

INSTANTIATE_TEST_SUITE_P(
    AllSngFamilies, EngineMatchesBitOracle,
    ::testing::Combine(::testing::Values(core::SwScSng::Lfsr,
                                         core::SwScSng::Sobol,
                                         core::SwScSng::Sfmt),
                       ::testing::Values(sc::SimdMode::Portable,
                                         sc::SimdMode::Auto)),
    [](const ::testing::TestParamInfo<EngineCase>& info) {
      return std::string(core::swScSngName(std::get<0>(info.param))) + "_" +
             sc::simdModeName(std::get<1>(info.param));
    });

TEST(SwScEngine, PortableFallbackBitIdenticalOnAnApp) {
  const apps::CompositingScene scene = apps::makeCompositingScene(32, 32, 3);
  const auto fast = apps::compositeKernel(
      scene, *engine(core::SwScSng::Lfsr, 11, 256, sc::SimdMode::Auto));
  const auto slow = apps::compositeKernel(
      scene, *engine(core::SwScSng::Lfsr, 11, 256, sc::SimdMode::Portable));
  EXPECT_EQ(fast.pixels(), slow.pixels());
}

TEST(SwScEngine, EpochPrefetchSurvivesManyEpochs) {
  // > BulkLfsr8Wide::kLanes fresh epochs forces at least two block
  // refills at either prefetch depth.
  const std::size_t n = 128;
  for (const sc::SimdMode mode : {sc::SimdMode::Portable, sc::SimdMode::Auto}) {
    const auto e = engine(core::SwScSng::Lfsr, 5, n, mode);
    const auto o = bitOracle(core::SwScSng::Lfsr, 5, n);
    for (int epoch = 0; epoch < 150; ++epoch) {
      const std::vector<std::uint8_t> v{static_cast<std::uint8_t>(epoch * 3)};
      auto a = e->encodePixels(v);
      auto b = o->encodePixels(v);
      ASSERT_EQ(a[0].stream, b[0].stream)
          << "mode " << sc::simdModeName(mode) << " epoch " << epoch;
    }
  }
}

TEST(SwScEngine, SfmtEpochNumberingStaysInSyncAcrossBlocks) {
  // SFMT epoch-numbering conformance: > BulkSfmt::kLanes fresh epochs per
  // width forces multiple prefetch-block refills, and every epoch's stream
  // must equal the per-bit SFMT oracle's — for each width on the ladder.
  const std::size_t n = 96;
  for (const sc::SimdMode mode :
       {sc::SimdMode::Auto, sc::SimdMode::Portable, sc::SimdMode::Sse2,
        sc::SimdMode::Avx2, sc::SimdMode::Avx512}) {
    const auto e = engine(core::SwScSng::Sfmt, 5, n, mode);
    const auto o = bitOracle(core::SwScSng::Sfmt, 5, n);
    for (int epoch = 0; epoch < 40; ++epoch) {
      const std::vector<std::uint8_t> v{static_cast<std::uint8_t>(epoch * 7)};
      auto a = e->encodePixels(v);
      auto b = o->encodePixels(v);
      ASSERT_EQ(a[0].stream, b[0].stream)
          << "mode " << sc::simdModeName(mode) << " epoch " << epoch;
    }
  }
}

TEST(SwScEngine, EveryWidthBitIdenticalOnAnApp) {
  // Width sweep at the app level: each explicit rung (clamped down on weak
  // hosts) reproduces the portable run bit for bit.
  const apps::CompositingScene scene = apps::makeCompositingScene(32, 32, 9);
  const auto base = apps::compositeKernel(
      scene, *engine(core::SwScSng::Lfsr, 13, 256, sc::SimdMode::Portable));
  for (const sc::SimdMode mode :
       {sc::SimdMode::Sse2, sc::SimdMode::Avx2, sc::SimdMode::Avx512}) {
    const auto got = apps::compositeKernel(
        scene, *engine(core::SwScSng::Lfsr, 13, 256, mode));
    EXPECT_EQ(got.pixels(), base.pixels())
        << "mode " << sc::simdModeName(mode);
  }
}

// --- constants / epoch-numbering fix ----------------------------------------

TEST(SwScConstants, HalfStreamDoesNotDesynchronizeEpochs) {
  // Constants between a fresh encode and its correlated follow-up must not
  // advance the epoch: the pair stays maximally correlated and XOR still
  // measures the exact difference.
  for (const auto sng :
       {core::SwScSng::Lfsr, core::SwScSng::Sobol, core::SwScSng::Sfmt}) {
    const auto b = engine(sng, 0x44, 2048);
    const auto x = b->encodePixels(std::vector<std::uint8_t>{204});
    (void)b->halfStream();
    (void)b->encodeProb(0.25);
    const auto y = b->encodePixelsCorrelated(std::vector<std::uint8_t>{51});
    const auto d = b->decodePixel(b->absSub(x[0], y[0]));
    EXPECT_NEAR(d / 255.0, (204.0 - 51.0) / 255.0, 0.02);
  }
}

TEST(SwScConstants, RepeatedHalvesAreIndependentWithinAnEpoch) {
  // The smoothing kernel draws seven halves per row; they must be mutually
  // independent (a shared select stream would collapse the MUX tree).
  const auto b = engine(core::SwScSng::Lfsr, 0x7a, 2048);
  const auto h1 = b->halfStream();
  const auto h2 = b->halfStream();
  EXPECT_NE(h1.stream, h2.stream);
  const auto prod = b->decodePixel(b->multiply(h1, h2));
  EXPECT_NEAR(prod / 255.0, 0.25, 0.06);  // p^2, not p
}

TEST(SwScConstants, PoolRewindsAcrossEpochsAndMatchesOracle) {
  const auto e = engine(core::SwScSng::Lfsr, 0x31, 512);
  const auto a1 = e->halfStream();
  (void)e->encodePixels(std::vector<std::uint8_t>{9});  // new epoch
  const auto a2 = e->halfStream();
  EXPECT_EQ(a1.stream, a2.stream);  // same pooled bank, rewound

  const auto o = bitOracle(core::SwScSng::Lfsr, 0x31, 512);
  EXPECT_EQ(o->halfStream().stream, a1.stream);  // per-bit derivation
}

// --- factory / runner plumbing ----------------------------------------------

TEST(SwScEngine, SwScSimdFactoryIsTheLfsrDesignPoint) {
  core::BackendFactoryConfig cfg;
  cfg.streamLength = 128;
  cfg.seed = 0xabc;
  const auto b = core::makeBackend(DesignKind::SwScSimd, cfg);
  ASSERT_NE(b, nullptr);
  EXPECT_STREQ(b->name(), core::designKindName(DesignKind::SwScSimd));
  EXPECT_STREQ(b->name(), "SW-SC (SIMD)");

  // Factory-built SwScSimd is the SwScLfsr design point.
  const auto lfsr = core::makeBackend(DesignKind::SwScLfsr, cfg);
  auto a = b->encodePixels(std::vector<std::uint8_t>{10, 100, 250});
  auto s = lfsr->encodePixels(std::vector<std::uint8_t>{10, 100, 250});
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].stream, s[i].stream);
  }
}

TEST(SwScSfmtBackend, MakeBackendCoverage) {
  core::BackendFactoryConfig cfg;
  cfg.streamLength = 128;
  cfg.seed = 0xabc;
  const auto b = core::makeBackend(DesignKind::SwScSfmt, cfg);
  ASSERT_NE(b, nullptr);
  EXPECT_STREQ(b->name(), core::designKindName(DesignKind::SwScSfmt));
  EXPECT_STREQ(b->name(), "SW-SC (SFMT)");
  EXPECT_EQ(core::parseDesignKind("SW-SC (SFMT)"), DesignKind::SwScSfmt);
  EXPECT_EQ(core::parseDesignKind("swsc-sfmt"), DesignKind::SwScSfmt);

  // The factory design point matches the per-bit SFMT oracle.
  const auto o = bitOracle(core::SwScSng::Sfmt, cfg.seed, 128);
  auto a = b->encodePixels(std::vector<std::uint8_t>{10, 100, 250});
  auto s = o->encodePixels(std::vector<std::uint8_t>{10, 100, 250});
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].stream, s[i].stream);
  }
}

TEST(SwScEngine, RunAppTiledDeterministicAcrossThreadCounts) {
  apps::RunConfig cfg;
  cfg.width = 32;
  cfg.height = 32;
  cfg.streamLength = 128;
  for (const apps::AppKind app :
       {apps::AppKind::Compositing, apps::AppKind::Matting}) {
    apps::Quality first{};
    bool have = false;
    for (const std::size_t threads :
         {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
      apps::ParallelConfig par;
      par.lanes = 4;
      par.threads = threads;
      par.rowsPerTile = 2;
      const apps::Quality q =
          apps::runApp(app, DesignKind::SwScSimd, cfg, par);
      if (!have) {
        first = q;
        have = true;
      } else {
        EXPECT_EQ(q.psnrDb, first.psnrDb) << apps::appName(app) << " threads=" << threads;
        EXPECT_EQ(q.ssimPct, first.ssimPct) << apps::appName(app) << " threads=" << threads;
      }
    }
  }
}

TEST(SwScEngine, TiledLaneFleetBitIdenticalToPerBitOracleFleet) {
  // A lane fleet of per-bit oracles, seeded with makeBackendLanes' stride,
  // must reproduce the factory fleet bit for bit under the same tile
  // schedule — the oracle lanes share no stage-1 or CORDIV code with it.
  const apps::CompositingScene scene = apps::makeCompositingScene(24, 24, 17);
  core::BackendFactoryConfig cfg;
  cfg.streamLength = 128;
  cfg.seed = 0x5eed;
  core::ParallelConfig par;
  par.threads = 2;
  par.rowsPerTile = 3;
  std::vector<std::unique_ptr<ScBackend>> oracleLanes;
  for (std::size_t i = 0; i < 3; ++i) {
    oracleLanes.push_back(bitOracle(core::SwScSng::Lfsr,
                                    cfg.seed + 0x9e3779b97f4a7c15ull * (i + 1),
                                    cfg.streamLength));
  }
  core::TileExecutor oracleExec(std::move(oracleLanes), par);
  const apps::AppInputs in{scene.background, scene.foreground, scene.alpha};
  const img::Image want =
      apps::runStages(apps::AppKind::Compositing, in, oracleExec);
  for (const DesignKind d : {DesignKind::SwScSimd, DesignKind::SwScLfsr}) {
    core::TileExecutor exec(core::makeBackendLanes(d, cfg, 3), par);
    EXPECT_EQ(apps::runStages(apps::AppKind::Compositing, in, exec).pixels(),
              want.pixels())
        << core::designKindName(d);
  }
}

}  // namespace
}  // namespace aimsc
