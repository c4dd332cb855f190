// Reproduces paper Fig. 5: normalized throughput of the CMOS-based and
// ReRAM-based SC designs over the binary CIM reference (ref = 1.0).
//
// Part 2 measures the *simulator's* wall-clock throughput: the serial
// backend-generic kernel vs the same kernel on the tile-parallel engine
// (batched IMSNG + lane-pinned row tiles) across worker-thread counts,
// verifying that the tiled output is bit-identical at every thread count.
//
// Part 3 measures the software-SC substrate: the SW-SC engine forced to
// its portable uint64 path (the "scalar" keys) against the same engine at
// the widest SIMD path the host supports, verifying the two are
// bit-identical per seed (the independent per-bit check is in
// tests/test_backend_simd.cpp).
//
// Part 4 measures the allocation-free hot path: the fused arena + *Into
// compositing kernel against a verbatim copy of the pre-arena allocating
// loop, on identically seeded SwScLfsr and ReRAM-SC backends.  Outputs must
// be bit-identical; target >= 2x serial at 256x256 on both substrates.  The
// fused kernel's steady-state arena growth is asserted to be zero.
//
// Results are also written to BENCH_throughput.json so the perf trajectory
// is machine-trackable.
//
// Usage: bench_fig5_throughput [size]   (default 256; CI smoke uses 32)
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "apps/runner.hpp"
#include "core/backend_reram.hpp"
#include "core/backend_swsc.hpp"
#include "core/stream_arena.hpp"
#include "energy/report.hpp"
#include "energy/system_model.hpp"
#include "sc/bulk_sng.hpp"

namespace {

double secondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

struct SweepPoint {
  std::size_t threads;
  double pixelsPerSec;
  double speedup;
};

struct WidthPoint {
  aimsc::sc::SimdMode mode;
  double pps = 0;
  bool bitIdentical = false;  ///< vs the forced-portable run
};

struct SwScResult {
  double scalarPps = 0;
  double simdPps = 0;  ///< Auto = the widest supported path
  double simdTiledPps = 0;
  bool bitIdentical = false;
  const char* simdWidth = "portable";  ///< what Auto resolved to
  std::vector<WidthPoint> widths;      ///< portable..avx512 sweep
  double sfmtScalarPps = 0;
  double sfmtSimdPps = 0;
  bool sfmtBitIdenticalToScalar = false;
  bool sfmtBitIdenticalToPortable = false;
};

struct AllocResult {
  double swscAllocPps = 0;
  double swscFusedPps = 0;
  double reramAllocPps = 0;
  double reramFusedPps = 0;
  bool swscBitIdentical = false;
  bool reramBitIdentical = false;
  bool swscZeroSteadyGrowth = false;
  bool reramZeroSteadyGrowth = false;
};

/// Verbatim pre-arena compositing row loop (the PR-4 baseline call
/// sequence): per-pixel allocating ops, per-row allocating encodes/decodes.
aimsc::img::Image compositeAllocBaseline(
    const aimsc::apps::CompositingScene& scene, aimsc::core::ScBackend& b) {
  using namespace aimsc;
  const std::size_t w = scene.background.width();
  img::Image out(w, scene.background.height());
  std::vector<std::uint8_t> frow(w);
  std::vector<std::uint8_t> brow(w);
  std::vector<std::uint8_t> arow(w);
  std::vector<core::ScValue> blended(w);
  for (std::size_t y = 0; y < out.height(); ++y) {
    for (std::size_t x = 0; x < w; ++x) {
      frow[x] = scene.foreground.at(x, y);
      brow[x] = scene.background.at(x, y);
      arow[x] = scene.alpha.at(x, y);
    }
    const auto fs = b.encodePixels(frow);
    const auto bs = b.encodePixelsCorrelated(brow);
    const auto as = b.encodePixels(arow);
    for (std::size_t x = 0; x < w; ++x) {
      blended[x] = b.majMux(fs[x], bs[x], as[x]);
    }
    const auto row = b.decodePixels(blended);
    for (std::size_t x = 0; x < w; ++x) out.at(x, y) = row[x];
  }
  return out;
}

/// True when a warm arena adds no pool growth over the steady-state rows.
bool steadyStateGrowthIsZero(const aimsc::apps::CompositingScene& scene,
                             aimsc::core::ScBackend& b) {
  using namespace aimsc;
  core::StreamArena arena;
  img::Image out(scene.background.width(), scene.background.height());
  apps::compositeKernelRows(scene, b, arena, out, 0, 1);  // warm-up tile
  const std::uint64_t warm = arena.stats().growthEvents();
  const std::size_t rows = std::min<std::size_t>(out.height(), 4);
  arena.reset();  // the tile boundary: cursors rewind, capacity stays
  apps::compositeKernelRows(scene, b, arena, out, 1, rows);
  return arena.stats().growthEvents() == warm;
}

/// Best-of-\p reps wall clock of one freshly seeded kernel run per rep
/// (identical seeds, so every rep computes the same bits): small smoke
/// sizes finish in a couple of milliseconds, where a single sample is
/// dominated by scheduler noise — the best sample is the least-preempted
/// one.  \p run must build its backend per call so no state carries over.
template <typename RunFn>
double bestSeconds(int reps, RunFn&& run) {
  double best = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < reps; ++rep) {
    const double sec = run();
    if (sec < best) best = sec;
  }
  return best;
}

/// Part 4: the allocation-free hot path vs the allocating baseline.
AllocResult measuredAllocVsFused(std::size_t size,
                                 const aimsc::apps::CompositingScene& scene,
                                 const aimsc::apps::RunConfig& cfg) {
  using namespace aimsc;
  const auto kPixels = static_cast<double>(size * size);
  const int reps = size <= 96 ? 5 : 3;  // the alloc loop is the slow rep
  AllocResult r;

  core::SwScConfig swCfg;
  swCfg.streamLength = 256;
  {
    img::Image allocOut;
    img::Image fusedOut;
    r.swscAllocPps = kPixels / bestSeconds(reps, [&] {
      core::SwScBackend b(swCfg);
      const auto t0 = std::chrono::steady_clock::now();
      allocOut = compositeAllocBaseline(scene, b);
      return secondsSince(t0);
    });
    r.swscFusedPps = kPixels / bestSeconds(reps, [&] {
      core::SwScBackend b(swCfg);
      const auto t0 = std::chrono::steady_clock::now();
      fusedOut = apps::compositeKernel(scene, b);
      return secondsSince(t0);
    });
    r.swscBitIdentical = fusedOut.pixels() == allocOut.pixels();

    core::SwScBackend steadyBackend(swCfg);
    r.swscZeroSteadyGrowth = steadyStateGrowthIsZero(scene, steadyBackend);
  }
  {
    const auto matCfg = apps::tileConfigFor(cfg, apps::ParallelConfig{}).mat;
    img::Image allocOut;
    img::Image fusedOut;
    r.reramAllocPps = kPixels / bestSeconds(reps, [&] {
      core::ReramScBackend b(matCfg);
      const auto t0 = std::chrono::steady_clock::now();
      allocOut = compositeAllocBaseline(scene, b);
      return secondsSince(t0);
    });
    r.reramFusedPps = kPixels / bestSeconds(reps, [&] {
      core::ReramScBackend b(matCfg);
      const auto t0 = std::chrono::steady_clock::now();
      fusedOut = apps::compositeKernel(scene, b);
      return secondsSince(t0);
    });
    r.reramBitIdentical = fusedOut.pixels() == allocOut.pixels();

    core::ReramScBackend steadyBackend(matCfg);
    r.reramZeroSteadyGrowth = steadyStateGrowthIsZero(scene, steadyBackend);
  }

  std::printf(
      "\nAllocation-free hot path: %zux%zu compositing, N=256, serial\n"
      "  SwScLfsr allocating loop: %10.0f pixels/s\n"
      "  SwScLfsr fused kernel:    %10.0f pixels/s (%.1fx alloc)\n"
      "  ReRAM-SC allocating loop: %10.0f pixels/s\n"
      "  ReRAM-SC fused kernel:    %10.0f pixels/s (%.1fx alloc)\n"
      "  bit-identical fused vs alloc: SwSc %s, ReRAM %s\n"
      "  zero steady-state arena growth: SwSc %s, ReRAM %s\n",
      size, size, r.swscAllocPps, r.swscFusedPps,
      r.swscFusedPps / r.swscAllocPps, r.reramAllocPps, r.reramFusedPps,
      r.reramFusedPps / r.reramAllocPps, r.swscBitIdentical ? "yes" : "NO (BUG)",
      r.reramBitIdentical ? "yes" : "NO (BUG)",
      r.swscZeroSteadyGrowth ? "yes" : "NO (BUG)",
      r.reramZeroSteadyGrowth ? "yes" : "NO (BUG)");
  return r;
}

/// Part 3: the software-SC substrate — the engine at `SimdMode::Portable`
/// vs `Auto` (same seed, bit-identical output by contract), the full width
/// ladder (each explicit request clamps down on weak hosts, so every entry
/// is measurable everywhere), and the SFMT epoch-source family.
SwScResult measuredSwScSweep(std::size_t size,
                             const aimsc::apps::CompositingScene& scene) {
  using namespace aimsc;
  const auto kPixels = static_cast<double>(size * size);
  const int reps = 5;  // ~10-20ms per rep even at 256; best-of damps CI noise
  SwScResult r;
  r.simdWidth = sc::simdModeName(sc::resolveSimd(sc::SimdMode::Auto));

  const auto runSimd = [&](core::SwScSng sng, sc::SimdMode mode,
                           img::Image& out) {
    core::SwScConfig cfg;
    cfg.streamLength = 256;
    cfg.sng = sng;
    cfg.simd = mode;
    return kPixels / bestSeconds(reps, [&] {
      core::SwScBackend b(cfg);
      const auto t0 = std::chrono::steady_clock::now();
      out = apps::compositeKernel(scene, b);
      return secondsSince(t0);
    });
  };

  // Width ladder, each rung against the forced-portable bits; the portable
  // rung is also the "scalar" side of the Auto comparison.
  img::Image portableOut;
  for (const sc::SimdMode mode :
       {sc::SimdMode::Portable, sc::SimdMode::Sse2, sc::SimdMode::Avx2,
        sc::SimdMode::Avx512}) {
    WidthPoint p;
    p.mode = mode;
    img::Image out;
    p.pps = runSimd(core::SwScSng::Lfsr, mode, out);
    if (mode == sc::SimdMode::Portable) portableOut = out;
    p.bitIdentical = out.pixels() == portableOut.pixels();
    r.widths.push_back(p);
  }
  r.scalarPps = r.widths.front().pps;
  img::Image simdOut;
  r.simdPps = runSimd(core::SwScSng::Lfsr, sc::SimdMode::Auto, simdOut);
  r.bitIdentical = simdOut.pixels() == portableOut.pixels();

  // SFMT family: the BulkSfmt recurrence at the portable vs the widest
  // path; both sfmt_bit_identical_* keys carry this one comparison.
  img::Image sfmtScalarOut;
  r.sfmtScalarPps =
      runSimd(core::SwScSng::Sfmt, sc::SimdMode::Portable, sfmtScalarOut);
  img::Image sfmtSimdOut;
  r.sfmtSimdPps = runSimd(core::SwScSng::Sfmt, sc::SimdMode::Auto, sfmtSimdOut);
  r.sfmtBitIdenticalToScalar = sfmtSimdOut.pixels() == sfmtScalarOut.pixels();
  r.sfmtBitIdenticalToPortable = r.sfmtBitIdenticalToScalar;

  // SIMD x tile-parallel: the two speedup axes compose.
  core::ParallelConfig par;
  par.threads = 4;
  core::BackendFactoryConfig fleetCfg;
  fleetCfg.streamLength = 256;
  fleetCfg.seed = core::SwScConfig{}.seed;
  core::TileExecutor exec(
      core::makeBackendLanes(core::DesignKind::SwScSimd, fleetCfg, par.lanes),
      par);
  const auto t0 = std::chrono::steady_clock::now();
  apps::runStages(apps::AppKind::Compositing,
                  {scene.background, scene.foreground, scene.alpha}, exec);
  r.simdTiledPps = kPixels / secondsSince(t0);

  std::printf(
      "\nSoftware-SC substrate: %zux%zu compositing, N=256 "
      "(auto width: %s; AVX2 %s, AVX-512BW %s)\n"
      "  SwScLfsr portable path:   %10.0f pixels/s\n"
      "  SwScLfsr widest path:     %10.0f pixels/s (%.1fx portable)\n"
      "  SwScSimd tiled, 4 threads:%10.0f pixels/s (%.1fx portable)\n"
      "  widest path bit-identical to portable: %s\n",
      size, size, r.simdWidth, sc::cpuHasAvx2() ? "available" : "absent",
      sc::cpuHasAvx512bw() ? "available" : "absent", r.scalarPps, r.simdPps,
      r.simdPps / r.scalarPps, r.simdTiledPps, r.simdTiledPps / r.scalarPps,
      r.bitIdentical ? "yes" : "NO (BUG)");
  for (const WidthPoint& p : r.widths) {
    std::printf("  width %-8s: %10.0f pixels/s (%.1fx portable), %s portable\n",
                sc::simdModeName(p.mode), p.pps, p.pps / r.scalarPps,
                p.bitIdentical ? "bit-identical to" : "DIVERGES FROM (BUG)");
  }
  std::printf(
      "  SFMT portable path:       %10.0f pixels/s\n"
      "  SFMT widest path:         %10.0f pixels/s (%.1fx SFMT portable)\n"
      "  SFMT bit-identical: scalar %s, portable %s\n",
      r.sfmtScalarPps, r.sfmtSimdPps, r.sfmtSimdPps / r.sfmtScalarPps,
      r.sfmtBitIdenticalToScalar ? "yes" : "NO (BUG)",
      r.sfmtBitIdenticalToPortable ? "yes" : "NO (BUG)");
  return r;
}

void measuredSweep(std::size_t size) {
  using namespace aimsc;
  const std::size_t kPixels = size * size;

  apps::RunConfig cfg;
  cfg.width = size;
  cfg.height = size;
  cfg.streamLength = 256;

  const apps::CompositingScene scene =
      apps::makeCompositingScene(size, size, cfg.seed);

  std::printf(
      "\nMeasured simulator throughput: %zux%zu compositing, N=%zu\n",
      size, size, cfg.streamLength);

  // Serial baseline: the SAME backend-generic kernel on one ReRAM-SC
  // backend, configured exactly like the tiled lanes (device params
  // included).
  core::ReramScBackend serialBackend(
      apps::tileConfigFor(cfg, apps::ParallelConfig{}).mat);
  const auto t0 = std::chrono::steady_clock::now();
  const img::Image serialOut = apps::compositeKernel(scene, serialBackend);
  const double serialSec = secondsSince(t0);
  const double serialPps = static_cast<double>(kPixels) / serialSec;
  std::printf("  serial kernel (1 backend): %8.0f pixels/s (%.2fs)\n",
              serialPps, serialSec);

  apps::ParallelConfig par;  // lanes=8, rowsPerTile=4
  std::vector<SweepPoint> sweep;
  img::Image firstTiled;
  bool bitIdentical = true;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{4}, std::size_t{8}}) {
    par.threads = threads;
    core::TileExecutor exec(apps::tileConfigFor(cfg, par));
    const auto t1 = std::chrono::steady_clock::now();
    const img::Image tiled = apps::runStages(
        apps::AppKind::Compositing,
        {scene.background, scene.foreground, scene.alpha}, exec);
    const double sec = secondsSince(t1);
    const double pps = static_cast<double>(kPixels) / sec;
    sweep.push_back({threads, pps, pps / serialPps});
    if (firstTiled.empty()) {
      firstTiled = tiled;
    } else if (tiled.pixels() != firstTiled.pixels()) {
      bitIdentical = false;
    }
    std::printf("  tiled engine, %zu thread%s: %8.0f pixels/s (%.2fx serial)\n",
                threads, threads == 1 ? " " : "s", pps, pps / serialPps);
  }
  std::printf("  bit-identical across thread counts: %s\n",
              bitIdentical ? "yes" : "NO (BUG)");

  const SwScResult sw = measuredSwScSweep(size, scene);
  const AllocResult al = measuredAllocVsFused(size, scene, cfg);

  // Machine-readable trajectory for future PRs.
  FILE* f = std::fopen("BENCH_throughput.json", "w");
  if (f != nullptr) {
    std::fprintf(f,
                 "{\n"
                 "  \"app\": \"compositing\",\n"
                 "  \"width\": %zu,\n"
                 "  \"height\": %zu,\n"
                 "  \"stream_length\": %zu,\n"
                 "  \"lanes\": %zu,\n"
                 "  \"rows_per_tile\": %zu,\n"
                 "  \"serial_pixels_per_sec\": %.1f,\n"
                 "  \"bit_identical_across_threads\": %s,\n"
                 "  \"tiled\": [\n",
                 size, size, cfg.streamLength, par.lanes, par.rowsPerTile,
                 serialPps, bitIdentical ? "true" : "false");
    for (std::size_t i = 0; i < sweep.size(); ++i) {
      std::fprintf(f,
                   "    {\"threads\": %zu, \"pixels_per_sec\": %.1f, "
                   "\"speedup_vs_serial\": %.2f}%s\n",
                   sweep[i].threads, sweep[i].pixelsPerSec, sweep[i].speedup,
                   i + 1 < sweep.size() ? "," : "");
    }
    std::fprintf(f,
                 "  ],\n"
                 "  \"swsc\": {\n"
                 "    \"avx2\": %s,\n"
                 "    \"avx512\": %s,\n"
                 "    \"simd_width\": \"%s\",\n"
                 "    \"scalar_pixels_per_sec\": %.1f,\n"
                 "    \"simd_pixels_per_sec\": %.1f,\n"
                 "    \"simd_speedup_vs_scalar\": %.2f,\n"
                 "    \"simd_tiled4_pixels_per_sec\": %.1f,\n"
                 "    \"simd_bit_identical_to_scalar\": %s,\n",
                 aimsc::sc::cpuHasAvx2() ? "true" : "false",
                 aimsc::sc::cpuHasAvx512bw() ? "true" : "false", sw.simdWidth,
                 sw.scalarPps, sw.simdPps, sw.simdPps / sw.scalarPps,
                 sw.simdTiledPps, sw.bitIdentical ? "true" : "false");
    for (const WidthPoint& p : sw.widths) {
      std::fprintf(f,
                   "    \"width_pixels_per_sec_%s\": %.1f,\n"
                   "    \"width_bit_identical_%s\": %s,\n",
                   aimsc::sc::simdModeName(p.mode), p.pps,
                   aimsc::sc::simdModeName(p.mode),
                   p.bitIdentical ? "true" : "false");
    }
    std::fprintf(f,
                 "    \"sfmt_scalar_pixels_per_sec\": %.1f,\n"
                 "    \"sfmt_simd_pixels_per_sec\": %.1f,\n"
                 "    \"sfmt_simd_speedup_vs_scalar\": %.2f,\n"
                 "    \"sfmt_bit_identical_to_scalar\": %s,\n"
                 "    \"sfmt_bit_identical_to_portable\": %s\n"
                 "  },\n",
                 sw.sfmtScalarPps, sw.sfmtSimdPps,
                 sw.sfmtSimdPps / sw.sfmtScalarPps,
                 sw.sfmtBitIdenticalToScalar ? "true" : "false",
                 sw.sfmtBitIdenticalToPortable ? "true" : "false");
    std::fprintf(f,
                 "  \"alloc\": {\n"
                 "    \"swsc_alloc_pixels_per_sec\": %.1f,\n"
                 "    \"swsc_fused_pixels_per_sec\": %.1f,\n"
                 "    \"swsc_fused_speedup\": %.2f,\n"
                 "    \"reram_alloc_pixels_per_sec\": %.1f,\n"
                 "    \"reram_fused_pixels_per_sec\": %.1f,\n"
                 "    \"reram_fused_speedup\": %.2f,\n"
                 "    \"swsc_bit_identical\": %s,\n"
                 "    \"reram_bit_identical\": %s,\n"
                 "    \"swsc_zero_steady_state_growth\": %s,\n"
                 "    \"reram_zero_steady_state_growth\": %s\n"
                 "  }\n}\n",
                 al.swscAllocPps, al.swscFusedPps,
                 al.swscFusedPps / al.swscAllocPps, al.reramAllocPps,
                 al.reramFusedPps, al.reramFusedPps / al.reramAllocPps,
                 al.swscBitIdentical ? "true" : "false",
                 al.reramBitIdentical ? "true" : "false",
                 al.swscZeroSteadyGrowth ? "true" : "false",
                 al.reramZeroSteadyGrowth ? "true" : "false");
    std::fclose(f);
    std::puts("  wrote BENCH_throughput.json");
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace aimsc;
  const long sizeArg = argc > 1 ? std::atol(argv[1]) : 256;
  if (sizeArg < 1 || sizeArg > 1 << 14) {
    std::fprintf(stderr, "usage: bench_fig5_throughput [size in 1..16384]\n");
    return 1;
  }
  const auto size = static_cast<std::size_t>(sizeArg);

  std::puts(
      "Fig. 5: normalized throughput vs binary CIM (reference = 1.0)\n");

  const apps::AppKind appList[] = {apps::AppKind::Compositing,
                                   apps::AppKind::Bilinear,
                                   apps::AppKind::Matting};
  const std::size_t lengths[] = {32, 64, 128, 256};

  double avgReram = 0;
  double avgCmos = 0;
  int cells = 0;

  for (const auto app : appList) {
    const energy::AppProfile profile = apps::profileFor(app);
    std::printf("-- %s (binary CIM: %.1f Melem/s) --\n", profile.name.c_str(),
                energy::evaluateSystem(energy::Design::BinaryCim, profile, 256)
                        .throughputElemsPerSec /
                    1e6);
    energy::Table t({"Design", "N=32", "N=64", "N=128", "N=256"});
    for (const auto design :
         {energy::Design::CmosScLfsr, energy::Design::ReramSc}) {
      std::vector<std::string> row{energy::designName(design)};
      for (const std::size_t n : lengths) {
        const double s = energy::throughputImprovement(design, profile, n);
        row.push_back(energy::fmt(s, 2));
        if (design == energy::Design::ReramSc) {
          avgReram += s;
        } else {
          avgCmos += s;
        }
      }
      t.addRow(row);
    }
    std::fputs(t.toString().c_str(), stdout);
    cells += 4;
  }

  avgReram /= cells;
  avgCmos /= cells;
  std::printf(
      "\nAverage throughput vs binary CIM: ReRAM-SC %.2fx, CMOS-SC %.2fx"
      "\n=> ReRAM-SC vs binary CIM: %.2fx (paper: 2.16x); vs CMOS-SC: %.2fx"
      " (paper: 1.39x)\n",
      avgReram, avgCmos, avgReram, avgReram / avgCmos);

  measuredSweep(size);
  return 0;
}
