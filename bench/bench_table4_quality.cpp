// Reproduces paper Table IV: SSIM(%) / PSNR(dB) of the three image
// applications, fault-free (x) and under CIM faults (v), comparing the
// binary CIM baseline [35] against ReRAM-SC at N in {32, 64, 128, 256} —
// plus the vocabulary-extension workloads (Bernstein gamma, morphological
// opening) across ALL designs, with the bit-identity contracts of the
// promoted ops checked and emitted as a machine-readable "vocab" block in
// BENCH_quality.json (asserted by the CI bench smoke).
//
// Fault rates derive from the VCM-style device distributions (HRS
// instability corner, reram/fault_model.*), configured through the unified
// FaultPlan contract (device-variability class only — the Table IV
// protocol); faulty numbers are averaged over `runs` seeds (paper: 1000
// runs; default here 3 for runtime — pass a higher count to tighten).
//
// Usage: bench_table4_quality [runs] [imageSize] [design]
//   design (optional): restrict the vocab table to one execution substrate
//   (any spelling parseDesignKind accepts, e.g. "swsc-simd", "ReRAM-SC").
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <vector>

#include "apps/runner.hpp"
#include "core/backend_reram.hpp"
#include "core/backend_swsc.hpp"
#include "energy/report.hpp"
#include "img/synth.hpp"
#include "reliability/fault_plan.hpp"
#include "sc/bernstein.hpp"

namespace {

using namespace aimsc;

struct Cell {
  double ssim = 0;
  double psnr = 0;
};

std::string fmtCell(const Cell& c) {
  return energy::fmt(c.ssim, 1) + "/" + energy::fmt(c.psnr, 1);
}

template <typename RunFn>
Cell averaged(RunFn&& run, int runs) {
  Cell acc;
  for (int r = 0; r < runs; ++r) {
    const apps::Quality q = run(r);
    acc.ssim += q.ssimPct;
    acc.psnr += q.psnrDb;
  }
  acc.ssim /= runs;
  acc.psnr /= runs;
  return acc;
}

/// Bit-identity contracts of the promoted vocabulary, checked on small
/// scenes: the SW-SC engine at its widest SIMD path vs the same engine at
/// `SimdMode::Portable` per op and per kernel (the independent per-bit
/// check lives in tests/test_backend_simd.cpp), and the fused
/// (arena + *Into) gamma kernel vs a verbatim allocating per-pixel loop on
/// an identically seeded ReRAM accelerator.
struct VocabIdentity {
  bool simdMinimum = false;
  bool simdMaximum = false;
  bool simdAddApprox = false;
  bool simdBernstein = false;
  bool simdGamma = false;
  bool simdMorphology = false;
  bool reramGammaFused = false;
};


VocabIdentity checkVocabIdentity() {
  VocabIdentity id;
  core::SwScConfig swCfg;
  swCfg.streamLength = 256;
  swCfg.simd = sc::SimdMode::Portable;
  core::SwScBackend scalar(swCfg);
  core::SwScConfig simdCfg = swCfg;
  simdCfg.simd = sc::SimdMode::Auto;
  core::SwScBackend simd(simdCfg);

  // One correlated pair + one independent pair per engine, same epochs.
  const auto sx = scalar.encodePixels(std::vector<std::uint8_t>{200});
  const auto sy = scalar.encodePixelsCorrelated(std::vector<std::uint8_t>{80});
  const auto vx = simd.encodePixels(std::vector<std::uint8_t>{200});
  const auto vy = simd.encodePixelsCorrelated(std::vector<std::uint8_t>{80});
  id.simdMinimum =
      scalar.minimum(sx[0], sy[0]).stream == simd.minimum(vx[0], vy[0]).stream;
  id.simdMaximum =
      scalar.maximum(sx[0], sy[0]).stream == simd.maximum(vx[0], vy[0]).stream;
  const core::ScValue sa = scalar.encodePixel(70);
  const core::ScValue sb = scalar.encodePixel(90);
  const core::ScValue va = simd.encodePixel(70);
  const core::ScValue vb = simd.encodePixel(90);
  id.simdAddApprox =
      scalar.addApprox(sa, sb).stream == simd.addApprox(va, vb).stream;

  const std::vector<double> bern{0.0, 0.2, 0.6, 1.0};
  const auto sCopies = scalar.encodeCopies(140, 3);
  const auto vCopies = simd.encodeCopies(140, 3);
  std::vector<core::ScValue> sCoeffs;
  std::vector<core::ScValue> vCoeffs;
  for (const double bk : bern) {
    sCoeffs.push_back(scalar.encodeProb(bk));
    vCoeffs.push_back(simd.encodeProb(bk));
  }
  id.simdBernstein = scalar.bernsteinSelect(sCopies, sCoeffs).stream ==
                     simd.bernsteinSelect(vCopies, vCoeffs).stream;

  const img::Image scene = img::naturalScene(12, 10, 17);
  {
    core::SwScBackend s2(swCfg);
    core::SwScBackend v2(simdCfg);
    id.simdGamma = apps::gammaKernel(scene, 2.2, s2, 4).pixels() ==
                   apps::gammaKernel(scene, 2.2, v2, 4).pixels();
  }
  {
    core::SwScBackend s2(swCfg);
    core::SwScBackend v2(simdCfg);
    id.simdMorphology = apps::openKernel(scene, s2).pixels() ==
                        apps::openKernel(scene, v2).pixels();
  }
  {
    // Verbatim allocating per-pixel gamma loop (the pre-arena call
    // sequence) vs the fused kernel on an identically seeded mat.
    core::AcceleratorConfig ac;
    ac.streamLength = 256;
    ac.device = reram::DeviceParams::ideal();
    core::Accelerator allocAcc(ac);
    const int degree = 4;
    const std::vector<double> bern44 = sc::bernsteinCoefficientsOf(
        [](double t) { return std::pow(t, 2.2); }, degree);
    img::Image allocOut(scene.width(), scene.height());
    for (std::size_t i = 0; i < allocOut.size(); ++i) {
      std::vector<sc::Bitstream> xCopies;
      for (int j = 0; j < degree; ++j) {
        xCopies.push_back(allocAcc.encodePixel(scene[i]));
      }
      std::vector<sc::Bitstream> coeffs;
      for (const double bk : bern44) coeffs.push_back(allocAcc.encodeProb(bk));
      allocOut[i] =
          allocAcc.decodePixel(allocAcc.ops().bernsteinSelect(xCopies, coeffs));
    }
    core::Accelerator kernelAcc(ac);
    core::ReramScBackend backend(kernelAcc);
    id.reramGammaFused =
        apps::gammaKernel(scene, 2.2, backend, degree).pixels() ==
        allocOut.pixels();
  }
  return id;
}

}  // namespace

int main(int argc, char** argv) {
  const int runs = argc > 1 ? std::atoi(argv[1]) : 3;
  const std::size_t size = argc > 2 ? static_cast<std::size_t>(std::atoi(argv[2])) : 48;
  bool designFilterSet = false;
  apps::DesignKind designFilter = apps::DesignKind::ReramSc;
  if (argc > 3) {
    try {
      designFilter = core::parseDesignKind(argv[3]);
      designFilterSet = true;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 1;
    }
  }

  std::printf(
      "Table IV: SSIM(%%)/PSNR(dB), fault-free (x) vs CIM faults (v)\n"
      "(%d fault runs, %zux%zu synthetic scenes; paper: 1000 runs on natural"
      " images)\n\n",
      runs, size, size);

  const apps::AppKind appList[] = {apps::AppKind::Compositing,
                                   apps::AppKind::Bilinear,
                                   apps::AppKind::Matting};

  energy::Table table({"Design", "Compositing x", "Compositing v",
                       "Bilinear x", "Bilinear v", "Matting x", "Matting v"});

  auto makeCfg = [&](std::size_t n, bool faults, std::uint64_t seed) {
    apps::RunConfig cfg;
    cfg.width = size;
    cfg.height = size;
    cfg.streamLength = n;
    if (faults) {
      cfg.faults =
          reliability::FaultPlan::deviceOnly(apps::defaultFaultyDevice());
    }
    cfg.seed = 42 + seed * 1000003;
    return cfg;
  };

  // Binary CIM reference row (N-independent).
  {
    std::vector<std::string> row{"Binary CIM [35]"};
    for (const auto app : appList) {
      const Cell clean = averaged(
          [&](int r) {
            return apps::runApp(app, apps::DesignKind::BinaryCim,
                                 makeCfg(256, false, r));
          },
          1);  // deterministic when fault-free
      const Cell faulty = averaged(
          [&](int r) { return apps::runApp(app, apps::DesignKind::BinaryCim,
                               makeCfg(256, true, r)); },
          runs);
      row.push_back(fmtCell(clean));
      row.push_back(fmtCell(faulty));
    }
    table.addRow(row);
    table.addRule();
  }

  // ReRAM-SC rows across stream lengths.
  for (const std::size_t n : {32u, 64u, 128u, 256u}) {
    std::vector<std::string> row{"ReRAM-SC N=" + std::to_string(n)};
    for (const auto app : appList) {
      const Cell clean = averaged(
          [&](int r) { return apps::runApp(app, apps::DesignKind::ReramSc,
                               makeCfg(n, false, r)); },
          runs);
      const Cell faulty = averaged(
          [&](int r) { return apps::runApp(app, apps::DesignKind::ReramSc,
                               makeCfg(n, true, r)); },
          runs);
      row.push_back(fmtCell(clean));
      row.push_back(fmtCell(faulty));
    }
    table.addRow(row);
  }
  std::fputs(table.toString().c_str(), stdout);

  // --- vocabulary extension: gamma + morphology across ALL designs ---------
  // The promoted ops (minimum/maximum/addApprox/bernsteinSelect) unlock the
  // two workloads on every substrate; N = 256 for the stream designs.
  const apps::DesignKind vocabDesigns[] = {
      apps::DesignKind::SwScLfsr, apps::DesignKind::SwScSobol,
      apps::DesignKind::SwScSimd, apps::DesignKind::ReramSc,
      apps::DesignKind::BinaryCim};
  const apps::AppKind vocabApps[] = {apps::AppKind::Gamma,
                                     apps::AppKind::Morphology};
  struct VocabRow {
    apps::DesignKind design;
    Cell cells[4];  // gamma x/v, morphology x/v
  };
  std::vector<VocabRow> vocabRows;
  std::printf("\nVocabulary extension (Bernstein gamma 2.2, 3x3 opening):\n");
  energy::Table vt({"Design", "Gamma x", "Gamma v", "Morphology x",
                    "Morphology v"});
  for (const auto design : vocabDesigns) {
    if (designFilterSet && design != designFilter) continue;
    VocabRow vr{design, {}};
    std::vector<std::string> row{core::designKindName(design)};
    int cell = 0;
    for (const auto app : vocabApps) {
      for (const bool faults : {false, true}) {
        vr.cells[cell] = averaged(
            [&](int r) {
              return apps::runApp(app, design, makeCfg(256, faults, r));
            },
            faults ? runs : 1);
        row.push_back(fmtCell(vr.cells[cell]));
        ++cell;
      }
    }
    vt.addRow(row);
    vocabRows.push_back(vr);
  }
  std::fputs(vt.toString().c_str(), stdout);

  const VocabIdentity vid = checkVocabIdentity();
  std::printf(
      "bit-identity: SW-SC SIMD==portable min %s max %s addApprox %s "
      "bernstein %s gamma %s morphology %s; ReRAM fused gamma %s\n",
      vid.simdMinimum ? "yes" : "NO", vid.simdMaximum ? "yes" : "NO",
      vid.simdAddApprox ? "yes" : "NO", vid.simdBernstein ? "yes" : "NO",
      vid.simdGamma ? "yes" : "NO", vid.simdMorphology ? "yes" : "NO",
      vid.reramGammaFused ? "yes" : "NO");

  // Machine-readable block for CI (see docs/BENCHMARKS.md).
  if (FILE* f = std::fopen("BENCH_quality.json", "w")) {
    const auto b = [](bool v) { return v ? "true" : "false"; };
    std::fprintf(f,
                 "{\n"
                 "  \"runs\": %d,\n"
                 "  \"width\": %zu,\n"
                 "  \"height\": %zu,\n"
                 "  \"vocab\": {\n"
                 "    \"simd_minimum_bit_identical\": %s,\n"
                 "    \"simd_maximum_bit_identical\": %s,\n"
                 "    \"simd_add_approx_bit_identical\": %s,\n"
                 "    \"simd_bernstein_bit_identical\": %s,\n"
                 "    \"simd_gamma_bit_identical\": %s,\n"
                 "    \"simd_morphology_bit_identical\": %s,\n"
                 "    \"reram_gamma_fused_bit_identical\": %s,\n"
                 "    \"quality\": [\n",
                 runs, size, size, b(vid.simdMinimum), b(vid.simdMaximum),
                 b(vid.simdAddApprox), b(vid.simdBernstein), b(vid.simdGamma),
                 b(vid.simdMorphology), b(vid.reramGammaFused));
    for (std::size_t i = 0; i < vocabRows.size(); ++i) {
      const VocabRow& vr = vocabRows[i];
      std::fprintf(
          f,
          "      {\"design\": \"%s\", \"gamma_ssim\": %.2f, "
          "\"gamma_ssim_faulty\": %.2f, \"morphology_ssim\": %.2f, "
          "\"morphology_ssim_faulty\": %.2f}%s\n",
          core::designKindName(vr.design), vr.cells[0].ssim, vr.cells[1].ssim,
          vr.cells[2].ssim, vr.cells[3].ssim,
          i + 1 < vocabRows.size() ? "," : "");
    }
    std::fprintf(f,
                 "    ]\n"
                 "  }\n"
                 "}\n");
    std::fclose(f);
    std::puts("wrote BENCH_quality.json");
  }

  // Headline statistic: average quality drop under faults.
  double scDrop = 0;
  double binDrop = 0;
  int cells = 0;
  for (const auto app : appList) {
    const Cell bc = averaged(
        [&](int r) { return apps::runApp(app, apps::DesignKind::BinaryCim,
                                 makeCfg(256, false, r)); }, 1);
    const Cell bf = averaged(
        [&](int r) { return apps::runApp(app, apps::DesignKind::BinaryCim,
                               makeCfg(256, true, r)); },
        runs);
    binDrop += (bc.ssim - bf.ssim) / std::max(bc.ssim, 1.0) * 100.0;
    const Cell sc = averaged(
        [&](int r) { return apps::runApp(app, apps::DesignKind::ReramSc,
                             makeCfg(128, false, r)); },
        runs);
    const Cell sf = averaged(
        [&](int r) { return apps::runApp(app, apps::DesignKind::ReramSc,
                             makeCfg(128, true, r)); },
        runs);
    scDrop += (sc.ssim - sf.ssim) / std::max(sc.ssim, 1.0) * 100.0;
    ++cells;
  }
  std::printf(
      "\nAverage relative SSIM drop under CIM faults: ReRAM-SC %.1f%%, "
      "binary CIM %.1f%%\n(paper: ~5%% vs ~47%%, with matting the binary"
      " worst case)\n",
      scDrop / cells, binDrop / cells);
  return 0;
}
