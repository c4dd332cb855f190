// Image compositing on the in-memory SC accelerator (paper Fig. 3a).
// Writes background / foreground / alpha / composite PGMs to ./out_compositing_*.pgm
// so the results can be inspected with any image viewer.
//
// Usage: image_compositing [N] [size]
#include <cstdio>
#include <cstdlib>

#include "apps/compositing.hpp"
#include "apps/runner.hpp"
#include "core/backend_reram.hpp"
#include "core/backend_swsc.hpp"
#include "img/metrics.hpp"
#include "img/pgm.hpp"

int main(int argc, char** argv) {
  using namespace aimsc;

  const std::size_t n = argc > 1 ? static_cast<std::size_t>(std::atoi(argv[1])) : 128;
  const std::size_t size = argc > 2 ? static_cast<std::size_t>(std::atoi(argv[2])) : 96;

  const apps::CompositingScene scene = apps::makeCompositingScene(size, size, 7);
  const img::Image ref = apps::compositeReference(scene);

  core::AcceleratorConfig cfg;
  cfg.streamLength = n;
  core::ReramScBackend backend(cfg);  // one kernel, pluggable substrate
  const img::Image out = apps::compositeKernel(scene, backend);

  std::printf("Image compositing, %zux%zu, N = %zu\n", size, size, n);
  std::printf("SSIM  vs reference: %.2f %%\n", img::ssim(out, ref) * 100.0);
  std::printf("PSNR  vs reference: %.2f dB\n", img::psnrDb(out, ref));

  const auto ev = backend.events();
  std::printf("memory events: %llu SL reads, %llu row writes, %llu ADC convs\n",
              static_cast<unsigned long long>(ev.slReads),
              static_cast<unsigned long long>(ev.rowWrites),
              static_cast<unsigned long long>(ev.adcConversions));

  // The same kernel on the software-SC substrate: the widest SIMD path
  // reproduces the portable uint64 path of the CMOS baseline bit for bit.
  core::SwScConfig swCfg;
  swCfg.streamLength = n;
  swCfg.simd = sc::SimdMode::Portable;
  core::SwScBackend portableSw(swCfg);
  swCfg.simd = sc::SimdMode::Auto;
  core::SwScBackend simdSw(swCfg);
  const img::Image swOut = apps::compositeKernel(scene, portableSw);
  const img::Image simdOut = apps::compositeKernel(scene, simdSw);
  std::printf("SW-SC (LFSR) PSNR vs reference: %.2f dB; %s path %s\n",
              img::psnrDb(swOut, ref),
              sc::simdModeName(sc::resolveSimd(sc::SimdMode::Auto)),
              simdOut.pixels() == swOut.pixels() ? "bit-identical to portable"
                                                 : "DIVERGED (bug)");

  img::writePgm("out_compositing_background.pgm", scene.background);
  img::writePgm("out_compositing_foreground.pgm", scene.foreground);
  img::writePgm("out_compositing_alpha.pgm", scene.alpha);
  img::writePgm("out_compositing_reference.pgm", ref);
  img::writePgm("out_compositing_sc.pgm", out);
  std::puts("wrote out_compositing_*.pgm");
  return 0;
}
