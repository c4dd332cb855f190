// google-benchmark micro suite: simulator kernel throughput (not a paper
// artifact — useful for keeping the simulator itself fast).
#include <benchmark/benchmark.h>

#include "apps/runner.hpp"
#include "bincim/aritpim.hpp"
#include "core/accelerator.hpp"
#include "reram/fault_model.hpp"
#include "sc/cordiv.hpp"
#include "sc/correlation.hpp"
#include "sc/ops.hpp"
#include "sc/rng.hpp"
#include "sc/sng.hpp"

namespace {

using namespace aimsc;

void BM_BitstreamAnd(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  sc::Mt19937Source src(1);
  const sc::Bitstream a = sc::generateSbsFromProb(src, 0.5, 8, n);
  const sc::Bitstream b = sc::generateSbsFromProb(src, 0.5, 8, n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a & b);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_BitstreamAnd)->Arg(256)->Arg(4096);

void BM_GenerateSbs(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  sc::Mt19937Source src(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sc::generateSbsFromProb(src, 0.37, 8, n));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_GenerateSbs)->Arg(256)->Arg(4096);

void BM_SobolSbs(benchmark::State& state) {
  sc::Sobol src(0, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sc::generateSbsFromProb(src, 0.37, 8, 256));
  }
}
BENCHMARK(BM_SobolSbs);

void BM_ImsngConversion(benchmark::State& state) {
  core::AcceleratorConfig cfg;
  cfg.streamLength = static_cast<std::size_t>(state.range(0));
  cfg.device = reram::DeviceParams::ideal();
  core::Accelerator acc(cfg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(acc.encodeProb(0.42));
  }
}
BENCHMARK(BM_ImsngConversion)->Arg(256)->Arg(1024);

void BM_ImsngConversionFaulty(benchmark::State& state) {
  core::AcceleratorConfig cfg;
  cfg.streamLength = 256;
  cfg.deviceVariability = true;
  cfg.device.sigmaLrs = 0.12;
  cfg.device.sigmaHrs = 1.1;
  cfg.faultModelSamples = 20000;
  core::Accelerator acc(cfg);
  acc.encodeProb(0.5);  // warm the fault-table cache
  for (auto _ : state) {
    benchmark::DoNotOptimize(acc.encodeProb(0.42));
  }
}
BENCHMARK(BM_ImsngConversionFaulty);

/// One cold misdecision-table entry on the Table IV corner: an OR over
/// `rows` all-HRS cells at the deviceOnly sample count, on a fresh model
/// every iteration.  Items are Monte-Carlo samples.
void BM_FaultModelColdEntry(benchmark::State& state) {
  const int rows = static_cast<int>(state.range(0));
  constexpr std::size_t kSamples = 40000;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    const reram::FaultModel model(apps::defaultFaultyDevice(), seed++, kSamples);
    benchmark::DoNotOptimize(model.misdecisionProb(reram::SlOp::Or, 0, rows));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(kSamples));
}
BENCHMARK(BM_FaultModelColdEntry)->DenseRange(1, 3);

void BM_Cordiv(benchmark::State& state) {
  sc::Mt19937Source src(3);
  const auto [x, y] = sc::makeCorrelatedPair(src, 0.3, 0.6, 8, 4096);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sc::cordivDivide(x, y));
  }
}
BENCHMARK(BM_Cordiv);

void BM_AritPimMul8(benchmark::State& state) {
  bincim::MagicEngine engine;
  bincim::AritPim pim(engine);
  std::uint32_t a = 123;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pim.mul(a, 45, 8));
    a = (a * 7 + 1) & 0xff;
  }
}
BENCHMARK(BM_AritPimMul8);

void BM_EndToEndPixelMultiply(benchmark::State& state) {
  core::AcceleratorConfig cfg;
  cfg.streamLength = 256;
  cfg.device = reram::DeviceParams::ideal();
  core::Accelerator acc(cfg);
  for (auto _ : state) {
    const sc::Bitstream x = acc.encodeProb(0.4);
    const sc::Bitstream y = acc.encodeProb(0.7);
    benchmark::DoNotOptimize(acc.decodeProb(acc.ops().multiply(x, y)));
  }
}
BENCHMARK(BM_EndToEndPixelMultiply);

}  // namespace

BENCHMARK_MAIN();
