// StreamArena unit tests plus the allocation-count regression suite: a
// global operator-new counter proves the fused tiled hot path performs ZERO
// heap allocations per row once the arena and backend scratch are warm, on
// both the SW-SC and ReRAM substrates, and that a cold fault-table build
// allocates nothing; arena-reset determinism pins the tile engine's ledger
// reproducibility.
#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <tuple>
#include <vector>

#include "apps/app_spec.hpp"
#include "apps/compositing.hpp"
#include "apps/filters.hpp"
#include "apps/runner.hpp"
#include "core/backend_bincim.hpp"
#include "core/backend_reram.hpp"
#include "core/backend_swsc.hpp"
#include "core/stream_arena.hpp"
#include "core/tile_executor.hpp"
#include "img/synth.hpp"
#include "reram/fault_model.hpp"

// --- global allocation counter ----------------------------------------------
// Replacing operator new is the strongest available hook: it counts every
// heap allocation in the process, not just the arena's own bookkeeping.

namespace {
std::atomic<std::uint64_t> gAllocCount{0};
}  // namespace

void* operator new(std::size_t size) {
  ++gAllocCount;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  ++gAllocCount;
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t& t) noexcept {
  return ::operator new(size, t);
}
void* operator new(std::size_t size, std::align_val_t align) {
  ++gAllocCount;
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(align),
                                   (size + static_cast<std::size_t>(align) - 1) &
                                       ~(static_cast<std::size_t>(align) - 1))) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace aimsc::core {
namespace {

// --- arena unit tests -------------------------------------------------------

TEST(StreamArena, HandlesAreStableAndResetReusesThem) {
  StreamArena arena;
  ScValue& v0 = arena.value();
  std::vector<ScValue>& b0 = arena.batch(5);
  std::vector<std::uint8_t>& r0 = arena.bytes(7);
  EXPECT_EQ(b0.size(), 5u);
  EXPECT_EQ(r0.size(), 7u);
  // Later acquisitions must not invalidate earlier handles.
  ScValue& v1 = arena.value();
  EXPECT_NE(&v0, &v1);
  std::vector<ScValue>& b1 = arena.batch(3);
  EXPECT_NE(&b0, &b1);
  EXPECT_EQ(b0.size(), 5u);

  const std::uint64_t grown = arena.stats().growthEvents();
  EXPECT_GT(grown, 0u);

  // After reset the SAME objects come back in acquisition order, and the
  // steady state grows nothing.
  arena.reset();
  EXPECT_EQ(&arena.value(), &v0);
  EXPECT_EQ(&arena.batch(5), &b0);
  EXPECT_EQ(&arena.bytes(7), &r0);
  EXPECT_EQ(&arena.value(), &v1);
  EXPECT_EQ(&arena.batch(3), &b1);
  EXPECT_EQ(arena.stats().growthEvents(), grown);
  EXPECT_EQ(arena.stats().resets, 1u);
}

TEST(StreamArena, GrowthCountersTrackPoolGrowthOnly) {
  StreamArena arena;
  arena.batch(4);
  const std::uint64_t after = arena.stats().growthEvents();
  arena.reset();
  arena.batch(4);  // same capacity: no growth
  EXPECT_EQ(arena.stats().growthEvents(), after);
  arena.reset();
  arena.batch(9);  // capacity grows: counted
  EXPECT_GT(arena.stats().growthEvents(), after);
}

// --- zero-allocation regression ---------------------------------------------

/// Runs \p rows steady-state compositing rows through the fused kernel on a
/// warm arena and returns the number of heap allocations they performed.
std::uint64_t steadyStateAllocs(ScBackend& b, StreamArena& arena,
                                const apps::CompositingScene& scene,
                                img::Image& out) {
  // Warm-up tile: rows [0, 2) populate the arena pools, the backend
  // scratch, the constant pools and the IMSNG memo tables.
  apps::compositeKernelRows(scene, b, arena, out, 0, 2);
  arena.reset();  // tile boundary
  const std::uint64_t before = gAllocCount.load();
  apps::compositeKernelRows(scene, b, arena, out, 2, 6);
  return gAllocCount.load() - before;
}

TEST(AllocationRegression, SwScCompositingRowsAreAllocationFree) {
  // Every SNG family.  Compositing opens two fresh epochs per row, so the
  // 78-row measured tile opens 156 epochs and crosses several epoch-block
  // refills (16 SFMT epochs, 32 or 64 LFSR epochs per block).
  const apps::CompositingScene scene = apps::makeCompositingScene(24, 80, 11);
  for (const SwScSng sng : {SwScSng::Lfsr, SwScSng::Sobol, SwScSng::Sfmt}) {
    SwScConfig cfg;
    cfg.streamLength = 256;
    cfg.sng = sng;
    SwScBackend b(cfg);
    StreamArena arena;
    img::Image out(24, 80);
    apps::compositeKernelRows(scene, b, arena, out, 0, 2);  // warm-up
    arena.reset();
    const std::uint64_t before = gAllocCount.load();
    apps::compositeKernelRows(scene, b, arena, out, 2, 80);
    EXPECT_EQ(gAllocCount.load() - before, 0u) << swScSngName(sng);
    EXPECT_EQ(arena.stats().resets, 1u);
  }
}

TEST(AllocationRegression, ReramCompositingRowsAreAllocationFree) {
  const apps::CompositingScene scene = apps::makeCompositingScene(24, 8, 13);
  AcceleratorConfig ac;
  ac.streamLength = 256;
  ac.device = reram::DeviceParams::ideal();
  ReramScBackend b(ac);
  StreamArena arena;
  img::Image out(24, 8);
  EXPECT_EQ(steadyStateAllocs(b, arena, scene, out), 0u);
}

TEST(AllocationRegression, FaultyReramCompositingRowsAreAllocationFree) {
  // Probabilistic sensing on the Table IV device corner, misdecision table
  // prebuilt: the IMSNG dataflow, the pattern masks and the flip draws all
  // run on member scratch, and table reads take no lock and allocate nothing.
  AcceleratorConfig ac;
  ac.streamLength = 256;
  ac.device = apps::defaultFaultyDevice();
  ac.deviceVariability = true;
  const reram::FaultModel table(ac.device, 0xf417, 4000);
  for (const auto op : {reram::SlOp::And, reram::SlOp::Nand, reram::SlOp::Or,
                        reram::SlOp::Nor, reram::SlOp::Xor, reram::SlOp::Xnor,
                        reram::SlOp::Maj3, reram::SlOp::Not}) {
    for (int rows = 1; rows <= 3; ++rows) table.worstCase(op, rows);
  }
  // The provider hands out the prebuilt table without owning it.
  ac.faultModelProvider = [&table](const reram::DeviceParams&, std::uint64_t,
                                   std::size_t) {
    return std::shared_ptr<const reram::FaultModel>(std::shared_ptr<void>(),
                                                    &table);
  };
  const apps::CompositingScene scene = apps::makeCompositingScene(24, 8, 17);
  ReramScBackend b(ac);
  StreamArena arena;
  img::Image out(24, 8);
  EXPECT_EQ(steadyStateAllocs(b, arena, scene, out), 0u);
}

TEST(AllocationRegression, BinaryCimFilterRowsAreAllocationFree) {
  // Fault-free MAGIC arithmetic runs in closed form on plain integers.
  const img::Image src = img::naturalScene(20, 10, 5);
  BinaryCimBackend b{BinaryCimConfig{}};
  StreamArena arena;
  img::Image smoothed = src;
  img::Image edges(20, 10);
  apps::smoothKernelRows(src, b, arena, smoothed, 0, 3);  // warm-up
  arena.reset();
  apps::edgeKernelRows(src, b, arena, edges, 0, 3);
  arena.reset();
  const std::uint64_t before = gAllocCount.load();
  apps::smoothKernelRows(src, b, arena, smoothed, 3, 8);
  arena.reset();
  apps::edgeKernelRows(src, b, arena, edges, 3, 8);
  EXPECT_EQ(gAllocCount.load() - before, 0u);
  EXPECT_GT(b.opCount(), 0u);
}

TEST(AllocationRegression, SwScSmoothingRowsAreAllocationFree) {
  // Exercises the constant pool (seven pooled halves per row) besides the
  // data path.
  const img::Image src = img::naturalScene(20, 10, 3);
  SwScConfig cfg;
  cfg.streamLength = 256;
  SwScBackend b(cfg);
  StreamArena arena;
  img::Image out = src;
  apps::smoothKernelRows(src, b, arena, out, 0, 3);  // warm-up
  arena.reset();
  const std::uint64_t before = gAllocCount.load();
  apps::smoothKernelRows(src, b, arena, out, 3, 8);
  EXPECT_EQ(gAllocCount.load() - before, 0u);
}

// --- the app table's stage kernels -------------------------------------------

using AppDesign = std::tuple<apps::AppKind, DesignKind>;

std::vector<AppDesign> appStageCases() {
  std::vector<AppDesign> cases;
  for (std::size_t a = 0; a < apps::kAppCount; ++a) {
    for (const DesignKind d : {DesignKind::SwScLfsr, DesignKind::SwScSimd,
                               DesignKind::BinaryCim, DesignKind::ReramSc}) {
      cases.emplace_back(static_cast<apps::AppKind>(a), d);
    }
  }
  return cases;
}

class AppStageRows : public ::testing::TestWithParam<AppDesign> {};

TEST_P(AppStageRows, AllocationFreeAfterWarmupTile) {
  // Every stage of the row, bound exactly as the lane fleets bind it: a
  // warm-up tile populates the arena and the backend scratch, then a second
  // tile of the same stage must not touch the heap.
  const auto [app, design] = GetParam();
  const apps::AppSpec& spec = apps::appSpec(app);
  const apps::AppScene scene = spec.synthesize(12, 10, 21);
  BackendFactoryConfig bc;
  bc.streamLength = 128;
  const auto b = makeBackend(design, bc);
  apps::StageRunner run(spec, scene.inputs(2.2, 2));
  for (std::size_t s = 0; s < run.stages(); ++s) {
    const apps::StageKernel kernel = run.stage(s);
    StreamArena arena;
    kernel(*b, arena, 0, 2);
    arena.reset();
    const std::uint64_t before = gAllocCount.load();
    kernel(*b, arena, 2, 4);
    EXPECT_EQ(gAllocCount.load() - before, 0u) << "stage " << s;
  }
  EXPECT_TRUE(b->opCount() > 0 || b->events() != reram::EventCounts{});
}

INSTANTIATE_TEST_SUITE_P(
    AllocationRegression, AppStageRows, ::testing::ValuesIn(appStageCases()),
    [](const ::testing::TestParamInfo<AppDesign>& info) {
      std::string name = apps::appSpec(std::get<0>(info.param)).alias;
      name += std::string("_") + designKindName(std::get<1>(info.param));
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

TEST(AllocationRegression, ColdFaultTableBuildsAreAllocationFree) {
  // Building every 1..3-row misdecision entry cold: the Monte-Carlo
  // kernel's scratch is a fixed stack block and the slot table is inline.
  const reram::FaultModel table(apps::defaultFaultyDevice(), 0xc01d, 3000);
  const std::uint64_t before = gAllocCount.load();
  for (const auto op : {reram::SlOp::And, reram::SlOp::Nand, reram::SlOp::Or,
                        reram::SlOp::Nor, reram::SlOp::Xor, reram::SlOp::Xnor,
                        reram::SlOp::Maj3, reram::SlOp::Not}) {
    for (int rows = 1; rows <= 3; ++rows) table.worstCase(op, rows);
  }
  EXPECT_EQ(gAllocCount.load() - before, 0u);
}

// --- arena-reset determinism ------------------------------------------------

TEST(ArenaDeterminism, SameSeedTwoTiledRunsIdenticalPixelsAndLedgers) {
  const apps::CompositingScene scene = apps::makeCompositingScene(20, 14, 7);
  TileExecutorConfig cfg;
  cfg.lanes = 3;
  cfg.threads = 2;
  cfg.rowsPerTile = 2;
  cfg.mat.streamLength = 128;
  cfg.mat.device = reram::DeviceParams::ideal();

  TileExecutor first(cfg);
  TileExecutor second(cfg);
  const apps::AppInputs in{scene.background, scene.foreground, scene.alpha};
  const img::Image a = apps::runStages(apps::AppKind::Compositing, in, first);
  const img::Image b = apps::runStages(apps::AppKind::Compositing, in, second);
  EXPECT_EQ(a.pixels(), b.pixels());
  EXPECT_EQ(first.totalEvents(), second.totalEvents());
}

TEST(ArenaDeterminism, TileResetMatchesFreshArenaBits) {
  // A lane arena reused (reset) across tiles must produce the same bits as
  // a fresh arena per tile: arena state carries capacity, never values.
  const apps::CompositingScene scene = apps::makeCompositingScene(16, 8, 9);
  SwScConfig cfg;
  cfg.streamLength = 128;

  SwScBackend reusedBackend(cfg);
  StreamArena reused;
  img::Image outReused(16, 8);
  for (std::size_t t = 0; t < 4; ++t) {
    reused.reset();
    apps::compositeKernelRows(scene, reusedBackend, reused, outReused, 2 * t,
                              2 * t + 2);
  }

  SwScBackend freshBackend(cfg);
  img::Image outFresh(16, 8);
  for (std::size_t t = 0; t < 4; ++t) {
    StreamArena fresh;
    apps::compositeKernelRows(scene, freshBackend, fresh, outFresh, 2 * t,
                              2 * t + 2);
  }
  EXPECT_EQ(outReused.pixels(), outFresh.pixels());
}

}  // namespace
}  // namespace aimsc::core
