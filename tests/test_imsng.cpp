// IMSNG — the in-memory stochastic number generator (paper Sec. III-A).
#include <gtest/gtest.h>

#include "core/imsng.hpp"
#include "sc/correlation.hpp"

namespace aimsc::core {
namespace {

struct Rig {
  explicit Rig(std::size_t n = 256, const ImsngConfig& cfg = ImsngConfig{},
               const reram::DeviceParams& dev = reram::DeviceParams::ideal(),
               std::uint64_t seed = 1)
      : array(12, n, dev, seed),
        scouting(array),
        periphery(array),
        trng(seed ^ 0x7124),
        imsng(array, scouting, periphery, trng, withRows(cfg)) {}

  static ImsngConfig withRows(ImsngConfig cfg) {
    cfg.randomPlaneBase = 1;
    cfg.outputRow = 0;
    return cfg;
  }

  reram::CrossbarArray array;
  reram::ScoutingLogic scouting;
  reram::Periphery periphery;
  reram::ReramTrng trng;
  Imsng imsng;
};

TEST(Imsng, ThresholdZeroAndFull) {
  Rig rig;
  EXPECT_EQ(rig.imsng.generateThreshold(0).popcount(), 0u);
  EXPECT_EQ(rig.imsng.generateThreshold(256).popcount(), 256u);
  EXPECT_THROW(rig.imsng.generateThreshold(257), std::invalid_argument);
}

TEST(Imsng, MatchesSoftwareComparatorExactly) {
  // The in-memory greater-than over stored planes must equal a software
  // comparison against the very same random numbers.
  Rig rig;
  rig.imsng.refreshRandomness();
  // Reconstruct the per-column random numbers from the planes (MSB first).
  std::vector<std::uint32_t> rn(256, 0);
  for (int bit = 0; bit < 8; ++bit) {
    const auto& plane = rig.array.row(1 + static_cast<std::size_t>(bit));
    for (std::size_t c = 0; c < 256; ++c) {
      if (plane.get(c)) rn[c] |= 1u << (7 - bit);
    }
  }
  for (const std::uint32_t x : {1u, 50u, 128u, 200u, 255u}) {
    const sc::Bitstream s = rig.imsng.generateThreshold(x);
    for (std::size_t c = 0; c < 256; ++c) {
      EXPECT_EQ(s.get(c), x > rn[c]) << "x=" << x << " col=" << c;
    }
  }
}

TEST(Imsng, ValueTracksProbability) {
  Rig rig(2048);
  for (const double p : {0.1, 0.3, 0.5, 0.8, 0.95}) {
    rig.imsng.refreshRandomness();
    EXPECT_NEAR(rig.imsng.generateProb(p).value(), p, 0.05) << p;
  }
}

TEST(Imsng, SharedPlanesGiveMaximallyCorrelatedStreams) {
  Rig rig(1024);
  rig.imsng.refreshRandomness();
  const sc::Bitstream a = rig.imsng.generateProb(0.3);
  const sc::Bitstream b = rig.imsng.generateProb(0.7);
  EXPECT_NEAR(sc::scc(a, b), 1.0, 1e-9);
  EXPECT_EQ((a & ~b).popcount(), 0u);  // monotone containment
}

TEST(Imsng, RefreshedPlanesGiveIndependentStreams) {
  Rig rig(4096);
  rig.imsng.refreshRandomness();
  const sc::Bitstream a = rig.imsng.generateProb(0.5);
  rig.imsng.refreshRandomness();
  const sc::Bitstream b = rig.imsng.generateProb(0.5);
  EXPECT_LT(std::abs(sc::scc(a, b)), 0.1);
}

TEST(Imsng, CommitWritesOutputRow) {
  Rig rig;
  const sc::Bitstream s = rig.imsng.generateProb(0.5);
  EXPECT_EQ(rig.array.row(0), s);
}

TEST(Imsng, OptVariantChargesGenericReadsNoIntermediateWrites) {
  ImsngConfig cfg;
  cfg.variant = ImsngConfig::Variant::Opt;
  Rig rig(256, cfg);
  rig.imsng.refreshRandomness();
  rig.array.events().reset();
  rig.imsng.generateThreshold(100);
  const auto& ev = rig.array.events().counts();
  EXPECT_EQ(ev.slReads, 40u);    // 5 * M with M = 8 (paper parity)
  EXPECT_EQ(ev.rowWrites, 1u);   // only the final SBS commit
}

TEST(Imsng, NaiveVariantCharges2MWrites) {
  ImsngConfig cfg;
  cfg.variant = ImsngConfig::Variant::Naive;
  Rig rig(256, cfg);
  rig.imsng.refreshRandomness();
  rig.array.events().reset();
  rig.imsng.generateThreshold(100);
  const auto& ev = rig.array.events().counts();
  EXPECT_EQ(ev.slReads, 40u);
  EXPECT_EQ(ev.rowWrites, 1u + 16u);  // 2*M intermediate + final commit
}

TEST(Imsng, NaiveAndOptProduceIdenticalStreams) {
  ImsngConfig naive;
  naive.variant = ImsngConfig::Variant::Naive;
  ImsngConfig opt;
  opt.variant = ImsngConfig::Variant::Opt;
  Rig a(512, naive, reram::DeviceParams::ideal(), 77);
  Rig b(512, opt, reram::DeviceParams::ideal(), 77);
  a.imsng.refreshRandomness();
  b.imsng.refreshRandomness();
  for (const std::uint32_t x : {10u, 100u, 230u}) {
    EXPECT_EQ(a.imsng.generateThreshold(x), b.imsng.generateThreshold(x));
  }
}

TEST(Imsng, FoldedNetworkChargesFewerReads) {
  ImsngConfig cfg;
  cfg.foldedNetwork = true;
  Rig rig(256, cfg);
  rig.imsng.refreshRandomness();
  rig.array.events().reset();
  rig.imsng.generateThreshold(128);  // one A-bit set: cheapest fold
  EXPECT_LT(rig.array.events().counts().slReads, 40u);
}

TEST(Imsng, NoCommitOption) {
  ImsngConfig cfg;
  cfg.commitResult = false;
  Rig rig(256, cfg);
  rig.imsng.refreshRandomness();
  rig.array.events().reset();
  rig.imsng.generateThreshold(100);
  EXPECT_EQ(rig.array.events().counts().rowWrites, 0u);
}

TEST(Imsng, SegmentSizeSweep) {
  // Larger M = finer probability resolution: check the quantization floor.
  for (const int m : {5, 7, 9}) {
    ImsngConfig cfg;
    cfg.mBits = m;
    Rig rig(4096, cfg);
    rig.imsng.refreshRandomness();
    const double p = 0.37;
    const sc::Bitstream s = rig.imsng.generateProb(p);
    EXPECT_NEAR(s.value(), p, 0.05 + 1.0 / (1 << m)) << "M=" << m;
  }
}

TEST(Imsng, ConfigValidation) {
  reram::CrossbarArray arr(4, 64, reram::DeviceParams::ideal());
  reram::ScoutingLogic sl(arr);
  reram::Periphery per(arr);
  reram::ReramTrng trng(1);
  ImsngConfig bad;
  bad.mBits = 8;
  bad.randomPlaneBase = 0;
  bad.outputRow = 3;  // overlaps planes [0, 8)
  EXPECT_THROW(Imsng(arr, sl, per, trng, bad), std::invalid_argument);
  bad.randomPlaneBase = 1;  // planes would exceed 4 rows
  EXPECT_THROW(Imsng(arr, sl, per, trng, bad), std::invalid_argument);
  bad = ImsngConfig{};
  bad.mBits = 0;
  EXPECT_THROW(Imsng(arr, sl, per, trng, bad), std::invalid_argument);
}

TEST(Imsng, RobustUnderCimFaults) {
  // Paper contribution 3: SBS generation keeps working under substantial
  // CIM failures — value error grows but stays bounded.
  reram::DeviceParams p;
  p.sigmaLrs = 0.12;
  p.sigmaHrs = 1.1;
  reram::CrossbarArray arr(12, 4096, p, 5);
  reram::FaultModel fm(p, 6, 30000);
  reram::ScoutingLogic sl(arr, reram::ScoutingLogic::Fidelity::Probabilistic,
                          &fm, 7);
  reram::Periphery per(arr);
  reram::ReramTrng trng(8);
  ImsngConfig cfg = Rig::withRows(ImsngConfig{});
  Imsng imsng(arr, sl, per, trng, cfg);
  imsng.refreshRandomness();
  for (const double target : {0.2, 0.5, 0.8}) {
    EXPECT_NEAR(imsng.generateProb(target).value(), target, 0.1);
  }
}


TEST(Imsng, FaultyBatchMatchesPerThresholdConversions) {
  // Under probabilistic sensing the batch path runs the scouting dataflow
  // per element: twin rigs (same seeds) must agree on every stream, on the
  // event ledger and on the misdecision RNG state afterwards.
  reram::DeviceParams p;
  p.sigmaLrs = 0.12;
  p.sigmaHrs = 1.1;
  reram::FaultModel fm(p, 6, 4000);
  struct FaultyRig {
    FaultyRig(const reram::DeviceParams& dev, const reram::FaultModel& model)
        : array(12, 200, dev, 5),
          scouting(array, reram::ScoutingLogic::Fidelity::Probabilistic,
                   &model, 7),
          periphery(array),
          trng(8),
          imsng(array, scouting, periphery, trng, Rig::withRows(ImsngConfig{})) {}
    reram::CrossbarArray array;
    reram::ScoutingLogic scouting;
    reram::Periphery periphery;
    reram::ReramTrng trng;
    Imsng imsng;
  };
  FaultyRig batch(p, fm);
  FaultyRig single(p, fm);
  const std::vector<std::uint32_t> thresholds = {0, 1, 37, 128, 128, 200,
                                                 255, 256, 77, 3};
  for (int epoch = 0; epoch < 3; ++epoch) {
    batch.imsng.refreshRandomness();
    single.imsng.refreshRandomness();
    std::vector<sc::Bitstream> outs(thresholds.size(), sc::Bitstream(17, true));
    std::vector<sc::Bitstream*> ptrs;
    for (auto& s : outs) ptrs.push_back(&s);
    batch.imsng.encodeBatchInto(thresholds, ptrs);
    for (std::size_t i = 0; i < thresholds.size(); ++i) {
      EXPECT_EQ(outs[i], single.imsng.generateThreshold(thresholds[i]))
          << "epoch " << epoch << " threshold " << thresholds[i];
    }
  }
  EXPECT_EQ(batch.array.events().counts(), single.array.events().counts());
  EXPECT_EQ(batch.array.row(0), single.array.row(0));  // committed output row
  EXPECT_TRUE(batch.scouting.rng() == single.scouting.rng());
}

}  // namespace
}  // namespace aimsc::core
