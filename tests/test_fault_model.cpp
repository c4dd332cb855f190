// Fault model: Monte-Carlo misdecision probabilities from device overlap,
// and the blocked kernel behind them, held bit-exact to the per-cell loop.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <tuple>
#include <vector>

#include "apps/runner.hpp"
#include "reram/fault_kernel.hpp"
#include "reram/fault_model.hpp"

namespace aimsc::reram {
namespace {

TEST(FaultModel, IdealDevicesNeverFail) {
  FaultModel fm(DeviceParams::ideal(), 1, 1000);
  for (const SlOp op : {SlOp::And, SlOp::Or, SlOp::Xor, SlOp::Maj3}) {
    const int rows = op == SlOp::Maj3 ? 3 : 2;
    for (int ones = 0; ones <= rows; ++ones) {
      EXPECT_DOUBLE_EQ(fm.misdecisionProb(op, ones, rows), 0.0);
    }
  }
}

TEST(FaultModel, RejectsBadInput) {
  FaultModel fm(DeviceParams{}, 1, 100);
  EXPECT_THROW(fm.misdecisionProb(SlOp::And, 3, 2), std::invalid_argument);
  EXPECT_THROW(fm.misdecisionProb(SlOp::And, -1, 2), std::invalid_argument);
  EXPECT_THROW(FaultModel(DeviceParams{}, 1, 0), std::invalid_argument);
}

TEST(FaultModel, ProbabilitiesAreValidAndCached) {
  DeviceParams p;
  p.sigmaLrs = 0.12;
  p.sigmaHrs = 1.1;
  FaultModel fm(p, 3, 20000);
  const double a = fm.misdecisionProb(SlOp::And, 1, 2);
  EXPECT_GE(a, 0.0);
  EXPECT_LE(a, 1.0);
  // Cached: identical on re-query (same object).
  EXPECT_DOUBLE_EQ(fm.misdecisionProb(SlOp::And, 1, 2), a);
}

TEST(FaultModel, DeterministicAcrossQueryOrder) {
  DeviceParams p;
  p.sigmaHrs = 1.0;
  FaultModel fm1(p, 5, 20000);
  FaultModel fm2(p, 5, 20000);
  // Query in different orders; per-entry seeding must make results equal.
  const double x1 = fm1.misdecisionProb(SlOp::Or, 0, 2);
  fm2.misdecisionProb(SlOp::And, 2, 2);
  const double x2 = fm2.misdecisionProb(SlOp::Or, 0, 2);
  EXPECT_DOUBLE_EQ(x1, x2);
}

TEST(FaultModel, EveryPatternKeepsItsOwnEntry) {
  // Forward and reverse query orders over every op and 1..4 rows (the
  // lock-free slot table and the wide-pattern map): an entry aliased to
  // another key would return whichever value landed first.
  DeviceParams p;
  p.sigmaLrs = 0.3;
  p.sigmaHrs = 1.4;
  std::vector<std::tuple<SlOp, int, int>> keys;
  for (const SlOp op : {SlOp::And, SlOp::Nand, SlOp::Or, SlOp::Nor, SlOp::Xor,
                        SlOp::Xnor, SlOp::Maj3, SlOp::Not}) {
    for (int rows = 1; rows <= 4; ++rows) {
      for (int ones = 0; ones <= rows; ++ones) keys.emplace_back(op, ones, rows);
    }
  }
  FaultModel forward(p, 9, 2000);
  FaultModel reverse(p, 9, 2000);
  std::vector<double> fwd;
  for (const auto& [op, ones, rows] : keys) {
    fwd.push_back(forward.misdecisionProb(op, ones, rows));
  }
  for (std::size_t i = keys.size(); i-- > 0;) {
    const auto& [op, ones, rows] = keys[i];
    EXPECT_EQ(reverse.misdecisionProb(op, ones, rows), fwd[i])
        << slOpName(op) << " ones " << ones << " rows " << rows;
  }
}

TEST(FaultModel, HrsInstabilityDrivesOrFailures) {
  // OR with all-HRS inputs fails when an HRS cell leaks below Iref — the
  // dominant mechanism for wide sigmaHrs [39].
  DeviceParams tight;
  tight.sigmaHrs = 0.3;
  DeviceParams leaky;
  leaky.sigmaHrs = 1.3;
  FaultModel fmTight(tight, 7, 60000);
  FaultModel fmLeaky(leaky, 7, 60000);
  EXPECT_GT(fmLeaky.misdecisionProb(SlOp::Or, 0, 2),
            fmTight.misdecisionProb(SlOp::Or, 0, 2));
}

TEST(FaultModel, XorWindowIsMostFragile) {
  // The XOR window has two decision boundaries; its worst-case pattern
  // should fail at least as often as OR's worst case.
  DeviceParams p;
  p.sigmaLrs = 0.12;
  p.sigmaHrs = 1.1;
  FaultModel fm(p, 9, 60000);
  EXPECT_GE(fm.worstCase(SlOp::Xor, 2) + 1e-6, fm.worstCase(SlOp::Or, 2));
}

TEST(FaultModel, AllOnesAndPatternIsRobust) {
  // Two LRS cells sum far above the AND reference; with modest LRS sigma
  // this pattern essentially never fails.
  DeviceParams p;
  p.sigmaLrs = 0.08;
  p.sigmaHrs = 1.1;
  FaultModel fm(p, 11, 60000);
  EXPECT_LT(fm.misdecisionProb(SlOp::And, 2, 2), 1e-3);
}

TEST(FaultModel, RatesInPlausibleCimBand) {
  // The Table IV corner must yield per-op failure rates in the range that
  // produces ~5% SC quality drop: roughly 1e-5 .. 2e-2 per op.
  DeviceParams p;
  p.sigmaLrs = 0.12;
  p.sigmaHrs = 1.1;
  FaultModel fm(p, 13, 60000);
  double worst = 0;
  for (const SlOp op : {SlOp::And, SlOp::Or, SlOp::Xor}) {
    worst = std::max(worst, fm.worstCase(op, 2));
  }
  EXPECT_GT(worst, 1e-5);
  EXPECT_LT(worst, 5e-2);
}

// --- the blocked kernel against the per-cell loop it replaced -------------------

constexpr SlOp kAllOps[] = {SlOp::And, SlOp::Nand, SlOp::Or,   SlOp::Nor,
                            SlOp::Xor, SlOp::Xnor, SlOp::Maj3, SlOp::Not};

/// The per-cell Monte-Carlo loop `FaultModel::compute` ran before the
/// blocked kernel, kept verbatim: it defines every table entry.
std::size_t referenceWrongCount(const DeviceParams& params, SlOp op,
                                int onesCount, int numRows,
                                std::uint64_t entrySeed, std::size_t samples) {
  DeviceModel dev(params, entrySeed);
  SenseAmp sa(params);

  const bool expected = slIdeal(op, onesCount, numRows);
  std::size_t wrong = 0;
  for (std::size_t s = 0; s < samples; ++s) {
    double current = 0.0;
    for (int i = 0; i < onesCount; ++i) current += dev.sampleCurrent(true);
    for (int i = onesCount; i < numRows; ++i) current += dev.sampleCurrent(false);
    if (sa.decide(op, numRows, current) != expected) ++wrong;
  }
  return wrong;
}

/// Device corners: the Table IV corner, each sigma zeroed alone, both.
std::vector<DeviceParams> kernelCorners() {
  std::vector<DeviceParams> corners(4, apps::defaultFaultyDevice());
  corners[1].sigmaLrs = 0.0;
  corners[2].sigmaHrs = 0.0;
  corners[3] = DeviceParams::ideal();
  return corners;
}

TEST(FaultKernel, MatchesTheReferenceLoopOnEveryShape) {
  // Blocks hold 256 normals: 255..257 and 511..513 samples straddle them for
  // every draw count, and 40000 samples run many blocks with half-pairs
  // carried across; sigma = 0 on a state must draw nothing.
  std::uint64_t seed = 0x51;
  for (const DeviceParams& p : kernelCorners()) {
    for (const std::size_t samples : {1u, 2u, 255u, 256u, 257u, 511u, 512u, 513u, 40000u}) {
      for (const SlOp op : kAllOps) {
        for (int rows = 1; rows <= 4; ++rows) {
          for (int ones = 0; ones <= rows; ++ones, ++seed) {
            ASSERT_EQ(countMisdecisions(p, op, ones, rows, seed, samples),
                      referenceWrongCount(p, op, ones, rows, seed, samples))
                << slOpName(op) << " ones " << ones << " rows " << rows
                << " samples " << samples << " sigmaLrs " << p.sigmaLrs
                << " sigmaHrs " << p.sigmaHrs;
          }
        }
      }
    }
  }
}

TEST(FaultKernel, UnsoundShapesDrawEverySampleExactly) {
  // A sigma whose |sigma * g| leaves the exp polynomial's range, and a
  // pattern wider than one block, take the sample-by-sample exact path.
  DeviceParams wild = apps::defaultFaultyDevice();
  wild.sigmaHrs = 60.0;
  for (const SlOp op : {SlOp::Or, SlOp::Xor, SlOp::Maj3}) {
    EXPECT_EQ(countMisdecisions(wild, op, 1, 3, 77, 700),
              referenceWrongCount(wild, op, 1, 3, 77, 700));
  }
  const DeviceParams p = apps::defaultFaultyDevice();
  EXPECT_EQ(countMisdecisions(p, SlOp::And, 150, 300, 78, 5),
            referenceWrongCount(p, SlOp::And, 150, 300, 78, 5));
}

TEST(FaultKernel, ForcedExactGuardAndEverySimdRungMatch) {
  // guard = infinity sends every sample through the exact fallback; each
  // SIMD rung must count exactly what the portable one counts.
  MisdecisionKernelOptions exact;
  exact.guard = std::numeric_limits<double>::infinity();
  const DeviceParams p = apps::defaultFaultyDevice();
  for (const SlOp op : kAllOps) {
    for (int rows = 1; rows <= 3; ++rows) {
      for (int ones = 0; ones <= rows; ++ones) {
        const std::uint64_t seed = 0xc0de + 16 * rows + ones;
        const std::size_t ref = referenceWrongCount(p, op, ones, rows, seed, 3000);
        EXPECT_EQ(countMisdecisions(p, op, ones, rows, seed, 3000, exact), ref);
        for (const sc::SimdMode mode :
             {sc::SimdMode::Portable, sc::SimdMode::Avx2, sc::SimdMode::Avx512}) {
          MisdecisionKernelOptions rung;
          rung.simd = mode;
          EXPECT_EQ(countMisdecisions(p, op, ones, rows, seed, 3000, rung), ref)
              << sc::simdModeName(mode) << " " << slOpName(op) << " ones "
              << ones << " rows " << rows;
        }
      }
    }
  }
}

TEST(FaultKernel, BlockMtMatchesStdMt19937_64AcrossRefills) {
  for (const std::uint64_t seed : {0ULL, 1ULL, 0xfa017ULL, ~0ULL}) {
    BlockMt64 block(seed);
    std::mt19937_64 ref(seed);
    for (std::size_t i = 0; i < 3 * BlockMt64::kWords + 7; ++i) {
      ASSERT_EQ(block(), ref()) << "seed " << seed << " word " << i;
    }
  }
}

/// A URBG that returns one fixed word, to pin the canonical conversion.
struct FixedWord {
  using result_type = std::uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }
  result_type word;
  result_type operator()() { return word; }
};

TEST(FaultKernel, CanonicalMatchesGenerateCanonical) {
  // Includes the words that round to 1.0 and must clamp below it.
  for (const std::uint64_t word :
       {0ULL, 1ULL, 0x7ffULL, 0x800ULL, 1ULL << 53, (1ULL << 63) - 1,
        1ULL << 63, (1ULL << 63) + 1024, ~0ULL - 2048, ~0ULL - 1024,
        ~0ULL - 1023, ~0ULL - 1, ~0ULL}) {
    FixedWord urbg{word};
    const double ref = std::generate_canonical<double, 53>(urbg);
    EXPECT_EQ(canonicalDouble(word), ref) << "word " << word;
  }
}

TEST(FaultKernel, NormalStreamMatchesLibstdcxxNormalDistribution) {
  // The tables were always defined by libstdc++'s normal_distribution (the
  // polar method, y * m before x * m); another standard library draws a
  // different stream and this pin fails loudly.
  for (const std::uint64_t seed : {7ULL, 0xfa017ULL}) {
    BlockMt64 block(seed);
    std::mt19937_64 eng(seed);
    std::normal_distribution<double> gauss(0.0, 1.0);
    for (int i = 0; i < 4000; ++i) {
      const PolarPair pair = drawPolarPair(block);
      ASSERT_EQ(polarNormal(pair.y, pair.r2), gauss(eng)) << "pair " << i;
      ASSERT_EQ(polarNormal(pair.x, pair.r2), gauss(eng)) << "pair " << i;
    }
  }
}

TEST(FaultKernel, PolynomialsStayInsideTheirStatedBounds) {
  // Random and edge arguments over each polynomial's whole domain: the
  // log over every r2 the polar method can produce, the exp over
  // |t| <= kApproxExpRange.  The guard must cover 100x the bound.
  std::mt19937_64 eng(3);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  double worstLog = 0, worstExp = 0;
  for (int i = 0; i < 200000; ++i) {
    const double x = std::ldexp(0.5 + 0.5 * unit(eng), -(i % 107));
    worstLog = std::max(worstLog,
                        std::abs(approxLog(x) - std::log(x)) / std::abs(std::log(x)));
    const double t = (2 * unit(eng) - 1) * (i % 2 ? kApproxExpRange : 1.0);
    worstExp = std::max(worstExp, std::abs(approxExp(t) / std::exp(t) - 1));
  }
  for (const double x : {0x1p-106, 0.5, 0x1.6a09e667f3bccp-1,
                         0x1.6a09e667f3bcdp-1, 0x1.fffffffffffffp-1}) {
    worstLog = std::max(worstLog,
                        std::abs(approxLog(x) - std::log(x)) / std::abs(std::log(x)));
  }
  EXPECT_EQ(approxLog(1.0), 0.0);
  EXPECT_LT(worstLog, kLogRelErr);
  EXPECT_LT(worstExp, kExpRelErr);
  const DeviceParams p = apps::defaultFaultyDevice();
  EXPECT_GE(kDefaultGuard, 100 * approxCurrentErrorBound(p.sigmaHrs, 4));
}

/// FNV-1a over the bit patterns of every 1..3-row table entry.
std::uint64_t tableDigest(const FaultModel& fm) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const SlOp op : kAllOps) {
    for (int rows = 1; rows <= 3; ++rows) {
      for (int ones = 0; ones <= rows; ++ones) {
        const double p = fm.misdecisionProb(op, ones, rows);
        unsigned char bytes[sizeof p];
        std::memcpy(bytes, &p, sizeof p);
        for (const unsigned char b : bytes) {
          h ^= b;
          h *= 0x100000001b3ULL;
        }
      }
    }
  }
  return h;
}

TEST(FaultKernel, TableDigestsArePinned) {
  // Recorded from the per-cell loop: the Table IV corner at the deviceOnly
  // sample count, for the default model seed and one other.
  const DeviceParams p = apps::defaultFaultyDevice();
  EXPECT_EQ(tableDigest(FaultModel(p, 0xfa017, 40000)), 0xdf5f9f15f7c482aaULL);
  EXPECT_EQ(tableDigest(FaultModel(p, 0x5eed2, 40000)), 0x4c87b0b014c48871ULL);
}

}  // namespace
}  // namespace aimsc::reram
