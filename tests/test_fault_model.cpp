// Fault model: Monte-Carlo misdecision probabilities from device overlap.
#include <gtest/gtest.h>

#include <tuple>
#include <vector>

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

}  // namespace
}  // namespace aimsc::reram
