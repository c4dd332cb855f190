// Scouting-logic engine: ideal exactness, event accounting, probabilistic
// fault statistics, Monte-Carlo consistency.
#include <gtest/gtest.h>

#include <bit>
#include <stdexcept>
#include <unordered_set>
#include <vector>

#include "reram/fault_model.hpp"
#include "reram/scouting.hpp"

namespace aimsc::reram {
namespace {

sc::Bitstream randomStream(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 eng(seed);
  sc::Bitstream s(n);
  for (std::size_t i = 0; i < n; ++i) s.set(i, eng() & 1);
  return s;
}

TEST(ScoutingIdeal, MatchesWordLevelOps) {
  CrossbarArray arr(4, 256, DeviceParams::ideal());
  ScoutingLogic sl(arr);
  const auto a = randomStream(256, 1);
  const auto b = randomStream(256, 2);
  const auto c = randomStream(256, 3);
  EXPECT_EQ(sl.op2(SlOp::And, a, b), (a & b));
  EXPECT_EQ(sl.op2(SlOp::Or, a, b), (a | b));
  EXPECT_EQ(sl.op2(SlOp::Xor, a, b), (a ^ b));
  EXPECT_EQ(sl.op2(SlOp::Nand, a, b), ~(a & b));
  EXPECT_EQ(sl.op2(SlOp::Nor, a, b), ~(a | b));
  EXPECT_EQ(sl.op2(SlOp::Xnor, a, b), ~(a ^ b));
  EXPECT_EQ(sl.op3(SlOp::Maj3, a, b, c), sc::Bitstream::majority(a, b, c));
  EXPECT_EQ(sl.opNot(a), ~a);
}

TEST(ScoutingIdeal, OperatesOnStoredRows) {
  CrossbarArray arr(4, 64, DeviceParams::ideal());
  ScoutingLogic sl(arr);
  arr.writeRow(0, randomStream(64, 4));
  arr.writeRow(1, randomStream(64, 5));
  const std::size_t rows[] = {0, 1};
  EXPECT_EQ(sl.opRows(SlOp::And, rows), (arr.row(0) & arr.row(1)));
}

TEST(Scouting, EventAccounting) {
  CrossbarArray arr(4, 64, DeviceParams::ideal());
  ScoutingLogic sl(arr);
  const auto a = randomStream(64, 6);
  const auto b = randomStream(64, 7);
  sl.op2(SlOp::And, a, b);
  sl.op2(SlOp::Xor, a, b);
  sl.opNot(a);
  EXPECT_EQ(arr.events().counts().slReads, 3u);
}

TEST(Scouting, OperandValidation) {
  CrossbarArray arr(4, 64, DeviceParams::ideal());
  ScoutingLogic sl(arr);
  const auto a = randomStream(64, 8);
  const auto b = randomStream(32, 9);
  const auto c = randomStream(64, 10);
  EXPECT_THROW(sl.op2(SlOp::And, a, b), std::invalid_argument);       // width
  EXPECT_THROW(sl.opStreams(SlOp::And, {}), std::invalid_argument);   // empty
  EXPECT_THROW(sl.op2(SlOp::Maj3, a, c), std::invalid_argument);      // arity
  EXPECT_THROW(sl.opStreams(SlOp::Xor, {&a, &c, &a}), std::invalid_argument);
  EXPECT_THROW(sl.opStreams(SlOp::Not, {&a, &c}), std::invalid_argument);
}

TEST(Scouting, ProbabilisticNeedsFaultModel) {
  CrossbarArray arr(4, 64);
  EXPECT_THROW(
      ScoutingLogic(arr, ScoutingLogic::Fidelity::Probabilistic, nullptr),
      std::invalid_argument);
}

TEST(Scouting, ProbabilisticWithZeroSigmaIsExact) {
  CrossbarArray arr(4, 256, DeviceParams::ideal());
  FaultModel fm(DeviceParams::ideal(), 1, 1000);
  ScoutingLogic sl(arr, ScoutingLogic::Fidelity::Probabilistic, &fm);
  const auto a = randomStream(256, 11);
  const auto b = randomStream(256, 12);
  EXPECT_EQ(sl.op2(SlOp::And, a, b), (a & b));
}

TEST(Scouting, ProbabilisticFaultRateMatchesModel) {
  // Statistical check: observed flip rate per pattern class tracks the
  // model's misdecision probability.
  DeviceParams p;
  p.sigmaLrs = 0.12;
  p.sigmaHrs = 1.1;
  CrossbarArray arr(4, 4096, p);
  FaultModel fm(p, 2, 40000);
  ScoutingLogic sl(arr, ScoutingLogic::Fidelity::Probabilistic, &fm, 99);

  const sc::Bitstream ones(4096, true);
  const sc::Bitstream zeros(4096);
  // Pattern: one LRS, one HRS -> AND ideal 0; flips with p(And,1,2).
  std::size_t flips = 0;
  constexpr int kReps = 50;
  for (int r = 0; r < kReps; ++r) {
    flips += sl.op2(SlOp::And, ones, zeros).popcount();
  }
  const double observed = static_cast<double>(flips) / (4096.0 * kReps);
  const double expected = fm.misdecisionProb(SlOp::And, 1, 2);
  EXPECT_NEAR(observed, expected, expected * 0.5 + 2e-5);
}

TEST(Scouting, MonteCarloAgreesWithIdealForTightDevices) {
  DeviceParams p;  // default sigmas: negligible overlap
  p.sigmaLrs = 0.02;
  p.sigmaHrs = 0.05;
  CrossbarArray arr(4, 512, p);
  ScoutingLogic sl(arr, ScoutingLogic::Fidelity::MonteCarlo);
  const auto a = randomStream(512, 13);
  const auto b = randomStream(512, 14);
  EXPECT_EQ(sl.op2(SlOp::And, a, b), (a & b));
  EXPECT_EQ(sl.op2(SlOp::Or, a, b), (a | b));
}

TEST(Scouting, MonteCarloShowsFaultsForLeakyDevices) {
  DeviceParams p;
  p.sigmaLrs = 0.3;
  p.sigmaHrs = 1.4;
  CrossbarArray arr(4, 8192, p);
  ScoutingLogic sl(arr, ScoutingLogic::Fidelity::MonteCarlo);
  const sc::Bitstream ones(8192, true);
  const sc::Bitstream zeros(8192);
  std::size_t wrong = 0;
  for (int r = 0; r < 10; ++r) wrong += sl.op2(SlOp::Xor, ones, zeros).popcount();
  // XOR of (1,0) should be all ones; count misdecisions (zeros).
  EXPECT_GT(10u * 8192u - wrong, 0u);
}


// --- draw-sequence pin: the probabilistic sensing loop ------------------------
// The reference below is the earlier per-pattern loop (an unordered_set of
// chosen ranks per pattern class, one selectNthSetBit toggle per rank),
// verbatim apart from member -> parameter renames.  The engine must consume
// the identical RNG draws and produce the identical bits.

std::size_t referenceSelectNthSetBit(const sc::Bitstream& s, std::size_t nth) {
  const auto& words = s.words();
  std::size_t seen = 0;
  for (std::size_t w = 0; w < words.size(); ++w) {
    const auto pc = static_cast<std::size_t>(std::popcount(words[w]));
    if (seen + pc <= nth) {
      seen += pc;
      continue;
    }
    std::uint64_t word = words[w];
    for (std::size_t rank = nth - seen;; --rank) {
      const int bit = std::countr_zero(word);
      if (rank == 0) return w * 64 + static_cast<std::size_t>(bit);
      word &= word - 1;  // clear lowest set bit
    }
  }
  throw std::out_of_range("selectNthSetBit: not enough set bits");
}

sc::Bitstream referenceProbabilisticSense(
    SlOp op, const std::vector<const sc::Bitstream*>& operands,
    const FaultModel& faultModel, std::mt19937_64& eng_) {
  const std::size_t width = operands.front()->size();
  const int numRows = static_cast<int>(operands.size());
  std::vector<sc::Bitstream> masks(operands.size() + 1, sc::Bitstream(width));
  for (std::size_t col = 0; col < width; ++col) {
    int ones = 0;
    for (const auto* o : operands) ones += o->get(col) ? 1 : 0;
    masks[static_cast<std::size_t>(ones)].set(col, true);
  }
  sc::Bitstream out;
  out.assign(width, false);
  for (int ones = 0; ones <= numRows; ++ones) {
    if (slIdeal(op, ones, numRows)) {
      out |= masks[static_cast<std::size_t>(ones)];
    }
  }
  for (int ones = 0; ones <= numRows; ++ones) {
    const sc::Bitstream& mask = masks[static_cast<std::size_t>(ones)];
    const std::size_t cnt = mask.popcount();
    if (cnt == 0) continue;
    const double p = faultModel.misdecisionProb(op, ones, numRows);
    if (p <= 0.0) continue;
    std::binomial_distribution<std::size_t> binom(cnt, p);
    const std::size_t flips = binom(eng_);
    if (flips == 0) continue;
    std::unordered_set<std::size_t> chosen;
    std::uniform_int_distribution<std::size_t> pick(0, cnt - 1);
    while (chosen.size() < flips) chosen.insert(pick(eng_));
    for (const std::size_t nth : chosen) {
      const std::size_t col = referenceSelectNthSetBit(mask, nth);
      out.set(col, !out.get(col));
    }
  }
  return out;
}

TEST(ScoutingProbabilistic, DrawSequenceMatchesReferenceLoop) {
  // A leaky corner: per-class flip rates up to tens of percent, so classes
  // draw many (and repeated) ranks.
  DeviceParams p;
  p.sigmaLrs = 0.3;
  p.sigmaHrs = 1.4;
  FaultModel fm(p, 31, 4000);
  const std::vector<std::vector<SlOp>> opsByArity = {
      {SlOp::Not, SlOp::And, SlOp::Or},
      {SlOp::And, SlOp::Nand, SlOp::Or, SlOp::Nor, SlOp::Xor, SlOp::Xnor},
      {SlOp::And, SlOp::Nand, SlOp::Or, SlOp::Nor, SlOp::Maj3}};
  for (const std::size_t width : {256u, 100u}) {
    CrossbarArray arr(4, width, p);
    ScoutingLogic sl(arr, ScoutingLogic::Fidelity::Probabilistic, &fm, 77);
    std::mt19937_64 referenceEng(77);
    std::mt19937_64 choose(5);
    std::vector<sc::Bitstream> operands(3);
    sc::Bitstream got;
    for (int i = 0; i < 3000; ++i) {
      const std::size_t arity = 1 + choose() % 3;
      const auto& ops = opsByArity[arity - 1];
      const SlOp op = ops[choose() % ops.size()];
      std::vector<const sc::Bitstream*> ptrs;
      for (std::size_t k = 0; k < arity; ++k) {
        operands[k] = randomStream(width, choose());
        ptrs.push_back(&operands[k]);
      }
      sl.opInto(op, got, ptrs);
      ASSERT_EQ(got, referenceProbabilisticSense(op, ptrs, fm, referenceEng))
          << "op " << slOpName(op) << " arity " << arity << " step " << i;
    }
    EXPECT_TRUE(sl.rng() == referenceEng);
    std::mt19937_64 next = sl.rng();
    EXPECT_EQ(next(), referenceEng());
  }
}

}  // namespace
}  // namespace aimsc::reram
