// Binary CIM baseline: gate engine + AritPIM arithmetic (exactness when
// fault-free, gate-count complexity, fault vulnerability).
#include <gtest/gtest.h>

#include <random>

#include "bincim/aritpim.hpp"

namespace aimsc::bincim {
namespace {

TEST(MagicEngine, PrimitiveGateTruth) {
  MagicEngine e;
  EXPECT_TRUE(e.norGate(false, false));
  EXPECT_FALSE(e.norGate(true, false));
  EXPECT_FALSE(e.norGate(false, true));
  EXPECT_FALSE(e.norGate(true, true));
  EXPECT_TRUE(e.notGate(false));
  EXPECT_FALSE(e.notGate(true));
}

TEST(MagicEngine, CompositeGateTruth) {
  MagicEngine e;
  for (const bool a : {false, true}) {
    for (const bool b : {false, true}) {
      EXPECT_EQ(e.orGate(a, b), a || b);
      EXPECT_EQ(e.andGate(a, b), a && b);
      EXPECT_EQ(e.xorGate(a, b), a != b);
    }
  }
}

TEST(MagicEngine, FullAdderExhaustive) {
  MagicEngine e;
  for (int a = 0; a <= 1; ++a) {
    for (int b = 0; b <= 1; ++b) {
      for (int c = 0; c <= 1; ++c) {
        const auto fa = e.fullAdder(a, b, c);
        const int total = a + b + c;
        EXPECT_EQ(fa.sum, total % 2 == 1);
        EXPECT_EQ(fa.carry, total >= 2);
      }
    }
  }
}

TEST(MagicEngine, GateOpsCounted) {
  MagicEngine e;
  e.norGate(true, false);
  EXPECT_EQ(e.gateOps(), 1u);
  e.xorGate(true, false);  // 5 primitives (4-NOR XNOR + inverter)
  EXPECT_EQ(e.gateOps(), 6u);
  e.resetCounter();
  EXPECT_EQ(e.gateOps(), 0u);
}

TEST(AritPim, AddExhaustive6Bit) {
  MagicEngine e;
  AritPim pim(e);
  for (std::uint32_t a = 0; a < 64; a += 3) {
    for (std::uint32_t b = 0; b < 64; b += 5) {
      EXPECT_EQ(pim.add(a, b, 6), a + b);
    }
  }
}

TEST(AritPim, SubSaturatingExhaustive6Bit) {
  MagicEngine e;
  AritPim pim(e);
  for (std::uint32_t a = 0; a < 64; a += 3) {
    for (std::uint32_t b = 0; b < 64; b += 5) {
      EXPECT_EQ(pim.subSaturating(a, b, 6), a >= b ? a - b : 0u);
    }
  }
}

TEST(AritPim, MulExhaustive5Bit) {
  MagicEngine e;
  AritPim pim(e);
  for (std::uint32_t a = 0; a < 32; a += 3) {
    for (std::uint32_t b = 0; b < 32; b += 2) {
      EXPECT_EQ(pim.mul(a, b, 5), a * b);
    }
  }
}

TEST(AritPim, Mul8BitSampled) {
  MagicEngine e;
  AritPim pim(e);
  for (std::uint32_t a = 0; a < 256; a += 37) {
    for (std::uint32_t b = 0; b < 256; b += 29) {
      EXPECT_EQ(pim.mul(a, b, 8), a * b);
    }
  }
}

TEST(AritPim, DivRestoringSampled) {
  MagicEngine e;
  AritPim pim(e);
  for (std::uint32_t num = 0; num < 4096; num += 123) {
    for (std::uint32_t den = 1; den < 256; den += 31) {
      const std::uint32_t q = pim.div(num, den, 16, 8);
      EXPECT_EQ(q, std::min(num / den, 0xffffu)) << num << "/" << den;
    }
  }
}

TEST(AritPim, DivByZeroSaturates) {
  MagicEngine e;
  AritPim pim(e);
  EXPECT_EQ(pim.div(100, 0, 16, 8), 0xffffu);
}

TEST(AritPim, MattingStyleDivision) {
  // alpha = num * 255 / den clamped — the matting kernel path.
  MagicEngine e;
  AritPim pim(e);
  const std::uint32_t num16 = pim.mul(60, 255, 8);
  const std::uint32_t q = pim.div(num16, 120, 16, 8);
  EXPECT_EQ(q, 60u * 255u / 120u);
}

TEST(AritPim, ComplexityOrdering) {
  // Paper Sec. III-B: addition O(n), multiplication / division O(n^2).
  MagicEngine e;
  AritPim pim(e);
  e.resetCounter();
  pim.add(170, 85, 8);
  const auto addOps = e.gateOps();
  e.resetCounter();
  pim.mul(170, 85, 8);
  const auto mulOps = e.gateOps();
  e.resetCounter();
  pim.div(43350, 170, 16, 8);
  const auto divOps = e.gateOps();
  EXPECT_GT(mulOps, addOps * 5);
  EXPECT_GT(divOps, addOps * 5);
}

TEST(AritPim, WidthValidation) {
  MagicEngine e;
  AritPim pim(e);
  EXPECT_THROW(pim.add(1, 1, 0), std::invalid_argument);
  EXPECT_THROW(pim.add(1, 1, 32), std::invalid_argument);
  EXPECT_THROW(pim.mul(1, 1, 16), std::invalid_argument);
  EXPECT_THROW(pim.div(1, 1, 25, 8), std::invalid_argument);
}

TEST(AritPim, FaultsCorruptHighBits) {
  // With gate faults enabled, binary results occasionally take large jumps
  // (MSB errors) — the mechanism behind the 47% quality drop in Table IV.
  reram::DeviceParams p;
  p.sigmaLrs = 0.12;
  p.sigmaHrs = 1.2;
  reram::FaultModel fm(p, 4, 20000);
  MagicEngine e(&fm, 5);
  AritPim pim(e);
  int bigErrors = 0;
  for (int i = 0; i < 400; ++i) {
    const std::uint32_t r = pim.mul(200, 200, 8);
    const int err = std::abs(static_cast<int>(r) - 40000);
    if (err > 4096) ++bigErrors;  // an error in bit 12+
  }
  EXPECT_GT(bigErrors, 0);
}

TEST(AritPim, FaultFreeWithNullModel) {
  MagicEngine e(nullptr);
  AritPim pim(e);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(pim.mul(123, 45, 8), 123u * 45u);
}


// --- closed form vs gate path -------------------------------------------------
// A bare engine computes AritPim results in closed form; the same engine
// holding an ideal-device FaultModel runs every gate with p == 0.  Values
// and gate ledgers must agree under every protection mode.

class ClosedFormOracle
    : public ::testing::TestWithParam<MagicEngine::Protection> {
 protected:
  ClosedFormOracle() : model_(reram::DeviceParams::ideal(), 3, 16), gates_(&model_) {
    closed_.setProtection(GetParam());
    gates_.setProtection(GetParam());
  }

  /// Runs \p op on both engines; false on a disagreement in value or in
  /// charged gates.
  template <typename Op>
  bool agree(Op op) {
    const std::uint64_t closedBefore = closed_.gateOps();
    const std::uint64_t gatesBefore = gates_.gateOps();
    const std::uint32_t closedValue = op(closedPim_);
    const std::uint32_t gateValue = op(gatesPim_);
    return closedValue == gateValue &&
           closed_.gateOps() - closedBefore == gates_.gateOps() - gatesBefore;
  }

  reram::FaultModel model_;
  MagicEngine closed_;
  MagicEngine gates_;
  AritPim closedPim_{closed_};
  AritPim gatesPim_{gates_};
};

TEST_P(ClosedFormOracle, AddAndSubExhaustive8To10Bit) {
  // Exhaustive at every width without protection; the redundant modes
  // (same values, 2x/3x the gates) sweep 8 bits exhaustively and every
  // 7th subtrahend at 9 and 10 bits to bound the gate-path run time.
  const bool redundant = GetParam() != MagicEngine::Protection::None;
  for (int bits = 8; bits <= 10; ++bits) {
    const std::uint32_t n = 1u << bits;
    const std::uint32_t step = redundant && bits > 8 ? 7 : 1;
    for (std::uint32_t a = 0; a < n; ++a) {
      for (std::uint32_t b = a % step; b < n; b += step) {
        ASSERT_TRUE(agree([&](AritPim& p) { return p.add(a, b, bits); }))
            << a << "+" << b << " @" << bits;
        ASSERT_TRUE(agree([&](AritPim& p) { return p.subSaturating(a, b, bits); }))
            << a << "-" << b << " @" << bits;
      }
    }
  }
}

TEST_P(ClosedFormOracle, MulAll8BitPairs) {
  for (std::uint32_t a = 0; a < 256; ++a) {
    for (std::uint32_t b = 0; b < 256; ++b) {
      ASSERT_TRUE(agree([&](AritPim& p) { return p.mul(a, b, 8); }))
          << a << "*" << b;
    }
  }
}

TEST_P(ClosedFormOracle, DivSampled16By8IncludingZero) {
  std::mt19937_64 rng(17);
  for (int i = 0; i < 4000; ++i) {
    const auto num = static_cast<std::uint32_t>(rng() & 0xffff);
    const auto den = i % 16 == 0 ? 0u : static_cast<std::uint32_t>(rng() & 0xff);
    ASSERT_TRUE(agree([&](AritPim& p) { return p.div(num, den, 16, 8); }))
        << num << "/" << den;
  }
}

TEST_P(ClosedFormOracle, OperandsWiderThanTheirWidth) {
  // Every op reads only the low bits of its operands (div: denominator
  // bits up to denBits + 2, the remainder width).
  std::mt19937_64 rng(23);
  for (int i = 0; i < 3000; ++i) {
    const auto a = static_cast<std::uint32_t>(rng());
    const auto b = static_cast<std::uint32_t>(rng());
    const int bits = 1 + static_cast<int>(rng() % 12);
    ASSERT_TRUE(agree([&](AritPim& p) { return p.add(a, b, bits); }));
    ASSERT_TRUE(agree([&](AritPim& p) { return p.subSaturating(a, b, bits); }));
    ASSERT_TRUE(agree([&](AritPim& p) { return p.mul(a, b, bits); }));
    // Denominators past denBits and past the remainder width exercise
    // the truncation to denBits + 2 bits.
    const std::uint32_t den = (a >> 7) & 0xfff;
    ASSERT_TRUE(agree([&](AritPim& p) { return p.div(b, den, 16, 8); }))
        << b << "/" << den;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Protections, ClosedFormOracle,
    ::testing::Values(MagicEngine::Protection::None,
                      MagicEngine::Protection::Dmr,
                      MagicEngine::Protection::Tmr),
    [](const ::testing::TestParamInfo<MagicEngine::Protection>& info) {
      switch (info.param) {
        case MagicEngine::Protection::None: return std::string("None");
        case MagicEngine::Protection::Dmr: return std::string("Dmr");
        case MagicEngine::Protection::Tmr: return std::string("Tmr");
      }
      return std::string("Unknown");
    });

TEST(AritPim, ClosedFormGateCounts) {
  // Data-independent ledgers: FA = 18 gates, subtract = 19 per bit,
  // mul = 39 * bits^2, div = numBits * (denBits + 2) * 19.
  MagicEngine e;
  AritPim pim(e);
  pim.add(3, 5, 8);
  EXPECT_EQ(e.gateOps(), 18u * 8);
  e.resetCounter();
  pim.subSaturating(3, 5, 8);
  EXPECT_EQ(e.gateOps(), 19u * 8);
  e.resetCounter();
  pim.mul(3, 5, 8);
  EXPECT_EQ(e.gateOps(), 39u * 64);
  e.resetCounter();
  pim.div(300, 7, 16, 8);
  EXPECT_EQ(e.gateOps(), 16u * 10 * 19);
  e.resetCounter();
  e.setProtection(MagicEngine::Protection::Tmr);
  pim.add(3, 5, 8);
  EXPECT_EQ(e.gateOps(), 3u * 18 * 8);
}

}  // namespace
}  // namespace aimsc::bincim
