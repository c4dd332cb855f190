// Bernstein-polynomial stochastic synthesis (extension module).
#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "sc/bernstein.hpp"
#include "sc/sng.hpp"

namespace aimsc::sc {
namespace {

TEST(BernsteinValue, ConstantsAndIdentity) {
  // b_k = c for all k -> B_n = c; b_k = k/n -> B_n(x) = x.
  EXPECT_NEAR(bernsteinValue({0.3, 0.3, 0.3}, 0.7), 0.3, 1e-12);
  EXPECT_NEAR(bernsteinValue({0.0, 0.5, 1.0}, 0.7), 0.7, 1e-12);
  EXPECT_NEAR(bernsteinValue({0.0, 0.5, 1.0}, 0.2), 0.2, 1e-12);
}

TEST(BernsteinValue, SquareExactAtItsDegree) {
  // x^2 = B_2 with b = {0, 0, 1}?  B_2 = 2x(1-x)*0 + x^2*1 ... b={0,0,1}
  // gives exactly x^2.
  for (const double x : {0.1, 0.5, 0.9}) {
    EXPECT_NEAR(bernsteinValue({0.0, 0.0, 1.0}, x), x * x, 1e-12);
  }
}

TEST(BernsteinValue, RejectsEmpty) {
  EXPECT_THROW(bernsteinValue({}, 0.5), std::invalid_argument);
}

TEST(BernsteinCoefficients, SampleTheFunction) {
  const auto b = bernsteinCoefficientsOf([](double t) { return t * t; }, 4);
  ASSERT_EQ(b.size(), 5u);
  EXPECT_DOUBLE_EQ(b[0], 0.0);
  EXPECT_DOUBLE_EQ(b[2], 0.25);
  EXPECT_DOUBLE_EQ(b[4], 1.0);
}

TEST(BernsteinSelect, Validation) {
  Mt19937Source src(1);
  std::vector<Bitstream> xs{generateSbsFromProb(src, 0.5, 8, 64)};
  std::vector<Bitstream> cs{generateSbsFromProb(src, 0.5, 8, 64)};
  EXPECT_THROW(scBernsteinSelect({}, cs), std::invalid_argument);
  EXPECT_THROW(scBernsteinSelect(xs, cs), std::invalid_argument);  // need 2
  std::vector<Bitstream> csBad{generateSbsFromProb(src, 0.5, 8, 64),
                               generateSbsFromProb(src, 0.5, 8, 32)};
  EXPECT_THROW(scBernsteinSelect(xs, csBad), std::invalid_argument);
}

TEST(BernsteinSelect, DegreeOneIsMux) {
  // n = 1: out = x ? b1 : b0 — the scaled-addition MUX.
  Mt19937Source src(2);
  const Bitstream x = generateSbsFromProb(src, 0.5, 8, 64);
  const Bitstream b0 = generateSbsFromProb(src, 0.0, 8, 64);
  const Bitstream b1 = generateSbsFromProb(src, 1.0, 8, 64);
  const Bitstream out = scBernsteinSelect({x}, {b0, b1});
  EXPECT_EQ(out, x);
}

class BernsteinAccuracy : public ::testing::TestWithParam<double> {};

TEST_P(BernsteinAccuracy, SquaresTrackExactValue) {
  const double x = GetParam();
  Mt19937Source src(42);
  const Bitstream out =
      scBernsteinEvaluate(src, x, {0.0, 0.0, 1.0}, 8, 16384);
  EXPECT_NEAR(out.value(), x * x, 0.03) << "x=" << x;
}

TEST_P(BernsteinAccuracy, GammaCurveDegree4) {
  const double x = GetParam();
  const double gamma = 2.2;
  Mt19937Source src(43);
  const auto b = bernsteinCoefficientsOf(
      [gamma](double t) { return std::pow(t, gamma); }, 4);
  const Bitstream out = scBernsteinEvaluate(src, x, b, 8, 16384);
  // Two error sources: SC sampling noise and the O(1/n) Bernstein
  // approximation gap.
  EXPECT_NEAR(out.value(), std::pow(x, gamma), 0.08) << "x=" << x;
}

INSTANTIATE_TEST_SUITE_P(Grid, BernsteinAccuracy,
                         ::testing::Values(0.1, 0.25, 0.5, 0.75, 0.9));

TEST(BernsteinSelect, ExpectedValueMatchesFormula) {
  // Non-monotone coefficient set: checks the full selection construction.
  const std::vector<double> b = {0.9, 0.1, 0.7, 0.3};
  const double x = 0.6;
  Mt19937Source src(44);
  const Bitstream out = scBernsteinEvaluate(src, x, b, 8, 32768);
  EXPECT_NEAR(out.value(), bernsteinValue(b, x), 0.03);
}


// --- bit-sliced select vs the per-column reference ----------------------------

/// The per-column select loop the word-level kernel replaced: count the x
/// copies' ones at column i, then copy that coefficient's bit.
Bitstream referenceSelect(const std::vector<Bitstream>& xCopies,
                          const std::vector<Bitstream>& coeffs) {
  const std::size_t width = xCopies.front().size();
  Bitstream dst;
  dst.assign(width, false);
  for (std::size_t i = 0; i < width; ++i) {
    std::size_t ones = 0;
    for (const auto& s : xCopies) ones += s.get(i) ? 1 : 0;
    if (coeffs[ones].get(i)) dst.set(i, true);
  }
  return dst;
}

Bitstream randomStream(std::mt19937_64& rng, std::size_t width, double p) {
  std::bernoulli_distribution bit(p);
  Bitstream s(width);
  for (std::size_t i = 0; i < width; ++i) s.set(i, bit(rng));
  return s;
}

TEST(BernsteinSelect, BitSlicedMatchesPerColumnReference) {
  std::mt19937_64 rng(2024);
  const auto check = [&rng](std::size_t width, std::size_t degree, double px) {
    std::vector<Bitstream> xCopies;
    for (std::size_t j = 0; j < degree; ++j) {
      xCopies.push_back(randomStream(rng, width, px));
    }
    std::vector<Bitstream> coeffs;
    for (std::size_t k = 0; k <= degree; ++k) {
      coeffs.push_back(randomStream(rng, width, 0.5));
    }
    const Bitstream got = scBernsteinSelect(xCopies, coeffs);
    ASSERT_EQ(got, referenceSelect(xCopies, coeffs))
        << "degree " << degree << " width " << width << " px " << px;
    // Zero-tail invariant: bits past size() in the last word stay clear.
    if (width % 64 != 0) {
      EXPECT_EQ(got.words().back() >> (width % 64), 0u);
    }
  };
  // Degrees 1..8 plus counter-plane boundaries (63/64 and 255/256 copies
  // need 6/7 and 8/9 count planes; the select accepts any degree), at
  // widths that end mid-word, on a word boundary and one past it.  Each
  // case runs a random copy density and the extremes where every column
  // counts 0 resp. `degree` ones (the top count needs the widest plane).
  const std::vector<std::size_t> degrees = {1, 2, 3, 4, 5, 6, 7, 8,
                                            63, 64, 255, 256};
  for (const std::size_t width : {1u, 63u, 64u, 65u, 256u, 1000u}) {
    for (const std::size_t degree : degrees) {
      check(width, degree, static_cast<double>(rng() % 1001) / 1000.0);
      check(width, degree, 0.0);
      check(width, degree, 1.0);
    }
  }
}

TEST(BernsteinSelect, IntoReusesADirtyDestination) {
  std::mt19937_64 rng(7);
  std::vector<Bitstream> xCopies;
  for (int j = 0; j < 4; ++j) xCopies.push_back(randomStream(rng, 65, 0.4));
  std::vector<Bitstream> coeffs;
  for (int k = 0; k <= 4; ++k) coeffs.push_back(randomStream(rng, 65, 0.6));
  std::vector<const Bitstream*> xs;
  for (const auto& s : xCopies) xs.push_back(&s);
  std::vector<const Bitstream*> cs;
  for (const auto& s : coeffs) cs.push_back(&s);
  Bitstream dst(300, true);  // wider, all ones: nothing may leak through
  scBernsteinSelectInto(dst, xs, cs);
  EXPECT_EQ(dst, referenceSelect(xCopies, coeffs));
}

}  // namespace
}  // namespace aimsc::sc
