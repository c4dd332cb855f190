#include "reram/fault_kernel.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

namespace aimsc::reram {

// --- stage 1: exact draws ----------------------------------------------------
// Plain default-target code: no FMA is available, so `x * x + y * y` and
// every other expression here rounds exactly like the library's.

BlockMt64::BlockMt64(std::uint64_t seed) {
  state_[0] = seed;
  for (std::size_t i = 1; i < kWords; ++i) {
    const std::uint64_t prev = state_[i - 1];
    state_[i] = 6364136223846793005ULL * (prev ^ (prev >> 62)) + i;
  }
}

void BlockMt64::twist() {
  constexpr std::size_t kShift = 156;
  constexpr std::uint64_t kUpper = ~0ULL << 31;
  constexpr std::uint64_t kLower = ~kUpper;
  constexpr std::uint64_t kMatrix = 0xb5026f5aa96619e9ULL;
  const auto mix = [&](std::size_t i, std::size_t next, std::size_t far) {
    const std::uint64_t y = (state_[i] & kUpper) | (state_[next] & kLower);
    state_[i] = state_[far] ^ (y >> 1) ^ ((y & 1) ? kMatrix : 0);
  };
  std::size_t i = 0;
  for (; i < kWords - kShift; ++i) mix(i, i + 1, i + kShift);
  for (; i < kWords - 1; ++i) mix(i, i + 1, i + kShift - kWords);
  mix(kWords - 1, 0, kShift - 1);
  pos_ = 0;
}

double canonicalDouble(std::uint64_t word) {
  const double r = static_cast<double>(word) / 18446744073709551616.0;
  return r >= 1.0 ? std::nextafter(1.0, 0.0) : r;
}

PolarPair drawPolarPair(BlockMt64& eng) {
  for (;;) {
    const double x = 2.0 * canonicalDouble(eng()) - 1.0;
    const double y = 2.0 * canonicalDouble(eng()) - 1.0;
    const double r2 = x * x + y * y;
    if (r2 <= 1.0 && r2 != 0.0) return {x, y, r2};
  }
}

double polarNormal(double c, double r2) {
  return c * std::sqrt(-2 * std::log(r2) / r2);
}

// --- stage 2: approximate currents --------------------------------------------

namespace {

constexpr double kShifter = 0x1.8p52;  // adding it rounds |v| < 2^51 to an integer
constexpr double kLn2Hi = 0x1.62e42feep-1;  // 21 trailing zero bits: k * hi is exact
constexpr double kLn2Lo = 0x1.a39ef35793c76p-33;
constexpr double kLog2e = 0x1.71547652b82fep0;
constexpr std::uint64_t kSqrtHalfBits = 0x3fe6a09e667f3bcdULL;

/// 1/n! for n <= 13, each one correctly rounded division of exact integers.
constexpr std::array<double, 14> kInverseFactorial = [] {
  std::array<double, 14> c{};
  double factorial = 1.0;
  for (int n = 0; n < 14; ++n) {
    if (n > 1) factorial *= n;
    c[n] = 1.0 / factorial;
  }
  return c;
}();

// log x = k ln2 + log z with z = x / 2^k in [sqrt(1/2), sqrt(2)), and
// log z = 2 atanh(s), s = (z-1)/(z+1), |s| <= 0.1716: the atanh series
// through s^21 truncates at a relative 7e-19.  k comes from integer
// arithmetic on the bits (biased so the shifts stay logical), so the
// loop auto-vectorises on every rung.
[[gnu::always_inline]] inline double logKernel(double x) {
  const auto bits = std::bit_cast<std::uint64_t>(x);
  const std::uint64_t kb = (bits - kSqrtHalfBits + (1024ULL << 52)) >> 52;
  const double z = std::bit_cast<double>(bits - ((kb - 1024) << 52));
  const double k =
      std::bit_cast<double>(kb + std::bit_cast<std::uint64_t>(kShifter)) -
      (kShifter + 1024.0);
  const double s = (z - 1.0) / (z + 1.0);
  const double s2 = s * s;
  double p = 1.0 / 21;
#pragma GCC unroll 10
  for (int n = 19; n >= 1; n -= 2) p = p * s2 + 1.0 / n;
  return k * kLn2Hi + (k * kLn2Lo + 2.0 * s * p);
}

// exp t = 2^k e^r with k = round(t / ln2) via the shifter, r reduced in
// two parts (Cody-Waite), |r| <= 0.347: Taylor through r^13 truncates at
// a relative 5e-18.  2^k is built in the exponent field (|k| <= 1010).
[[gnu::always_inline]] inline double expKernel(double t) {
  const double shifted = t * kLog2e + kShifter;
  const double k = shifted - kShifter;
  const double r = (t - k * kLn2Hi) - k * kLn2Lo;
  double p = kInverseFactorial[13];
#pragma GCC unroll 13
  for (int n = 12; n >= 0; --n) p = p * r + kInverseFactorial[n];
  const std::uint64_t scale = (std::bit_cast<std::uint64_t>(shifted) -
                               std::bit_cast<std::uint64_t>(kShifter) + 1023)
                              << 52;
  return p * std::bit_cast<double>(scale);
}

constexpr std::size_t kBlockNormals = 256;
constexpr std::size_t kMaxPairs = kBlockNormals / 2;

/// One block of samples: stage-1 pairs, stage-2 multipliers, normals and
/// approximate currents.  About 8 KiB, always on the stack.
struct Block {
  std::array<double, kMaxPairs> x, y, r2, m;
  /// Normals in stream order: z[s * draws + j] is sample s's j-th draw
  /// (one slot more for the x half a block may leave over).
  std::array<double, kBlockNormals + 1> z;
  std::array<double, kBlockNormals> current;
  std::size_t samples = 0;
  std::size_t pairs = 0;
  /// The x half of the previous block's last pair, consumed first.
  bool carried = false;
  double carryX = 0, carryR2 = 0, carryM = 0;
};

/// Where a sample's draws go: the first `lrsDraws` of its `draws` normals
/// belong to LRS rows, the rest to HRS rows (row order).  `base` sums the
/// currents of the rows whose sigma is zero.
struct Shape {
  int draws = 0;
  int lrsDraws = 0;
  double lrsScale = 0, lrsNegSigma = 0;
  double hrsScale = 0, hrsNegSigma = 0;
  double base = 0;
};

[[gnu::always_inline]] inline void approxStageImpl(Block& b, const Shape& sh) {
  // Multipliers once per pair: the log vectorises; the square root is a
  // separate loop so its errno check cannot block that.
  for (std::size_t p = 0; p < b.pairs; ++p) {
    b.m[p] = -2.0 * logKernel(b.r2[p]) / b.r2[p];
  }
  for (std::size_t p = 0; p < b.pairs; ++p) b.m[p] = std::sqrt(b.m[p]);

  // Normals in stream order: the carried half, then y, x of each pair.
  const std::size_t first = b.carried ? 1 : 0;
  if (b.carried) b.z[0] = b.carryX * b.carryM;
  for (std::size_t p = 0; p < b.pairs; ++p) {
    b.z[first + 2 * p] = b.y[p] * b.m[p];
    b.z[first + 2 * p + 1] = b.x[p] * b.m[p];
  }

  const std::size_t k = static_cast<std::size_t>(sh.draws);
  for (std::size_t s = 0; s < b.samples; ++s) b.current[s] = sh.base;
  for (std::size_t j = 0; j < k; ++j) {
    const bool lrs = j < static_cast<std::size_t>(sh.lrsDraws);
    const double scale = lrs ? sh.lrsScale : sh.hrsScale;
    const double negSigma = lrs ? sh.lrsNegSigma : sh.hrsNegSigma;
    const double* z = b.z.data() + j;
    for (std::size_t s = 0; s < b.samples; ++s) {
      b.current[s] += scale * expKernel(negSigma * z[s * k]);
    }
  }
}

void approxStagePortable(Block& b, const Shape& sh) { approxStageImpl(b, sh); }

#if defined(__x86_64__) || defined(__i386__)
__attribute__((target("avx2,fma"))) void approxStageAvx2(Block& b,
                                                         const Shape& sh) {
  approxStageImpl(b, sh);
}
__attribute__((target("avx512f,avx512dq"))) void approxStageAvx512(
    Block& b, const Shape& sh) {
  approxStageImpl(b, sh);
}
#endif

using ApproxStage = void (*)(Block&, const Shape&);

ApproxStage approxStageFor(sc::SimdMode mode) {
  switch (sc::resolveSimd(mode)) {
#if defined(__x86_64__) || defined(__i386__)
    case sc::SimdMode::Avx512: return approxStageAvx512;
    case sc::SimdMode::Avx2: return approxStageAvx2;
#endif
    default: return approxStagePortable;
  }
}

// --- stage 3 helpers -----------------------------------------------------------

/// The original per-sample expression: row order, LRS rows first, one
/// normal per row whose sigma is nonzero.
template <class NextNormal>
double exactCurrent(const DeviceParams& p, int onesCount, int numRows,
                    NextNormal&& nextNormal) {
  double current = 0.0;
  for (int i = 0; i < numRows; ++i) {
    const bool lrs = i < onesCount;
    const double median = lrs ? p.rLrsOhm : p.rHrsOhm;
    const double sigma = lrs ? p.sigmaLrs : p.sigmaHrs;
    current += sigma == 0.0
                   ? p.vRead / median
                   : p.vRead / (median * std::exp(sigma * nextNormal()));
  }
  return current;
}

/// Every sample drawn and decided exactly from a streaming normal source:
/// the path for a shape too wide for one block or a device whose sigma
/// puts the error bound outside the guard.
std::size_t countExactStreaming(const DeviceParams& p, const SenseAmp& sa,
                                SlOp op, int onesCount, int numRows,
                                bool expected, BlockMt64& eng,
                                std::size_t samples) {
  bool saved = false;
  double savedNormal = 0;
  const auto nextNormal = [&] {
    if (saved) {
      saved = false;
      return savedNormal;
    }
    const PolarPair pair = drawPolarPair(eng);
    savedNormal = polarNormal(pair.x, pair.r2);
    saved = true;
    return polarNormal(pair.y, pair.r2);
  };
  std::size_t wrong = 0;
  for (std::size_t s = 0; s < samples; ++s) {
    const double current = exactCurrent(p, onesCount, numRows, nextNormal);
    if (sa.decide(op, numRows, current) != expected) ++wrong;
  }
  return wrong;
}

}  // namespace

double approxLog(double x) { return logKernel(x); }

double approxExp(double t) { return expKernel(t); }

double approxCurrentErrorBound(double sigmaMax, int numRows) {
  // m carries the log error plus four roundings, the normal and the
  // exponent argument two more each; the exponent's absolute error
  // becomes the term's relative error (times e^x-1 <= 1.01x for x <= 0.01).
  // The terms then carry the exp error plus six roundings, and each of
  // the two row-order sums (approximate and exact) one rounding per row.
  constexpr double kUlp = 0x1p-53;
  const double exponentError =
      sigmaMax * kMaxAbsNormal * (kLogRelErr + 8 * kUlp);
  return 1.01 * exponentError + kExpRelErr + (6 + 2.0 * numRows) * kUlp;
}

std::size_t countMisdecisions(const DeviceParams& params, SlOp op,
                              int onesCount, int numRows, std::uint64_t seed,
                              std::size_t samples,
                              const MisdecisionKernelOptions& options) {
  validateDeviceParams(params);
  const SenseAmp sa(params);
  const bool expected = slIdeal(op, onesCount, numRows);

  Shape sh;
  const int lrsDraws = params.sigmaLrs != 0.0 ? onesCount : 0;
  const int hrsDraws = params.sigmaHrs != 0.0 ? numRows - onesCount : 0;
  sh.draws = lrsDraws + hrsDraws;
  sh.lrsDraws = lrsDraws;
  sh.lrsScale = params.vRead / params.rLrsOhm;
  sh.hrsScale = params.vRead / params.rHrsOhm;
  sh.lrsNegSigma = -params.sigmaLrs;
  sh.hrsNegSigma = -params.sigmaHrs;
  sh.base = (onesCount - lrsDraws) * sh.lrsScale +
            (numRows - onesCount - hrsDraws) * sh.hrsScale;

  if (sh.draws == 0) {
    // No variability on any activated row: every sample is the same.
    const double current =
        exactCurrent(params, onesCount, numRows, [] { return 0.0; });
    return sa.decide(op, numRows, current) != expected ? samples : 0;
  }

  BlockMt64 eng(seed);
  const double sigmaMax = std::max(lrsDraws > 0 ? params.sigmaLrs : 0.0,
                                   hrsDraws > 0 ? params.sigmaHrs : 0.0);
  const double errorBound = approxCurrentErrorBound(sigmaMax, numRows);
  const double guard = options.guard;
  if (static_cast<std::size_t>(sh.draws) > kBlockNormals ||
      sigmaMax * kMaxAbsNormal > kApproxExpRange || !(100 * errorBound <= guard)) {
    return countExactStreaming(params, sa, op, onesCount, numRows, expected,
                               eng, samples);
  }

  const ApproxStage approxStage = approxStageFor(options.simd);
  const double lo = sa.irefLow(op, numRows);
  const double hi = isWindowOp(op) ? sa.irefHigh(op, numRows) : lo;
  const double loBand = guard * lo;
  const double hiBand = guard * hi;

  Block b;
  const std::size_t k = static_cast<std::size_t>(sh.draws);
  const std::size_t perBlock = kBlockNormals / k;
  std::size_t wrong = 0;
  for (std::size_t done = 0; done < samples; done += b.samples) {
    b.samples = std::min(perBlock, samples - done);
    const std::size_t fresh = b.samples * k - (b.carried ? 1 : 0);
    b.pairs = (fresh + 1) / 2;
    for (std::size_t p = 0; p < b.pairs; ++p) {
      const PolarPair pair = drawPolarPair(eng);
      b.x[p] = pair.x;
      b.y[p] = pair.y;
      b.r2[p] = pair.r2;
    }

    approxStage(b, sh);

    const std::size_t first = b.carried ? 1 : 0;
    for (std::size_t s = 0; s < b.samples; ++s) {
      double current = b.current[s];
      if (std::abs(current - lo) <= loBand || std::abs(current - hi) <= hiBand) {
        std::size_t i = s * k;
        current = exactCurrent(params, onesCount, numRows, [&] {
          const std::size_t n = i++;
          if (n < first) return polarNormal(b.carryX, b.carryR2);
          const std::size_t p = (n - first) >> 1;
          return polarNormal(((n - first) & 1) ? b.x[p] : b.y[p], b.r2[p]);
        });
      }
      if (sa.decide(op, numRows, current) != expected) ++wrong;
    }

    b.carried = (fresh & 1) != 0;
    if (b.carried) {
      b.carryX = b.x[b.pairs - 1];
      b.carryR2 = b.r2[b.pairs - 1];
      b.carryM = b.m[b.pairs - 1];
    }
  }
  return wrong;
}

}  // namespace aimsc::reram
