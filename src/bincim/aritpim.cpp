#include "bincim/aritpim.hpp"

#include <stdexcept>

namespace aimsc::bincim {

namespace {

// Data-independent MAGIC gate counts of the decomposition in gates.cpp.
constexpr std::uint64_t kAndGates = 3;          // NOR(NOT a, NOT b)
constexpr std::uint64_t kFullAdderGates = 18;   // 2 XOR (5) + 2 AND (3) + OR (2)
constexpr std::uint64_t kSubtractGates = kFullAdderGates + 1;  // + NOT b_i

std::uint32_t lowBits(std::uint32_t v, int bits) {
  return v & ((std::uint32_t{1} << bits) - 1);
}

}  // namespace

bool AritPim::subtractGates(std::uint32_t a, std::uint32_t b, int bits,
                            std::uint32_t& diff) {
  // a + ~b + 1 ripple: the carry-out is 1 iff a >= b (no borrow).
  diff = 0;
  bool carry = true;
  for (int i = 0; i < bits; ++i) {
    const bool nb = engine_.notGate((b >> i) & 1u);
    const auto fa = engine_.fullAdder((a >> i) & 1u, nb, carry);
    diff |= std::uint32_t{fa.sum} << i;
    carry = fa.carry;
  }
  return carry;
}

std::uint32_t AritPim::add(std::uint32_t a, std::uint32_t b, int bits) {
  if (bits < 1 || bits > 31) throw std::invalid_argument("AritPim::add: bad width");
  a = lowBits(a, bits);
  b = lowBits(b, bits);
  if (engine_.faultFree()) {
    engine_.chargeFaultFree(kFullAdderGates * static_cast<std::uint64_t>(bits));
    return a + b;
  }
  std::uint32_t sum = 0;
  bool carry = false;
  for (int i = 0; i < bits; ++i) {
    const auto fa = engine_.fullAdder((a >> i) & 1u, (b >> i) & 1u, carry);
    sum |= std::uint32_t{fa.sum} << i;
    carry = fa.carry;
  }
  return sum | (std::uint32_t{carry} << bits);
}

std::uint32_t AritPim::subSaturating(std::uint32_t a, std::uint32_t b, int bits) {
  if (bits < 1 || bits > 31) throw std::invalid_argument("AritPim::sub: bad width");
  a = lowBits(a, bits);
  b = lowBits(b, bits);
  if (engine_.faultFree()) {
    engine_.chargeFaultFree(kSubtractGates * static_cast<std::uint64_t>(bits));
    return a >= b ? a - b : 0;
  }
  // A borrow (carry-out 0) means a negative result: clamp to 0.
  std::uint32_t diff = 0;
  return subtractGates(a, b, bits, diff) ? diff : 0;
}

std::uint32_t AritPim::mul(std::uint32_t a, std::uint32_t b, int bits) {
  if (bits < 1 || bits > 15) throw std::invalid_argument("AritPim::mul: bad width");
  const int accBits = 2 * bits;
  if (engine_.faultFree()) {
    // Per multiplier bit: `bits` partial-product ANDs + one accBits add.
    const auto n = static_cast<std::uint64_t>(bits);
    engine_.chargeFaultFree((kAndGates + 2 * kFullAdderGates) * n * n);
    return lowBits(a, bits) * lowBits(b, bits);
  }
  std::uint32_t acc = 0;
  for (int i = 0; i < bits; ++i) {
    // Partial product: AND of b's bit i with every bit of a, shifted by i.
    std::uint32_t pp = 0;
    const bool bi = (b >> i) & 1u;
    for (int j = 0; j < bits; ++j) {
      const bool pj = engine_.andGate(bi, (a >> j) & 1u);
      if (pj) pp |= std::uint32_t{1} << (i + j);
    }
    acc = lowBits(add(acc, pp, accBits), accBits);
  }
  return acc;
}

std::uint32_t AritPim::div(std::uint32_t num, std::uint32_t den, int numBits,
                           int denBits) {
  if (numBits < 1 || numBits > 24 || denBits < 1 || denBits > 24) {
    throw std::invalid_argument("AritPim::div: bad width");
  }
  const std::uint32_t qMax = (std::uint32_t{1} << numBits) - 1;
  // Restoring division over numBits quotient bits; remainder width is
  // denBits + 2.  A zero denominator saturates (matches the catastrophic
  // behaviour the paper observes for faulty integer division in matting).
  const int remBits = denBits + 2;
  const std::uint32_t d = lowBits(den, remBits);
  const bool closedForm = engine_.faultFree();
  if (closedForm) {
    engine_.chargeFaultFree(kSubtractGates * static_cast<std::uint64_t>(numBits) *
                            static_cast<std::uint64_t>(remBits));
  }
  std::uint32_t rem = 0;
  std::uint32_t q = 0;
  for (int i = numBits - 1; i >= 0; --i) {
    rem = lowBits((rem << 1) | ((num >> i) & 1u), remBits);
    // Trial subtraction rem - den, in closed form or through the gates.
    std::uint32_t diff = rem - d;
    const bool fits = closedForm ? rem >= d : subtractGates(rem, d, remBits, diff);
    if (fits) {  // rem >= den: commit subtraction, set quotient bit
      rem = diff;
      q |= std::uint32_t{1} << i;
    }
  }
  if (den == 0) return qMax;
  return q > qMax ? qMax : q;
}

}  // namespace aimsc::bincim
