/// \file aritpim.hpp
/// \brief Bit-serial in-memory binary arithmetic — the AritPIM-style binary
///        CIM baseline the paper compares against ([35], Table IV, Fig 4/5).
///
/// All operations are built from MagicEngine gates so that (a) gate-cycle
/// counts accumulate for the cost model and (b) device faults strike
/// individual gates, where a single high-bit error corrupts the result
/// badly — the effect behind the paper's 47% average quality drop for
/// traditional arithmetic (vs 5% for SC).
///
/// Complexities mirror the paper's discussion: addition O(n) (ripple),
/// multiplication O(n^2) (shift-add), division O(n^2) (restoring, "requires
/// O(n^2) write cycles").
///
/// Gate counts are data-independent, so on a fault-free engine (no
/// FaultModel attached: no gate can misdecide, no RNG is drawn) every op
/// computes its integer result directly and charges the same gate count in
/// one call.  With a FaultModel attached every gate runs through the engine
/// — the device-variability path, and the oracle the closed form is tested
/// against.
#pragma once

#include <cstdint>

#include "bincim/gates.hpp"

namespace aimsc::bincim {

class AritPim {
 public:
  explicit AritPim(MagicEngine& engine) : engine_(engine) {}

  /// \p bits-wide ripple-carry addition; result is (bits+1) wide.
  std::uint32_t add(std::uint32_t a, std::uint32_t b, int bits);

  /// a - b (two's complement); negative results clamp to 0 via the borrow.
  std::uint32_t subSaturating(std::uint32_t a, std::uint32_t b, int bits);

  /// \p bits x \p bits shift-add multiplication; result 2*bits wide.
  std::uint32_t mul(std::uint32_t a, std::uint32_t b, int bits);

  /// Restoring division: \p numBits-wide numerator / \p denBits-wide
  /// denominator -> numBits-wide quotient (saturates on overflow/zero-div).
  std::uint32_t div(std::uint32_t num, std::uint32_t den, int numBits,
                    int denBits);

  MagicEngine& engine() { return engine_; }

 private:
  /// Gate-level a + ~b + 1 over \p bits into \p diff; returns the
  /// carry-out (1 iff a >= b).
  bool subtractGates(std::uint32_t a, std::uint32_t b, int bits,
                     std::uint32_t& diff);

  MagicEngine& engine_;
};

}  // namespace aimsc::bincim
