/// \file gates.hpp
/// \brief MAGIC-style in-memory Boolean gate engine for the binary CIM
///        baseline (AritPIM [35], MAGIC [23]).
///
/// Binary CIM computes with *stateful* logic: each NOR gate is a write
/// cycle programming an output cell from the currents of the input cells.
/// Like scouting logic, the decision is threshold-based and fails when the
/// device distributions overlap, so the same FaultModel supplies the
/// per-gate misdecision probabilities (paper Sec. IV-C: "In digital CIM, a
/// fault is a bit flip").  Every gate execution is counted; the counts feed
/// the system model's binary-CIM cost and the Table IV fault study.
#pragma once

#include <cstdint>
#include <random>

#include "reram/fault_model.hpp"

namespace aimsc::bincim {

class MagicEngine {
 public:
  /// \param faultModel nullptr = fault-free execution
  /// \param faultScale scales each gate's misdecision probability.  Our
  ///        pedagogical decomposition (5-NOR XOR, 18-NOR full adder) issues
  ///        ~4x the gate cycles of an optimized AritPIM mapping, so an
  ///        equal-fault-surface comparison uses faultScale ~ 0.25 (same
  ///        rationale as the analytic cycle counts in the cost profile).
  explicit MagicEngine(const reram::FaultModel* faultModel = nullptr,
                       std::uint64_t seed = 0xb17c, double faultScale = 1.0);

  /// Temporal-redundancy protection for binary CIM (the "costly protection
  /// scheme" discussion of Sec. IV-C / [41]): Dmr executes each gate twice
  /// and breaks disagreements with a third execution (~2.06x gate cycles,
  /// residual error ~p^2); Tmr always executes three times and takes the
  /// majority (3x gate cycles, residual error ~3p^2 — the retry-and-vote
  /// knob of the reliability campaign, cost-predictable unlike Dmr).
  enum class Protection { None, Dmr, Tmr };
  void setProtection(Protection p) { protection_ = p; }
  Protection protection() const { return protection_; }

  /// Primitive stateful gates (one write cycle each).
  bool norGate(bool a, bool b);
  bool notGate(bool a);

  /// Composite gates built from NOR/NOT primitives (costs accumulate).
  bool orGate(bool a, bool b);
  bool andGate(bool a, bool b);
  bool xorGate(bool a, bool b);

  struct FullAdderOut {
    bool sum;
    bool carry;
  };
  /// Full adder composed of the primitives above.
  FullAdderOut fullAdder(bool a, bool b, bool cin);

  /// True when no FaultModel is attached: every gate decides ideally and
  /// draws no randomness, so a caller may compute a gate network's result
  /// in closed form and charge its count through chargeFaultFree().
  bool faultFree() const { return faultModel_ == nullptr; }

  /// Charges \p gates fault-free primitive executions under the current
  /// protection: x1 None, x2 Dmr (the two executions always agree), x3
  /// Tmr — exactly what the gate path counts when no gate can fail.
  void chargeFaultFree(std::uint64_t gates);

  /// Total primitive gate executions (MAGIC write cycles) so far.
  std::uint64_t gateOps() const { return gateOps_; }
  void resetCounter() { gateOps_ = 0; }

 private:
  bool inject(bool ideal, reram::SlOp op, int ones, int rows);

  bool injectOnce(bool ideal, double p);

  const reram::FaultModel* faultModel_;
  double faultScale_;
  Protection protection_ = Protection::None;
  std::uint64_t gateOps_ = 0;
  std::mt19937_64 eng_;
  std::uniform_real_distribution<double> unit_{0.0, 1.0};
};

}  // namespace aimsc::bincim
