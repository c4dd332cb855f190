#include "bincim/gates.hpp"

namespace aimsc::bincim {

MagicEngine::MagicEngine(const reram::FaultModel* faultModel, std::uint64_t seed,
                         double faultScale)
    : faultModel_(faultModel), faultScale_(faultScale), eng_(seed) {}

void MagicEngine::chargeFaultFree(std::uint64_t gates) {
  switch (protection_) {
    case Protection::None: gateOps_ += gates; return;
    case Protection::Dmr: gateOps_ += 2 * gates; return;
    case Protection::Tmr: gateOps_ += 3 * gates; return;
  }
}

bool MagicEngine::injectOnce(bool ideal, double p) {
  ++gateOps_;
  if (p > 0.0 && unit_(eng_) < p) return !ideal;
  return ideal;
}

bool MagicEngine::inject(bool ideal, reram::SlOp op, int ones, int rows) {
  const double p =
      faultModel_ == nullptr
          ? 0.0
          : faultScale_ * faultModel_->misdecisionProb(op, ones, rows);
  const bool first = injectOnce(ideal, p);
  if (protection_ == Protection::None) return first;
  if (protection_ == Protection::Dmr) {
    // DMR with retry: a second execution checks the first; on disagreement
    // a third one breaks the tie.
    const bool second = injectOnce(ideal, p);
    if (first == second) return first;
    return injectOnce(ideal, p);
  }
  // TMR: unconditional triple execution, majority vote.
  const bool second = injectOnce(ideal, p);
  const bool third = injectOnce(ideal, p);
  return (first && second) || (first && third) || (second && third);
}

bool MagicEngine::norGate(bool a, bool b) {
  const int ones = (a ? 1 : 0) + (b ? 1 : 0);
  return inject(!(a || b), reram::SlOp::Nor, ones, 2);
}

bool MagicEngine::notGate(bool a) {
  return inject(!a, reram::SlOp::Not, a ? 1 : 0, 1);
}

bool MagicEngine::orGate(bool a, bool b) { return notGate(norGate(a, b)); }

bool MagicEngine::andGate(bool a, bool b) {
  return norGate(notGate(a), notGate(b));
}

bool MagicEngine::xorGate(bool a, bool b) {
  // 5-NOR XOR: the classic 4-NOR network computes XNOR; a final inverter
  // gives XOR.  n1 = NOR(a,b); xnor = NOR(NOR(a,n1), NOR(b,n1)).
  const bool n1 = norGate(a, b);
  const bool xnor = norGate(norGate(a, n1), norGate(b, n1));
  return notGate(xnor);
}

MagicEngine::FullAdderOut MagicEngine::fullAdder(bool a, bool b, bool cin) {
  const bool axb = xorGate(a, b);
  const bool sum = xorGate(axb, cin);
  // carry = MAJ(a, b, cin) = OR(AND(a,b), AND(cin, a XOR b))
  const bool t1 = andGate(a, b);
  const bool t2 = andGate(cin, axb);
  const bool carry = orGate(t1, t2);
  return {sum, carry};
}

}  // namespace aimsc::bincim
