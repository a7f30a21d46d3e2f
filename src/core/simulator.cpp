#include "core/simulator.hpp"

#include <algorithm>
#include <string>

#include "core/measurement_context.hpp"  // complete type for ctx_ cleanup
#include "support/assert.hpp"
#include "support/audit.hpp"

namespace sliq {

using bdd::Bdd;
using bdd::kFalseEdge;
using bdd::kTrueEdge;

namespace {

SliqSimulator::Config withVars(SliqSimulator::Config config, unsigned n) {
  // Qubit variables are 0..n-1; encoding variables are created lazily later.
  config.bdd.initialVars = n;
  return config;
}

}  // namespace

SliqSimulator::SliqSimulator(unsigned numQubits, std::uint64_t basisState)
    : SliqSimulator(numQubits, basisState, Config{}) {}

SliqSimulator::SliqSimulator(unsigned numQubits, std::uint64_t basisState,
                             const Config& config)
    : config_(withVars(config, numQubits)),
      mgr_(config_.bdd),
      n_(numQubits),
      r_(std::max(2u, config.initialBitWidth)) {
  SLIQ_REQUIRE(numQubits >= 1, "need at least one qubit");
  SLIQ_REQUIRE(numQubits >= 64 || basisState < (std::uint64_t{1} << std::min(numQubits, 63u)),
               "basis state out of range");
  // Initial state |i⟩: every slice is constant 0 except F_{d_0}, the
  // minterm of the basis state (paper Eq. 6).
  std::vector<bdd::Literal> minterm;
  minterm.reserve(n_);
  for (unsigned q = 0; q < n_; ++q) {
    const bool bit = q < 64 && ((basisState >> q) & 1) != 0;
    minterm.push_back({q, bit});
  }
  for (auto& slices : vec_) slices.assign(r_, zero());
  vec_[3][0] = Bdd(&mgr_, mgr_.cubeEdge(minterm));
  stats_.maxBitWidth = r_;
}

SliqSimulator::SliqSimulator(unsigned numQubits, SymbolicInit,
                             const Config& config)
    : config_(withVars(config, 2 * numQubits)),
      mgr_(config_.bdd),
      n_(numQubits),
      r_(std::max(2u, config.initialBitWidth)),
      symbolic_(true) {
  SLIQ_REQUIRE(numQubits >= 1, "need at least one qubit");
  // Initial d0 = ⋀_q (q_q XNOR x_q): the state is the superposed family of
  // all basis columns, one per assignment to the input labels x (variables
  // n..2n-1, below the qubit variables in the order).
  Bdd pattern = one();
  for (unsigned q = 0; q < n_; ++q) {
    pattern &= ~(qvar(q) ^ qvar(n_ + q));
  }
  for (auto& slices : vec_) slices.assign(r_, zero());
  vec_[3][0] = pattern;
  stats_.maxBitWidth = r_;
}

Bdd SliqSimulator::qvar(unsigned q) const { return bdd::makeVar(mgr_, q); }
Bdd SliqSimulator::zero() const { return Bdd(&mgr_, kFalseEdge); }
Bdd SliqSimulator::one() const { return Bdd(&mgr_, kTrueEdge); }

SliqSimulator::Slices SliqSimulator::extended(const Slices& v) const {
  Slices out = v;
  out.push_back(v.back());  // sign extension
  return out;
}

SliqSimulator::Slices SliqSimulator::swapHalves(const Slices& v,
                                                unsigned t) const {
  Slices out;
  out.reserve(v.size());
  const Bdd qt = qvar(t);
  for (const Bdd& f : v) {
    out.push_back(qt.ite(f.cofactor(t, false), f.cofactor(t, true)));
  }
  return out;
}

SliqSimulator::Slices SliqSimulator::select(const Bdd& cond, const Slices& a,
                                            const Slices& b) const {
  SLIQ_ASSERT(a.size() == b.size());
  Slices out;
  out.reserve(a.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    out.push_back(cond.ite(a[i], b[i]));
  return out;
}

SliqSimulator::Slices SliqSimulator::rippleSum(const Slices& g,
                                               const Slices& d,
                                               const Bdd& carry0) const {
  // Paper's Car/Sum forms: Sum(A,B,C) = A⊕B⊕C, Car(A,B,C) = AB ∨ (A∨B)C.
  SLIQ_ASSERT(d.empty() || d.size() == g.size());
  Slices out;
  out.reserve(g.size());
  Bdd carry = carry0;
  for (std::size_t i = 0; i < g.size(); ++i) {
    if (d.empty()) {
      out.push_back(g[i] ^ carry);
      carry = g[i] & carry;
    } else {
      out.push_back(g[i] ^ d[i] ^ carry);
      carry = (g[i] & d[i]) | ((g[i] | d[i]) & carry);
    }
  }
  // The width was pre-extended by one sign slice, so the final carry can
  // never produce an overflowing value (sum of two r-bit values fits r+1).
  return out;
}

void SliqSimulator::trim() {
  if (!config_.trimBitWidth) return;
  while (r_ >= 2) {
    bool redundant = true;
    for (const auto& slices : vec_)
      redundant &= slices[r_ - 1] == slices[r_ - 2];
    if (!redundant) break;
    for (auto& slices : vec_) slices.pop_back();
    --r_;
  }
}

void SliqSimulator::applyGate(const Gate& gate) {
  validateGate(gate, n_);
  switch (gate.kind) {
    case GateKind::kX:
    case GateKind::kCnot:
      if (gate.controls.empty()) applyX(gate.target());
      else applyCnot(gate.controls, gate.target());
      break;
    case GateKind::kY: applyY(gate.target()); break;
    case GateKind::kZ:
    case GateKind::kCz: {
      Bdd condition = qvar(gate.target());
      for (unsigned c : gate.controls) condition &= qvar(c);
      applyPhaseFlip(condition);
      break;
    }
    case GateKind::kH: applyH(gate.target()); break;
    case GateKind::kS: applyS(gate.target(), /*inverse=*/false); break;
    case GateKind::kSdg: applyS(gate.target(), /*inverse=*/true); break;
    case GateKind::kT: applyT(gate.target(), /*inverse=*/false); break;
    case GateKind::kTdg: applyT(gate.target(), /*inverse=*/true); break;
    case GateKind::kRx90: applyRx90(gate.target()); break;
    case GateKind::kRy90: applyRy90(gate.target()); break;
    case GateKind::kSwap:
      applySwap(gate.controls, gate.targets[0], gate.targets[1]);
      break;
    case GateKind::kMeasure:
    case GateKind::kReset:
      SLIQ_REQUIRE(false,
                   "measure/reset are not unitary gates — dynamic circuits "
                   "execute through Engine::runDynamic");
      break;
  }
  ++stats_.gatesApplied;
  stats_.maxBitWidth = std::max(stats_.maxBitWidth, r_);
  invalidateMonolithic();
}

void SliqSimulator::run(const QuantumCircuit& circuit) {
  SLIQ_REQUIRE(circuit.numQubits() == n_, "circuit width mismatch");
  for (const Gate& g : circuit.gates()) applyGate(g);
}

const bdd::Bdd& SliqSimulator::slice(unsigned vectorIndex,
                                     unsigned bit) const {
  SLIQ_REQUIRE(vectorIndex < 4 && bit < r_, "slice index out of range");
  return vec_[vectorIndex][bit];
}

std::size_t SliqSimulator::stateNodeCount() const {
  std::vector<bdd::Edge> roots;
  for (const auto& slices : vec_)
    for (const Bdd& f : slices) roots.push_back(f.edge());
  return mgr_.nodeCountMulti(roots);
}

void SliqSimulator::auditInvariants() const {
  static const std::string kStructure = "sliq-bitsliced-state";
  mgr_.auditInvariants();
  if (r_ < 1) audit::fail(kStructure, "bit width r fell below 1");
  for (unsigned v = 0; v < 4; ++v) {
    if (vec_[v].size() != r_) {
      audit::fail(kStructure, "vector " + std::to_string(v) + " holds " +
                                  std::to_string(vec_[v].size()) +
                                  " slices, expected r = " +
                                  std::to_string(r_));
    }
    for (unsigned bit = 0; bit < r_; ++bit) {
      if (!vec_[v][bit].valid()) {
        audit::fail(kStructure, "slice (" + std::to_string(v) + ", " +
                                    std::to_string(bit) +
                                    ") holds a detached BDD handle");
      }
    }
  }
  // k grows by at most 1 per √2-introducing gate (H/Rx90/Ry90 and the
  // equivalence checker's alignment kernel, bounded by gate count), and
  // the dyadic renormalization after collapse keeps it non-negative.
  const std::int64_t kBound =
      2 * static_cast<std::int64_t>(stats_.gatesApplied) +
      2 * static_cast<std::int64_t>(n_) + 64;
  if (k_ < 0 || k_ > kBound) {
    audit::fail(kStructure, "k-scalar " + std::to_string(k_) +
                                " outside its reachable range [0, " +
                                std::to_string(kBound) + "]");
  }
}

}  // namespace sliq
