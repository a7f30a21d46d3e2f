#include "qmdd/qmdd_sim.hpp"

#include <cmath>
#include <unordered_map>
#include <utility>

#include "circuit/optimizer.hpp"
#include "support/assert.hpp"
#include "support/serialize.hpp"

namespace sliq::qmdd {

namespace {

struct U2 {
  Complex m[4];  // row-major
};

// Shared Table I constants (circuit/gate.cpp) — one definition of 1/√2 and
// ω for every dense engine, so cross-engine differential tests compare the
// exact same matrices.
U2 gateMatrix(GateKind kind) {
  SLIQ_REQUIRE(kind != GateKind::kMeasure && kind != GateKind::kReset,
               "measure/reset are not unitary gates — dynamic circuits "
               "execute through Engine::runDynamic");
  U2 u;
  gateUnitary2x2(kind, u.m);
  return u;
}

const Complex kIdentityBlock[4] = {1, 0, 0, 1};
const Complex kProjectOne[4] = {0, 0, 0, 1};

}  // namespace

QmddSimulator::QmddSimulator(unsigned numQubits, std::uint64_t basisState)
    : QmddSimulator(numQubits, basisState, Config{}) {}

QmddSimulator::QmddSimulator(unsigned numQubits, std::uint64_t basisState,
                             const Config& config)
    : n_(numQubits), mgr_(config.dd) {
  SLIQ_REQUIRE(numQubits >= 1, "need at least one qubit");
  std::vector<bool> basis(n_);
  for (unsigned q = 0; q < n_ && q < 64; ++q)
    basis[q] = ((basisState >> q) & 1) != 0;
  mgr_.setRoot(mgr_.makeBasisState(n_, basis));
}

void QmddSimulator::applyControlledU(const Complex u[4],
                                     const std::vector<unsigned>& controls,
                                     unsigned target) {
  // M = I + (⊗_{c} P1) ⊗_{target} (U − I) ⊗ I elsewhere.
  const Complex uMinusI[4] = {u[0] - 1.0, u[1], u[2], u[3] - 1.0};
  std::vector<const Complex*> blocks(n_, kIdentityBlock);
  for (unsigned c : controls) blocks[c] = kProjectOne;
  blocks[target] = uMinusI;
  const MEdge kron = mgr_.makeKronecker(n_, blocks);
  const MEdge gate = mgr_.mAdd(mgr_.makeIdentity(n_), kron);
  mgr_.setRoot(mgr_.mvMultiply(gate, mgr_.root()));
}

void QmddSimulator::applyGate(const Gate& gate) {
  validateGate(gate, n_);
  mgr_.gcIfNeeded();
  if (gate.kind == GateKind::kSwap) {
    // SWAP(a,b) = CX(b→a) · CX(a→b) · CX(b→a); Fredkin adds the controls to
    // the middle CX (textbook decomposition).
    const unsigned a = gate.targets[0];
    const unsigned b = gate.targets[1];
    const U2 x = gateMatrix(GateKind::kX);
    applyControlledU(x.m, {b}, a);
    std::vector<unsigned> middle = gate.controls;
    middle.push_back(a);
    applyControlledU(x.m, middle, b);
    applyControlledU(x.m, {b}, a);
    return;
  }
  const U2 u = gateMatrix(gate.kind);
  applyControlledU(u.m, gate.controls, gate.target());
}

void QmddSimulator::applyTwoQubitU(const Complex u[16], unsigned qLow,
                                   unsigned qHigh) {
  SLIQ_REQUIRE(qLow < qHigh && qHigh < n_, "bad two-qubit block support");
  mgr_.gcIfNeeded();
  // Gate DD = Σ_{r,c} E_{rc} at qHigh ⊗ (2×2 sub-block at qLow), identity
  // on every other level. All-zero sub-blocks contribute nothing and are
  // skipped (every diagonal fused block has two of them).
  bool haveSum = false;
  MEdge sum{};
  for (unsigned r = 0; r < 2; ++r) {
    for (unsigned c = 0; c < 2; ++c) {
      const Complex sub[4] = {u[(2 * r + 0) * 4 + (2 * c + 0)],
                              u[(2 * r + 0) * 4 + (2 * c + 1)],
                              u[(2 * r + 1) * 4 + (2 * c + 0)],
                              u[(2 * r + 1) * 4 + (2 * c + 1)]};
      if (sub[0] == Complex{} && sub[1] == Complex{} && sub[2] == Complex{} &&
          sub[3] == Complex{}) {
        continue;
      }
      Complex outer[4] = {0, 0, 0, 0};
      outer[r * 2 + c] = 1;
      std::vector<const Complex*> blocks(n_, kIdentityBlock);
      blocks[qHigh] = outer;
      blocks[qLow] = sub;
      const MEdge term = mgr_.makeKronecker(n_, blocks);
      sum = haveSum ? mgr_.mAdd(sum, term) : term;
      haveSum = true;
    }
  }
  SLIQ_CHECK(haveSum, "two-qubit block is the zero matrix");
  mgr_.setRoot(mgr_.mvMultiply(sum, mgr_.root()));
}

void QmddSimulator::applyFusedOp(const FusedOp& op) {
  switch (op.kind) {
    case FusedOp::Kind::kGate:
      applyGate(op.gate);
      return;
    case FusedOp::Kind::k1q:
      mgr_.gcIfNeeded();
      applyControlledU(op.m1.data(), {}, op.q0);
      return;
    case FusedOp::Kind::k2q:
      applyTwoQubitU(op.m2.data(), op.q0, op.q1);
      return;
  }
}

void QmddSimulator::run(const QuantumCircuit& circuit) {
  SLIQ_REQUIRE(circuit.numQubits() == n_, "circuit width mismatch");
  for (const Gate& g : circuit.gates()) applyGate(g);
}

void QmddSimulator::runFused(const FusedCircuit& circuit) {
  SLIQ_REQUIRE(circuit.numQubits() == n_, "circuit width mismatch");
  for (const FusedOp& op : circuit.ops()) applyFusedOp(op);
}

Complex QmddSimulator::amplitude(std::uint64_t basisState) {
  return mgr_.getAmplitude(mgr_.root(), n_, basisState);
}

double QmddSimulator::totalProbability() {
  return mgr_.totalProbability(mgr_.root(), n_);
}

double QmddSimulator::probabilityOne(unsigned qubit) {
  return mgr_.probabilityOne(mgr_.root(), n_, qubit);
}

bool QmddSimulator::measure(unsigned qubit, double random) {
  SLIQ_REQUIRE(random >= 0.0 && random < 1.0, "random must be in [0,1)");
  const double p1 = probabilityOne(qubit);
  const bool outcome = random < p1;
  mgr_.setRoot(mgr_.collapse(mgr_.root(), n_, qubit, outcome));
  return outcome;
}

std::uint64_t QmddSimulator::sampleAll(Rng& rng) {
  std::unordered_map<NodeId, double> memo;
  return mgr_.sampleOnce(mgr_.root(), n_, rng, memo);
}

std::vector<std::uint64_t> QmddSimulator::sampleShots(unsigned count,
                                                      Rng& rng) {
  std::vector<std::uint64_t> shots;
  shots.reserve(count);
  std::unordered_map<NodeId, double> memo;  // shared across the batch
  for (unsigned s = 0; s < count; ++s)
    shots.push_back(mgr_.sampleOnce(mgr_.root(), n_, rng, memo));
  return shots;
}

double QmddSimulator::expectationPauli(
    const std::vector<std::uint8_t>& paulis) {
  const double norm = totalProbability();
  SLIQ_CHECK(norm > 0, "zero state has no expectation values");
  // ⟨P⟩ of a Hermitian Pauli string is real; the imaginary part the double
  // arithmetic leaves behind is rounding noise and is dropped with it.
  return mgr_.pauliExpectation(mgr_.root(), n_, paulis).real() / norm;
}

bool QmddSimulator::isNormalized(double tolerance) {
  return std::abs(totalProbability() - 1.0) <= tolerance;
}

// ---- snapshots (DESIGN.md §12) ---------------------------------------------
//
// Payload layout (`sliq.state.v1`, representation "qmdd"):
//
//   u32 numQubits        must match the receiving simulator
//   u64 nodeCount        vector nodes reachable from the registered root
//   nodeCount × record   children-first:
//                          u32 level,
//                          2 × (u32 ref, f64 re, f64 im)   |0⟩/|1⟩ cofactors
//   root record          u32 ref, f64 re, f64 im
//
// A ref is 0xffffffff for the terminal, otherwise the (0-based) index of an
// earlier record. Weights travel as explicit doubles — re-interning them
// into the loader's ComplexTable reproduces the same entries bit for bit
// because the audit guarantees table entries sit pairwise farther apart
// than the intern tolerance.

void QmddSimulator::saveStatePayload(serialize::Writer& out) {
  out.u32(n_);

  // Children-first walk of the root cone (levels strictly decrease, so an
  // explicit stack with an expansion flag suffices).
  std::unordered_map<NodeId, std::uint32_t> localIds;
  std::vector<NodeId> order;
  std::vector<std::pair<NodeId, bool>> stack;
  if (mgr_.root().node != kTerminal) stack.emplace_back(mgr_.root().node, false);
  while (!stack.empty()) {
    auto [id, expanded] = stack.back();
    stack.pop_back();
    if (localIds.count(id) != 0) continue;
    if (expanded) {
      localIds.emplace(id, static_cast<std::uint32_t>(order.size()));
      order.push_back(id);
      continue;
    }
    stack.emplace_back(id, true);
    const VNode& node = mgr_.vnode(id);
    for (const VEdge& child : node.e) {
      if (child.node != kTerminal && localIds.count(child.node) == 0) {
        stack.emplace_back(child.node, false);
      }
    }
  }

  const ComplexTable& ct = mgr_.complexTable();
  const auto writeEdge = [&](const VEdge& e) {
    out.u32(e.node == kTerminal ? kTerminal : localIds.at(e.node));
    const Complex w = ct.value(e.w);
    out.f64(w.real());
    out.f64(w.imag());
  };
  out.u64(order.size());
  for (const NodeId id : order) {
    const VNode& node = mgr_.vnode(id);
    out.u32(static_cast<std::uint32_t>(node.level));
    writeEdge(node.e[0]);
    writeEdge(node.e[1]);
  }
  writeEdge(mgr_.root());
}

void QmddSimulator::loadStatePayload(serialize::Reader& in) {
  const std::uint32_t n = in.u32("qmdd.numQubits");
  if (n != n_) {
    throw serialize::SerializationError(
        "snapshot field 'qmdd.numQubits': payload says " + std::to_string(n) +
        " qubit(s) but the simulator has " + std::to_string(n_));
  }
  const std::uint64_t nodeCount = in.u64("qmdd.nodeCount");

  // Rebuild bottom-up through makeVNode: saved child weights compose with
  // the built child's own top weight (exactly 1 for a normalized snapshot),
  // and makeVNode re-derives the normalization — so a corrupt file can at
  // worst produce a *valid* diagram of the wrong state, which the checksum
  // has already ruled out. Nothing touches the registered root until the
  // final setRoot, so a throw mid-way leaves the state unchanged (the
  // orphaned nodes are swept by the next collection).
  ComplexTable& ct = mgr_.complexTable();
  std::vector<VEdge> built;
  std::vector<std::int32_t> levels;
  const auto readEdge = [&](std::int32_t parentLevel, const char* field) {
    const std::uint32_t ref = in.u32(field);
    const double re = in.f64(field);
    const double im = in.f64(field);
    const CIndex w = ct.lookup(Complex(re, im));
    if (ref == kTerminal) {
      // Zero-weight edges point at the terminal from any level; nonzero
      // edges only from level 0 (the audit's full-depth invariant).
      if (parentLevel != 0 && !ct.isZero(w)) {
        throw serialize::SerializationError(
            "snapshot field '" + std::string(field) + "' at byte offset " +
            std::to_string(in.offset()) +
            ": nonzero-weight terminal child under level " +
            std::to_string(parentLevel) + " breaks the full-depth invariant");
      }
      return VEdge{kTerminal, w};
    }
    if (ct.isZero(w)) {
      throw serialize::SerializationError(
          "snapshot field '" + std::string(field) + "' at byte offset " +
          std::to_string(in.offset()) +
          ": zero-weight child must point at the terminal, not node record " +
          std::to_string(ref));
    }
    if (ref >= built.size()) {
      throw serialize::SerializationError(
          "snapshot field '" + std::string(field) + "' at byte offset " +
          std::to_string(in.offset()) + ": ref " + std::to_string(ref) +
          " points past the " + std::to_string(built.size()) +
          " node(s) defined so far (children must precede parents)");
    }
    if (levels[ref] != parentLevel - 1) {
      throw serialize::SerializationError(
          "snapshot field '" + std::string(field) + "' at byte offset " +
          std::to_string(in.offset()) + ": child at level " +
          std::to_string(levels[ref]) + " under level " +
          std::to_string(parentLevel) + " breaks the full-depth invariant");
    }
    return VEdge{built[ref].node, ct.mul(w, built[ref].w)};
  };
  for (std::uint64_t i = 0; i < nodeCount; ++i) {
    const std::uint32_t level = in.u32("qmdd.node.level");
    if (level >= n_) {
      throw serialize::SerializationError(
          "snapshot field 'qmdd.node.level' at byte offset " +
          std::to_string(in.offset()) + ": level " + std::to_string(level) +
          " out of range for " + std::to_string(n_) + " qubit(s)");
    }
    const auto l = static_cast<std::int32_t>(level);
    const VEdge e0 = readEdge(l, "qmdd.node.e0");
    const VEdge e1 = readEdge(l, "qmdd.node.e1");
    built.push_back(mgr_.makeVNode(l, e0, e1));
    levels.push_back(l);
  }
  const VEdge root = readEdge(static_cast<std::int32_t>(n_), "qmdd.root");

  mgr_.setRoot(root);
  mgr_.gcIfNeeded();
}

std::vector<std::complex<double>> QmddSimulator::statevector(
    std::uint64_t budgetBytes) {
  requireDenseBudget(n_, budgetBytes);
  std::vector<std::complex<double>> out(std::uint64_t{1} << n_,
                                        std::complex<double>(0.0, 0.0));
  const ComplexTable& ct = mgr_.complexTable();
  // Weighted descent accumulating downward edge-weight products; a zero
  // weight prunes the whole subtree, so sparse states cost far fewer than
  // 2^n visits. Terminal edges with nonzero weight only occur below level 0
  // (the full-depth invariant), where the subtree is the single entry.
  const auto fill = [&](const auto& self, VEdge e, std::uint64_t base,
                        Complex weight) -> void {
    const Complex w = weight * ct.value(e.w);
    if (w.real() == 0.0 && w.imag() == 0.0) return;
    if (e.node == kTerminal) {
      out[base] = w;
      return;
    }
    const VNode& node = mgr_.vnode(e.node);
    self(self, node.e[0], base, w);
    self(self, node.e[1], base | (std::uint64_t{1} << node.level), w);
  };
  fill(fill, mgr_.root(), 0, Complex(1.0, 0.0));
  return out;
}

void QmddSimulator::loadDense(
    const std::vector<std::complex<double>>& amplitudes) {
  SLIQ_REQUIRE(amplitudes.size() == (std::uint64_t{1} << n_),
               "dense amplitude array size must be 2^numQubits");
  // Bottom-up rebuild through makeVNode, exactly like loadStatePayload:
  // the unique table re-merges equal suffixes (a product state costs O(n)
  // distinct nodes) and makeVNode re-derives the edge normalization.
  // Nothing touches the registered root until the final setRoot, so a
  // throw mid-way leaves the state unchanged.
  ComplexTable& ct = mgr_.complexTable();
  const auto build = [&](const auto& self, std::int32_t level,
                         std::uint64_t base) -> VEdge {
    if (level < 0) {
      return VEdge{kTerminal, ct.lookup(Complex(amplitudes[base]))};
    }
    const VEdge e0 = self(self, level - 1, base);
    const VEdge e1 =
        self(self, level - 1, base | (std::uint64_t{1} << level));
    return mgr_.makeVNode(level, e0, e1);
  };
  mgr_.setRoot(build(build, static_cast<std::int32_t>(n_) - 1, 0));
  mgr_.gcIfNeeded();
}

}  // namespace sliq::qmdd
