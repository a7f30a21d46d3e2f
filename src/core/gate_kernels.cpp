// Gate application kernels — the Boolean update formulas of the paper's
// Table II, re-derived from first principles (the published table has
// typographic losses in its overlines; every derivation is spelled out
// below and each kernel is validated against the dense simulator in
// tests/core/test_gates_vs_statevector.cpp).
//
// Notation: for gate target t, "swap(V)" is the vector whose entry at
// (x, q_t = b) is V's entry at (x, q_t = ¬b). Conditional negation uses the
// two's-complement identity −v = ¬v + 1, realized with a ripple carry whose
// initial value is the negation condition.
//
// Amplitude algebra (ω = e^{iπ/4}, α = aω³ + bω² + cω + d):
//   α·ω  = bω³ + cω² + dω − a         (cyclic shift, sign on wraparound)
//   α·ω² = cω³ + dω² − aω − b
//   α·(−i) = α·ω⁶ = −aω − bω² + ... worked per gate below.
#include "core/simulator.hpp"
#include "support/assert.hpp"

namespace sliq {

using bdd::Bdd;

// ---- shared Table II building blocks ---------------------------------------

SliqSimulator::Slices SliqSimulator::complemented(Slices v) {
  for (Bdd& bit : v) bit = ~bit;
  return v;
}

// x − y = x + ¬y + 1.
SliqSimulator::Slices SliqSimulator::difference(const Slices& x,
                                                const Slices& y) const {
  return rippleSum(x, complemented(y), one());
}

// Per vector: V̂ = ITE(P, ¬V, V) + P, i.e. G = P̄·F ∨ P·F̄, C₀ = P,
// F̂ = Sum(G, 0, C).
SliqSimulator::Slices SliqSimulator::negateWhere(const Bdd& cond,
                                                 const Slices& v) const {
  Slices g;
  g.reserve(v.size());
  for (const Bdd& bit : v) g.push_back(bit ^ cond);
  return rippleSum(g, {}, cond);
}

// ITE(cond, ¬negate, keep) summed with carry-in cond realizes
// "under cond: −negate, else keep".
SliqSimulator::Slices SliqSimulator::selectNegated(const Bdd& cond,
                                                   const Slices& negate,
                                                   const Slices& keep) const {
  Slices g;
  g.reserve(keep.size());
  for (std::size_t i = 0; i < keep.size(); ++i)
    g.push_back(cond.ite(~negate[i], keep[i]));
  return rippleSum(g, {}, cond);
}

// ---- whole-state scalar kernels --------------------------------------------

// Multiply every amplitude by √2 = ω − ω³ and increment k: the represented
// state is unchanged, but the scalar k grows by one — used to align two
// states' k before slice-wise comparison. Coefficient rotation:
//   (a,b,c,d)·√2 = (b − d, a + c, b + d, c − a).
void SliqSimulator::multiplyStateBySqrt2() {
  const Slices a = extended(vec_[0]), b = extended(vec_[1]),
               c = extended(vec_[2]), d = extended(vec_[3]);
  vec_[0] = difference(b, d);
  vec_[1] = rippleSum(a, c, zero());
  vec_[2] = rippleSum(b, d, zero());
  vec_[3] = difference(c, a);
  ++k_;
  ++r_;
  trim();
  invalidateMonolithic();
}

// Multiply every amplitude by the global phase ω: (a,b,c,d) → (b,c,d,−a).
void SliqSimulator::multiplyStateByOmega() {
  const Slices a = extended(vec_[0]);
  vec_[0] = extended(vec_[1]);
  vec_[1] = extended(vec_[2]);
  vec_[2] = extended(vec_[3]);
  vec_[3] = rippleSum(complemented(a), {}, one());
  ++r_;
  trim();
  invalidateMonolithic();
}

// ---- permutation gates (no arithmetic, width unchanged) -------------------

// X on t: amplitudes at (x, t=b) and (x, t=¬b) exchange.
// Table II: F̂ = q̄t·F|qt ∨ qt·F|q̄t.
void SliqSimulator::applyX(unsigned t) {
  for (auto& slices : vec_) slices = swapHalves(slices, t);
}

// CNOT/Toffoli with control cube Qc: exchange the t-halves where all
// controls are 1. Table II: F̂ = Q̄c·F ∨ Qc·q̄t·F|Qc,qt ∨ Qc·qt·F|Qc,q̄t.
void SliqSimulator::applyCnot(const std::vector<unsigned>& controls,
                              unsigned t) {
  Bdd controlCube = one();
  for (unsigned c : controls) controlCube &= qvar(c);
  std::vector<bdd::Literal> cubeT0, cubeT1;
  for (unsigned c : controls) {
    cubeT0.push_back({c, true});
    cubeT1.push_back({c, true});
  }
  cubeT0.push_back({t, false});
  cubeT1.push_back({t, true});
  const Bdd qt = qvar(t);
  for (auto& slices : vec_) {
    for (Bdd& f : slices) {
      const Bdd swapped = qt.ite(f.cofactorCube(cubeT0),  // t=1 takes old t=0
                                 f.cofactorCube(cubeT1));
      f = controlCube.ite(swapped, f);
    }
  }
}

// SWAP/Fredkin: exchange amplitudes where (t0, t1) ∈ {(0,1), (1,0)} under
// the control cube. Table II (Fredkin row).
void SliqSimulator::applySwap(const std::vector<unsigned>& controls,
                              unsigned t0, unsigned t1) {
  Bdd active = qvar(t0) ^ qvar(t1);
  for (unsigned c : controls) active &= qvar(c);
  std::vector<bdd::Literal> cube01, cube10;  // (t0, t1) values of the source
  for (unsigned c : controls) {
    cube01.push_back({c, true});
    cube10.push_back({c, true});
  }
  cube01.push_back({t0, false});
  cube01.push_back({t1, true});
  cube10.push_back({t0, true});
  cube10.push_back({t1, false});
  const Bdd qt0 = qvar(t0);
  for (auto& slices : vec_) {
    for (Bdd& f : slices) {
      // Under active (t0 ≠ t1): the (1,0) half takes the old (0,1) value
      // and vice versa.
      const Bdd swapped = qt0.ite(f.cofactorCube(cube01),
                                  f.cofactorCube(cube10));
      f = active.ite(swapped, f);
    }
  }
}

// ---- phase-flip gates (conditional negation) -------------------------------

// Z (condition = qt), CZ (condition = qc·qt), multi-controlled Z: negate
// amplitudes where the condition holds (Table II Z/CZ rows).
void SliqSimulator::applyPhaseFlip(const Bdd& condition) {
  for (auto& slices : vec_) slices = negateWhere(condition, extended(slices));
  ++r_;
  trim();
}

// ---- phase-rotation gates (coefficient permutations) -----------------------

// S on t: amplitudes with qt=1 multiply by i = ω²:
//   α·ω² : (a,b,c,d) → (c, d, −a, −b).
// Table II S row: F̂a = q̄t·Fa ∨ qt·Fc ;  F̂c = Sum(q̄t·Fc ∨ qt·F̄a, 0, qt).
// S† multiplies by −i = ω⁶: (a,b,c,d) → (−c, −d, a, b).
void SliqSimulator::applyS(unsigned t, bool inverse) {
  const Bdd qt = qvar(t);
  const Slices a = extended(vec_[0]), b = extended(vec_[1]),
               c = extended(vec_[2]), d = extended(vec_[3]);
  if (!inverse) {
    vec_[0] = select(qt, c, a);
    vec_[1] = select(qt, d, b);
    vec_[2] = selectNegated(qt, a, c);
    vec_[3] = selectNegated(qt, b, d);
  } else {
    vec_[2] = select(qt, a, c);
    vec_[3] = select(qt, b, d);
    vec_[0] = selectNegated(qt, c, a);
    vec_[1] = selectNegated(qt, d, b);
  }
  ++r_;
  trim();
}

// T on t: amplitudes with qt=1 multiply by ω:
//   α·ω : (a,b,c,d) → (b, c, d, −a).
// Table II T row. T† multiplies by ω⁷: (a,b,c,d) → (−d, a, b, c).
void SliqSimulator::applyT(unsigned t, bool inverse) {
  const Bdd qt = qvar(t);
  const Slices a = extended(vec_[0]), b = extended(vec_[1]),
               c = extended(vec_[2]), d = extended(vec_[3]);
  if (!inverse) {
    vec_[0] = select(qt, b, a);
    vec_[1] = select(qt, c, b);
    vec_[2] = select(qt, d, c);
    vec_[3] = selectNegated(qt, a, d);
  } else {
    vec_[1] = select(qt, a, b);
    vec_[2] = select(qt, b, c);
    vec_[3] = select(qt, c, d);
    vec_[0] = selectNegated(qt, d, a);
  }
  ++r_;
  trim();
}

// Y on t: α'(x, t=0) = −i·α(x, t=1), α'(x, t=1) = +i·α(x, t=0).
//   i·α : (a,b,c,d) → (c, d, −a, −b);  −i·α : → (−c, −d, a, b).
// Per vector: a' = ±swap(c) (negated on the t=0 half), etc. Table II Y row.
void SliqSimulator::applyY(unsigned t) {
  const Bdd qt = qvar(t);
  const Bdd nqt = ~qt;
  const Slices sa = swapHalves(extended(vec_[0]), t);
  const Slices sb = swapHalves(extended(vec_[1]), t);
  const Slices sc = swapHalves(extended(vec_[2]), t);
  const Slices sd = swapHalves(extended(vec_[3]), t);
  vec_[0] = negateWhere(nqt, sc);  // a' = −swap(c) at t=0, +swap(c) at t=1
  vec_[1] = negateWhere(nqt, sd);
  vec_[2] = negateWhere(qt, sa);   // c' = +swap(a) at t=0, −swap(a) at t=1
  vec_[3] = negateWhere(qt, sb);
  ++r_;
  trim();
}

// ---- superposition gates (true additions; k increments) -------------------

// H on t (Proposition 1): with the 1/√2 factor folded into k,
//   α'(x, t=0) = α(x,0) + α(x,1),  α'(x, t=1) = α(x,0) − α(x,1).
// Component vectors: G = F|q̄t (both halves = old t=0 value) and
// D = ±F|qt (negated on the t=1 half), summed with carry-in qt.
void SliqSimulator::applyH(unsigned t) { applyHadamardLike(t, qvar(t)); }

// Ry(π/2) on t: matrix (1/√2)[[1, −1], [1, 1]]:
//   α'(x,0) = α(x,0) − α(x,1),  α'(x,1) = α(x,0) + α(x,1).
// Same structure as H with the negation on the t=0 half (carry-in q̄t).
// ITE normalizes the complemented condition, so the recursion is H's.
void SliqSimulator::applyRy90(unsigned t) {
  applyHadamardLike(t, ~qvar(t));
}

void SliqSimulator::applyHadamardLike(unsigned t, const Bdd& negateWhen) {
  for (auto& slices : vec_) {
    const Slices f = extended(slices);
    Slices g, d;
    g.reserve(f.size());
    d.reserve(f.size());
    for (const Bdd& bit : f) {
      g.push_back(bit.cofactor(t, false));
      const Bdd hiCof = bit.cofactor(t, true);
      d.push_back(negateWhen.ite(~hiCof, hiCof));
    }
    slices = rippleSum(g, d, negateWhen);
  }
  ++k_;
  ++r_;
  trim();
}

// Rx(π/2) on t: matrix (1/√2)[[1, −i], [−i, 1]]: α' = α + (−i)·swap(α).
//   (−i)·β : (a,b,c,d) → (−c, −d, a, b), so
//   a' = a − swap(c), b' = b − swap(d), c' = c + swap(a), d' = d + swap(b).
// Table II Rx row: carries 1,1,0,0 realize the two subtractions.
void SliqSimulator::applyRx90(unsigned t) {
  const Slices a = extended(vec_[0]), b = extended(vec_[1]),
               c = extended(vec_[2]), d = extended(vec_[3]);
  const Slices sa = swapHalves(a, t), sb = swapHalves(b, t),
               sc = swapHalves(c, t), sd = swapHalves(d, t);
  vec_[0] = difference(a, sc);
  vec_[1] = difference(b, sd);
  vec_[2] = rippleSum(c, sa, zero());
  vec_[3] = rippleSum(d, sb, zero());
  ++k_;
  ++r_;
  trim();
}

}  // namespace sliq
