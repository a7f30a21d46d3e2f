// Measurement and probability calculation (paper §III-E).
//
// The 4r slice BDDs are merged into one monolithic hyper-function BDD
// (Eq. 12): two fresh variables x0 x1 select the vector (a,b,c,d) and
// ⌈log2 r⌉ more encode the bit index; all encoding variables sit *below*
// the qubit variables. Probabilities are then computed by one memoized
// top-down traversal whose node weights live in the exact ring Z[√2]
// (substituting the paper's MPFR floats — see DESIGN.md §4). The traversal
// state is persistent: every query below delegates to the simulator's
// MeasurementContext (measurement_context.cpp), which keeps the monolithic
// handle and the weightBelow/ampSq memos alive until the state mutates.
#include <algorithm>

#include "core/measurement_context.hpp"
#include "core/simulator.hpp"
#include "support/assert.hpp"

namespace sliq {

using bdd::Bdd;

SliqSimulator::~SliqSimulator() = default;

void SliqSimulator::invalidateMonolithic() {
  // Eagerly release the context's handles into the stale hyper-function so
  // GC can reclaim its cone while further gates run.
  if (ctx_) ctx_->dropCaches();
}

void SliqSimulator::reorder() {
  // Unpin the hyper-function first: sifting would otherwise move its
  // encoding-variable nodes like any others, possibly above the qubit
  // variables, where Eq. 12's layout no longer holds.
  invalidateMonolithic();
  mgr_.reorderSift();
}

void SliqSimulator::ensureEncodingVars() {
  SLIQ_REQUIRE(!symbolic_,
               "measurement is unavailable in symbolic (equivalence) mode");
  unsigned indexBits = 0;
  while ((1u << indexBits) < r_) ++indexBits;
  const unsigned needed = 2 + indexBits;
  while (encVars_.size() < needed) encVars_.push_back(mgr_.newVar());
  // The hyper-function layout requires every encoding variable to sit below
  // every qubit variable in the order (Fig. 2). This holds by construction
  // (encoding variables are created later) and must survive any reordering.
  unsigned maxQubitLevel = 0;
  for (unsigned q = 0; q < n_; ++q)
    maxQubitLevel = std::max(maxQubitLevel, mgr_.levelOfVar(q));
  for (unsigned v : encVars_)
    SLIQ_CHECK(mgr_.levelOfVar(v) > maxQubitLevel,
               "encoding variables reordered above qubit variables");
}

Bdd SliqSimulator::monolithic() {
  ensureEncodingVars();
  Bdd result = zero();
  for (unsigned vecIdx = 0; vecIdx < 4; ++vecIdx) {
    Bdd vecPart = zero();
    for (unsigned i = 0; i < r_; ++i) {
      if (vec_[vecIdx][i].isZero()) continue;
      std::vector<bdd::Literal> sel;
      sel.push_back({encVars_[0], (vecIdx & 2) != 0});
      sel.push_back({encVars_[1], (vecIdx & 1) != 0});
      for (unsigned j = 2; j < encVars_.size(); ++j)
        sel.push_back({encVars_[j], ((i >> (j - 2)) & 1) != 0});
      const Bdd cube(&mgr_, mgr_.cubeEdge(sel));
      vecPart |= vec_[vecIdx][i] & cube;
    }
    result |= vecPart;
  }
  return result;
}

MeasurementContext& SliqSimulator::measurementContext() {
  if (!ctx_) ctx_ = std::make_unique<MeasurementContext>(*this);
  return *ctx_;
}

Zroot2 SliqSimulator::totalWeightScaled() {
  return measurementContext().totalWeightScaled();
}

double SliqSimulator::totalProbability() {
  return measurementContext().totalProbability();
}

double SliqSimulator::probabilityOne(unsigned qubit) {
  return measurementContext().probabilityOne(qubit);
}

double SliqSimulator::normalizationCorrection() {
  return measurementContext().normalizationCorrection();
}

bool SliqSimulator::measure(unsigned qubit, double random) {
  SLIQ_REQUIRE(qubit < n_, "qubit out of range");
  SLIQ_REQUIRE(random >= 0.0 && random < 1.0, "random must be in [0,1)");
  MeasurementContext& ctx = measurementContext();
  const bool outcome = random < ctx.probabilityOne(qubit);
  // The collapsed state's weight Σ|α|²·2ᵏ is the kept half of the marginal
  // just computed, so no hyper-function is rebuilt after the collapse.
  const Zroot2 weight = outcome
                            ? ctx.weightOne(qubit)
                            : ctx.totalWeightScaled() - ctx.weightOne(qubit);
  // Collapse (paper: connect the discarded half to the constant-0 node):
  // conjoin every slice with the observed literal. Renormalization is
  // implicit — later probabilities divide by the new exact total weight.
  const Bdd literal = outcome ? qvar(qubit) : ~qvar(qubit);
  for (auto& slices : vec_)
    for (Bdd& f : slices) f &= literal;
  invalidateMonolithic();
  // Post-measure renormalization (DESIGN.md §8): scaling the physical
  // state by √2 is free in this representation — it is one decrement of
  // the k scalar — so whenever the post-collapse weight is an exact power
  // of two (always for Clifford circuits, whose measurement probabilities
  // are dyadic) the state is renormalized *exactly* by re-pointing k at
  // it. Non-dyadic weights (T-circuits) keep the implicit path: every
  // query divides by the current weight, so probabilities are identical
  // either way.
  if (weight.irrational().isZero() && weight.rational().signum() > 0) {
    const BigInt& u = weight.rational();
    const unsigned bits = u.bitLength();
    if (u == BigInt::pow2(bits - 1)) {
      k_ = static_cast<std::int64_t>(bits) - 1;  // Σ|α|² = 2ᵏ/2ᵏ = 1 again
    }
  }
  return outcome;
}

std::vector<bool> SliqSimulator::sampleAll(Rng& rng) {
  return measurementContext().sampleAll(rng);
}

std::vector<std::vector<bool>> SliqSimulator::sampleShots(unsigned count,
                                                          Rng& rng) {
  return measurementContext().sampleShots(count, rng);
}

}  // namespace sliq
