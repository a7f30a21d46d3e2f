// Persistent measurement context (see measurement_context.hpp).
//
// The traversal itself is the paper's §III-E scheme: a boundary node (below
// the qubit variables) decodes its four integers by point evaluation and
// contributes |α|²·2ᵏ = (a²+b²+c²+d²) + √2(dc − da + ab + bc); interior
// weights accumulate in the exact ring Z[√2] with level-difference shifts
// for skipped variables. What is new relative to the former per-call
// WeightCalc is only the lifetime: the memos survive between queries.
#include "core/measurement_context.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "algebra/algebraic.hpp"
#include "core/observable.hpp"
#include "core/simulator.hpp"
#include "support/assert.hpp"
#include "support/metrics.hpp"

namespace sliq {

using bdd::Bdd;
using bdd::Edge;

namespace {

Zroot2 shiftLeft(const Zroot2& w, unsigned bits) {
  if (bits == 0 || w.isZero()) return w;
  return Zroot2(w.rational() << bits, w.irrational() << bits);
}

}  // namespace

MeasurementContext::MeasurementContext(SliqSimulator& sim) : sim_(&sim) {}

bool MeasurementContext::current() const {
  return mono_.valid() &&
         builtReorderings_ == sim_->mgr_.stats().reorderings;
}

void MeasurementContext::dropCaches() {
  // Trace only invalidations of a memo that was actually built: dropCaches
  // runs after every gate, but an empty drop is not an event worth a trace
  // row (and would swamp the trace on gate-heavy circuits).
  if (mono_.valid()) {
    if (metrics::Registry* reg = sim_->metricsRegistry()) {
      reg->gaugeMax("memo.peak_entries",
                    static_cast<double>(weightMemo_.size() + ampMemo_.size() +
                                        branchProbMemo_.size()));
      reg->instant("memo.invalidate");
    }
  }
  mono_ = Bdd();
  weightOne_.clear();
  weightMemo_.clear();
  ampMemo_.clear();
  branchProbMemo_.clear();
  totalValid_ = false;
}

void MeasurementContext::refreshIfStale() {
  if (current()) return;
  const metrics::ScopedSpan span(sim_->metricsRegistry(), "memo.fill");
  // monolithic() builds the hyper-function BDD, checking its layout (and
  // rejecting symbolic mode); holding it as a handle pins every node the
  // memos will reference across garbage collections.
  mono_ = sim_->monolithic();
  weightOne_.assign(sim_->n_, std::nullopt);
  weightMemo_.clear();
  ampMemo_.clear();
  branchProbMemo_.clear();
  assignment_.assign(sim_->mgr_.varCount(), false);
  totalValid_ = false;
  builtReorderings_ = sim_->mgr_.stats().reorderings;
}

// lint: memo-traversal — reads the DD through evalPoint only; creating
// nodes here could trigger a GC that moves the very edges being memoized.
AlgebraicComplex MeasurementContext::amplitude(Edge e) {
  const auto& mgr = sim_->mgr_;
  const std::vector<unsigned>& encVars = sim_->encVars_;
  const unsigned r = sim_->r_;
  BigInt coef[4];
  for (unsigned vecIdx = 0; vecIdx < 4; ++vecIdx) {
    assignment_[encVars[0]] = (vecIdx & 2) != 0;  // x0: selects {c,d}
    assignment_[encVars[1]] = (vecIdx & 1) != 0;  // x1: selects {b,d}
    std::vector<bool> bits(r);
    for (unsigned i = 0; i < r; ++i) {
      for (unsigned j = 2; j < encVars.size(); ++j)
        assignment_[encVars[j]] = ((i >> (j - 2)) & 1) != 0;
      bits[i] = mgr.evalPoint(e, assignment_);
    }
    coef[vecIdx] = BigInt::fromTwosComplementBits(bits);
  }
  return {std::move(coef[0]), std::move(coef[1]), std::move(coef[2]),
          std::move(coef[3]), 0};
}

// lint: memo-traversal
Zroot2 MeasurementContext::ampSq(Edge e) {
  const auto it = ampMemo_.find(e.raw);
  if (it != ampMemo_.end()) return it->second;
  Zroot2 w = amplitude(e).normSqScaled();
  ampMemo_.emplace(e.raw, w);
  return w;
}

// lint: memo-traversal
Zroot2 MeasurementContext::weightBelow(Edge e) {
  const auto& mgr = sim_->mgr_;
  const unsigned n = sim_->n_;
  if (mgr.edgeLevel(e) >= n) return ampSq(e);
  const auto it = weightMemo_.find(e.raw);
  if (it != weightMemo_.end()) return it->second;
  const unsigned level = mgr.edgeLevel(e);
  Zroot2 sum;
  for (const Edge child : {mgr.thenEdge(e), mgr.elseEdge(e)}) {
    const unsigned childLevel = std::min(mgr.edgeLevel(child), n);
    sum += shiftLeft(weightBelow(child), childLevel - level - 1);
  }
  weightMemo_.emplace(e.raw, sum);
  return sum;
}

struct MeasurementContext::PairSum {
  Zroot2 re;  // √2·Re
  Zroot2 im;  // √2·Im

  /// √2·(Re, Im) of an exact Z[ω] value x = aω³ + bω² + cω + d:
  /// Re = d + (c − a)/√2 and Im = b + (c + a)/√2.
  static PairSum of(const AlgebraicComplex& x) {
    return {Zroot2(x.c() - x.a(), x.d()), Zroot2(x.c() + x.a(), x.b())};
  }
  /// √2·w for a real w in Z[√2].
  static PairSum real(const Zroot2& w) {
    return {Zroot2(w.irrational() << 1, w.rational()), Zroot2()};
  }
  PairSum shifted(unsigned bits) const {
    return {shiftLeft(re, bits), shiftLeft(im, bits)};
  }
  /// sign·i times this value (sign = ±1).
  PairSum timesI(int sign) const {
    return sign < 0 ? PairSum{im, -re} : PairSum{-im, re};
  }
  PairSum& operator+=(const PairSum& o) {
    re += o.re;
    im += o.im;
    return *this;
  }
  PairSum& operator-=(const PairSum& o) {
    re -= o.re;
    im -= o.im;
    return *this;
  }
};

struct MeasurementContext::PauliDescent {
  std::vector<Pauli> opAtLevel;  // identity where the string has no factor
  unsigned deepestLevel = 0;     // deepest level with a non-identity factor
  std::unordered_map<std::uint64_t, PairSum> memo;
};

// lint: memo-traversal — reads the DD through the structural accessors and
// the two memos only; no gate, no node creation, no cache drop.
MeasurementContext::PairSum MeasurementContext::pairBelow(
    Edge bra, Edge ket, unsigned fromLevel, PauliDescent& call) {
  if (bra == bdd::kFalseEdge || ket == bdd::kFalseEdge) return {};
  const auto& mgr = sim_->mgr_;
  const unsigned n = sim_->n_;
  const unsigned level =
      std::min({mgr.edgeLevel(bra), mgr.edgeLevel(ket), n});
  // Levels both edges skip leave the amplitudes independent of that qubit:
  // I and X double the sum, Z and Y cancel it exactly.
  for (unsigned skipped = fromLevel; skipped < level; ++skipped) {
    const Pauli op = call.opAtLevel[skipped];
    if (op == Pauli::kZ || op == Pauli::kY) return {};
  }
  const unsigned doublings = level - fromLevel;
  // Below every non-identity factor a diagonal pair is a plain weight.
  if (bra == ket && level > call.deepestLevel)
    return PairSum::real(weightBelow(bra)).shifted(doublings);
  if (level >= n) {
    return PairSum::of(amplitude(bra).conjugate() * amplitude(ket))
        .shifted(doublings);
  }
  const std::uint64_t key =
      (static_cast<std::uint64_t>(bra.raw) << 32) | ket.raw;
  const auto it = call.memo.find(key);
  if (it != call.memo.end()) return it->second.shifted(doublings);
  const bool braHere = mgr.edgeLevel(bra) == level;
  const bool ketHere = mgr.edgeLevel(ket) == level;
  const Edge bra0 = braHere ? mgr.elseEdge(bra) : bra;
  const Edge bra1 = braHere ? mgr.thenEdge(bra) : bra;
  const Edge ket0 = ketHere ? mgr.elseEdge(ket) : ket;
  const Edge ket1 = ketHere ? mgr.thenEdge(ket) : ket;
  const unsigned below = level + 1;
  PairSum sum;
  switch (call.opAtLevel[level]) {
    case Pauli::kI:
      sum = pairBelow(bra0, ket0, below, call);
      sum += pairBelow(bra1, ket1, below, call);
      break;
    case Pauli::kZ:  // the qubit=1 half enters with a − sign
      sum = pairBelow(bra0, ket0, below, call);
      sum -= pairBelow(bra1, ket1, below, call);
      break;
    case Pauli::kX:
      sum = pairBelow(bra0, ket1, below, call);
      sum += pairBelow(bra1, ket0, below, call);
      break;
    case Pauli::kY:  // Y = [[0, −i], [i, 0]]
      sum = pairBelow(bra0, ket1, below, call).timesI(-1);
      sum += pairBelow(bra1, ket0, below, call).timesI(+1);
      break;
  }
  call.memo.emplace(key, sum);
  return sum.shifted(doublings);
}

MeasurementContext::PairSum MeasurementContext::pairSum(
    const PauliString& term) {
  const unsigned n = sim_->n_;
  SLIQ_REQUIRE(term.factors.back().qubit < n, "Pauli factor out of range");
  refreshIfStale();
  PauliDescent call;
  call.opAtLevel.assign(n, Pauli::kI);
  for (const PauliFactor& f : term.factors) {
    const unsigned level = sim_->mgr_.levelOfVar(f.qubit);
    call.opAtLevel[level] = f.op;
    call.deepestLevel = std::max(call.deepestLevel, level);
  }
  return pairBelow(mono_.edge(), mono_.edge(), 0, call);
}

double MeasurementContext::expectation(const PauliString& term) {
  if (term.isIdentity()) return 1.0;  // ⟨I⟩, exactly
  const PairSum sum = pairSum(term);
  // P is Hermitian, so ⟨ψ|P|ψ⟩ is real. The descent ran outside the
  // assertion, whose argument must stay side-effect-free.
  SLIQ_ASSERT(sum.im.isZero());
  if (sum.re.isZero()) return 0.0;
  return ratio(sum.re, PairSum::real(totalWeightScaled()).re);
}

const Bdd& MeasurementContext::hyperFunction() {
  refreshIfStale();
  return mono_;
}

const Zroot2& MeasurementContext::totalWeightScaled() {
  refreshIfStale();
  if (!totalValid_) {
    const Edge root = mono_.edge();
    total_ = shiftLeft(weightBelow(root),
                       std::min(sim_->mgr_.edgeLevel(root), sim_->n_));
    totalValid_ = true;
  }
  return total_;
}

double MeasurementContext::totalProbability() {
  SLIQ_CHECK(sim_->k_ >= 0, "negative k");
  return ratio(totalWeightScaled(),
               Zroot2(BigInt::pow2(static_cast<unsigned>(sim_->k_)),
                      BigInt(0)));
}

const Zroot2& MeasurementContext::weightOne(unsigned qubit) {
  SLIQ_REQUIRE(qubit < sim_->n_, "qubit out of range");
  refreshIfStale();
  if (!weightOne_[qubit]) {
    PauliString z;
    z.factors.push_back({qubit, Pauli::kZ});
    // √2·W − √2·(W₀ − W₁) = √2·2W₁, and PairSum stores √2·(u + v√2) as
    // (2v, u): W₁ = u + v√2 comes back by exact shifts.
    const Zroot2 twice = PairSum::real(totalWeightScaled()).re - pairSum(z).re;
    weightOne_[qubit] = Zroot2(twice.irrational() >> 1, twice.rational() >> 2);
  }
  return *weightOne_[qubit];
}

double MeasurementContext::probabilityOne(unsigned qubit) {
  const Zroot2& one = weightOne(qubit);
  if (one.isZero()) return 0.0;
  return ratio(one, totalWeightScaled());
}

Zroot2 MeasurementContext::computeTotalFresh() {
  // A context with empty memos over the same pinned hyper-function — a
  // from-scratch traversal that makes no manager call.
  MeasurementContext fresh(*sim_);
  fresh.mono_ = mono_;
  fresh.assignment_ = assignment_;
  fresh.builtReorderings_ = builtReorderings_;
  return fresh.totalWeightScaled();
}

double MeasurementContext::normalizationCorrection() {
  const Zroot2& weight = totalWeightScaled();
  SLIQ_CHECK(!weight.isZero(), "state has zero weight");
  SLIQ_CHECK(sim_->k_ >= 0, "negative k");
#ifndef NDEBUG
  // Callers that used to recompute the total from scratch now read the
  // cache; in debug builds verify the cache against a fresh traversal.
  // The traversal is hoisted out of the assertion: SLIQ_ASSERT compiles
  // to nothing under NDEBUG, so its argument must stay side-effect-free.
  const Zroot2 freshTotal = computeTotalFresh();
  SLIQ_ASSERT(weight == freshTotal);
#endif
  const Zroot2 pow2k(BigInt::pow2(static_cast<unsigned>(sim_->k_)),
                     BigInt(0));
  return std::sqrt(ratio(pow2k, weight));
}

std::vector<bool> MeasurementContext::sampleAll(Rng& rng) {
  refreshIfStale();
  const auto& mgr = sim_->mgr_;
  const unsigned n = sim_->n_;
  std::vector<bool> outcome(n);
  Edge e = mono_.edge();
  unsigned level = 0;
  while (level < n) {
    const unsigned nodeLevel = std::min(mgr.edgeLevel(e), n);
    // Qubits skipped by the edge have amplitude-independent outcomes:
    // both values are equally likely.
    while (level < nodeLevel) {
      outcome[mgr.varAtLevel(level)] = rng.flip();
      ++level;
    }
    if (level >= n) break;
    const Edge hi = mgr.thenEdge(e);
    const Edge lo = mgr.elseEdge(e);
    double p1;
    const auto cached = branchProbMemo_.find(e.raw);
    if (cached != branchProbMemo_.end()) {
      p1 = cached->second;
    } else {
      const Zroot2 w1 = shiftLeft(weightBelow(hi),
                                  std::min(mgr.edgeLevel(hi), n) - level - 1);
      const Zroot2 w0 = shiftLeft(weightBelow(lo),
                                  std::min(mgr.edgeLevel(lo), n) - level - 1);
      const Zroot2 sum = w0 + w1;
      SLIQ_CHECK(!sum.isZero(), "zero-weight state cannot be sampled");
      p1 = w1.isZero() ? 0.0 : ratio(w1, sum);
      branchProbMemo_.emplace(e.raw, p1);
    }
    const bool bit = rng.uniform() < p1;
    outcome[mgr.varAtLevel(level)] = bit;
    e = bit ? hi : lo;
    ++level;
  }
  return outcome;
}

std::vector<std::vector<bool>> MeasurementContext::sampleShots(unsigned count,
                                                               Rng& rng) {
  std::vector<std::vector<bool>> shots;
  shots.reserve(count);
  // Warm the caches once so every shot is a pure descent.
  if (count > 0) (void)totalWeightScaled();
  for (unsigned s = 0; s < count; ++s) shots.push_back(sampleAll(rng));
  return shots;
}

}  // namespace sliq
