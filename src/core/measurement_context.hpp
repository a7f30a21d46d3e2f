// MeasurementContext — persistent measurement state for SliqSimulator.
//
// The paper computes probabilities by one memoized traversal of the
// monolithic hyper-function BDD (Eq. 12). This class makes that memo
// *persistent*: it owns a handle to the monolithic BDD plus the
// weightBelow/ampSq memo tables, so K shots cost one exact Z[√2] weight
// traversal plus K·n cheap descents instead of K full traversals. This
// context is the only owner of the hyper-function and of its validity:
// every state mutation (gate application, collapse, k-alignment, snapshot
// load) drops the caches through SliqSimulator::invalidateMonolithic, and a
// change of the manager's reordering counter marks them stale, so the next
// query rebuilds — and re-checks the Eq. 12 variable layout.
//
// Memo safety: entries are keyed by raw edge words, which stay valid as
// long as the underlying nodes are live. The context therefore keeps Bdd
// handles to every root it has memoized under (the monolithic BDD and the
// per-qubit restrictions), pinning all memoized cones across garbage
// collections. Node *levels* enter the memoized weights, so a dynamic
// reordering invalidates everything — hence the reordering-counter check.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "bdd/bdd.hpp"
#include "bigint/zroot2.hpp"
#include "support/rng.hpp"

namespace sliq {

class SliqSimulator;

class MeasurementContext {
 public:
  /// Binds to `sim` (which must outlive the context). Caches build lazily
  /// on first query; construction itself does no BDD work.
  explicit MeasurementContext(SliqSimulator& sim);

  /// Σ|α_i|²·2ᵏ over all basis states, exactly (cached).
  const Zroot2& totalWeightScaled();
  /// Σ|α_i|² as a double (1.0 up to one final rounding when normalized).
  double totalProbability();
  /// Pr[qubit = 1], exact ratio of Z[√2] weights rounded once.
  double probabilityOne(unsigned qubit);
  /// √(2ᵏ / current weight); see SliqSimulator::normalizationCorrection.
  double normalizationCorrection();

  /// Exact ⟨⊗_{q: zmask[q]} Z_q⟩ on the current state, by ONE signed
  /// non-collapsing weight traversal of the monolithic hyper-function:
  /// identical to the weightBelow recursion except that a THEN branch under
  /// a masked qubit variable enters negatively (Z phase bookkeeping) and a
  /// masked variable skipped by an edge zeroes the branch (the qubit's two
  /// outcomes are equally weighted there, so +w and −w cancel exactly).
  /// The signed sum and the total weight live in Z[√2]; their ratio is
  /// rounded once. `zmask` is indexed by qubit; an empty mask yields 1.
  double expectationZ(const std::vector<bool>& zmask);

  /// One full-register shot (bit q = outcome of qubit q) by weighted
  /// descent of the monolithic BDD; does not collapse the register.
  std::vector<bool> sampleAll(Rng& rng);
  /// `count` independent shots sharing one warmed-up weight memo. Deviate
  /// consumption per shot is identical to sampleAll, so a fixed seed yields
  /// the same shot sequence as `count` sampleAll calls.
  std::vector<std::vector<bool>> sampleShots(unsigned count, Rng& rng);

  /// True when the cached traversal state matches the simulator's current
  /// state (i.e. the next query will be a cheap cache read).
  bool current() const;

  /// Releases every cached handle and memo now. Called by the simulator on
  /// state mutation so stale BDD cones are not pinned across later gates;
  /// the next query rebuilds from scratch.
  void dropCaches();

 private:
  void refreshIfStale();
  /// Signed weight over qubit variables at levels [level(e), n) under
  /// `zmask`; `memo` is per-call (keyed by edge word) because the values
  /// depend on the mask, unlike the persistent unsigned weightMemo_.
  Zroot2 signedWeightBelow(bdd::Edge e, const std::vector<bool>& zmask,
                           std::unordered_map<std::uint32_t, Zroot2>& memo);
  /// Weight over qubit variables at levels [level(e), n).
  Zroot2 weightBelow(bdd::Edge e);
  /// |α|²·2ᵏ of the boundary node e (which encodes the four integers).
  Zroot2 ampSq(bdd::Edge e);
  /// Σ over all qubit assignments of |α|²·2ᵏ below `f`'s root.
  Zroot2 rootWeight(const bdd::Bdd& f);
  /// Recomputation from empty memos over the pinned mono_ (debug
  /// cross-check; builds no second hyper-function).
  Zroot2 computeTotalFresh();

  SliqSimulator* sim_;
  bdd::Bdd mono_;                    // pins the monolithic cone
  std::vector<bdd::Bdd> restrictedOne_;  // per-qubit f ∧ q, built lazily
  std::unordered_map<std::uint32_t, Zroot2> weightMemo_;
  std::unordered_map<std::uint32_t, Zroot2> ampMemo_;
  /// Per-edge THEN-branch probability for the sampling descent. A node's
  /// branch ratio is path-independent, so after the first visit a descent
  /// step is one hash lookup instead of two Z[√2] shifts and a division.
  std::unordered_map<std::uint32_t, double> branchProbMemo_;
  std::vector<bool> assignment_;     // scratch for ampSq point evaluation
  Zroot2 total_;
  bool totalValid_ = false;
  std::uint64_t builtReorderings_ = 0;
};

}  // namespace sliq
