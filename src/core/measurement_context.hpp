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
// long as the underlying nodes are live. The context therefore keeps a Bdd
// handle to the monolithic BDD, the one root every query descends, pinning
// all memoized cones across garbage collections. Node *levels* enter the
// memoized weights, so a dynamic reordering invalidates everything — hence
// the reordering-counter check.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "bdd/bdd.hpp"
#include "bigint/zroot2.hpp"
#include "support/rng.hpp"

namespace sliq {

class AlgebraicComplex;
class SliqSimulator;
struct PauliString;

class MeasurementContext {
 public:
  /// Binds to `sim` (which must outlive the context). Caches build lazily
  /// on first query; construction itself does no BDD work.
  explicit MeasurementContext(SliqSimulator& sim);

  /// Σ|α_i|²·2ᵏ over all basis states, exactly (cached).
  const Zroot2& totalWeightScaled();
  /// Σ|α_i|² as a double (1.0 up to one final rounding when normalized).
  double totalProbability();
  /// Σ|α_i|²·2ᵏ over the basis states with `qubit` = 1, exactly (cached):
  /// a Z at the qubit's level in the expectation descent gives
  /// √2·(W₀ − W₁), and √2·W minus that is √2·2W₁. Creates no BDD node.
  const Zroot2& weightOne(unsigned qubit);
  /// Pr[qubit = 1] = weightOne / totalWeightScaled, rounded once.
  double probabilityOne(unsigned qubit);
  /// √(2ᵏ / current weight); see SliqSimulator::normalizationCorrection.
  double normalizationCorrection();

  /// Exact ⟨P⟩ of one Pauli string (its coefficient ignored) as a pure
  /// query: one pair-memoized descent of the monolithic hyper-function
  /// computes Σₓ conj(α(x))·(Pα)(x) over (bra, ket) edge pairs. At a qubit's
  /// level I and Z pair same-branch children (Z negates the qubit=1 half);
  /// X and Y pair opposite branches (Y weights the bra's qubit=0 half by −i
  /// and its qubit=1 half by +i). A level both children skip contributes ×2
  /// under I or X and 0 under Z or Y. Boundary pairs combine the two decoded
  /// Z[ω] amplitudes exactly, and a diagonal pair below the deepest
  /// non-identity level is read from the persistent weight memo. The Z[√2]
  /// ratio to the total weight is rounded once. No gate is applied, no BDD
  /// node is created and no cache is dropped.
  double expectation(const PauliString& term);

  /// The pinned Eq. 12 hyper-function BDD (built on demand) — the
  /// inspection analogue of the paper's Fig. 2.
  const bdd::Bdd& hyperFunction();

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
  /// √2·Re and √2·Im of a partial Σ conj(bra)·P·ket — both lie in Z[√2].
  struct PairSum;
  /// Per-call state of expectation(): the Pauli operator at each level and
  /// the pair memo, keyed by the two 32-bit edge words.
  struct PauliDescent;
  /// Σ over qubit variables at levels [fromLevel, n) of
  /// conj(α_bra)·(P α_ket), for edges that both start at or below
  /// `fromLevel`.
  PairSum pairBelow(bdd::Edge bra, bdd::Edge ket, unsigned fromLevel,
                    PauliDescent& call);
  /// Σₓ conj(α(x))·(Pα)(x) of `term` over the whole hyper-function.
  PairSum pairSum(const PauliString& term);
  /// Weight over qubit variables at levels [level(e), n).
  Zroot2 weightBelow(bdd::Edge e);
  /// α·√2ᵏ of the boundary node e, decoded from its four integers by point
  /// evaluation over the encoding variables.
  AlgebraicComplex amplitude(bdd::Edge e);
  /// |α|²·2ᵏ of the boundary node e.
  Zroot2 ampSq(bdd::Edge e);
  /// Recomputation from empty memos over the pinned mono_ (debug
  /// cross-check; builds no second hyper-function).
  Zroot2 computeTotalFresh();

  SliqSimulator* sim_;
  bdd::Bdd mono_;                    // pins the monolithic cone
  std::vector<std::optional<Zroot2>> weightOne_;  // per qubit, lazily
  std::unordered_map<std::uint32_t, Zroot2> weightMemo_;
  std::unordered_map<std::uint32_t, Zroot2> ampMemo_;
  /// Per-edge THEN-branch probability for the sampling descent. A node's
  /// branch ratio is path-independent, so after the first visit a descent
  /// step is one hash lookup instead of two Z[√2] shifts and a division.
  std::unordered_map<std::uint32_t, double> branchProbMemo_;
  std::vector<bool> assignment_;     // scratch for amplitude point evaluation
  Zroot2 total_;
  bool totalValid_ = false;
  std::uint64_t builtReorderings_ = 0;
};

}  // namespace sliq
