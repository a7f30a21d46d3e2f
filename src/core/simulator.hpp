// SliqSimulator — the paper's contribution: exact quantum circuit simulation
// by bit-slicing the algebraically represented state vector into BDDs.
//
// State representation (paper §III-B): an n-qubit state is
//     |ψ⟩_i = (a_i·ω³ + b_i·ω² + c_i·ω + d_i) / √2ᵏ
// with the four integer vectors a,b,c,d stored bit-slice-wise: slice j of
// vector a is the Boolean function F_{a_j}(q₀..q_{n-1}) giving bit j of a_i
// at basis state i. Integers use r-bit two's complement, r grown on demand.
//
// Gates are applied with the pre-characterized Boolean formulas of Table II
// (re-derived in gate_kernels.cpp); measurement uses the monolithic
// hyper-function BDD of Eq. 12 with *exact* Z[√2] probability accumulation
// (our substitute for the paper's MPFR usage — see DESIGN.md).
#pragma once

#include <array>
#include <complex>
#include <cstdint>
#include <memory>
#include <vector>

#include "algebra/algebraic.hpp"
#include "bdd/bdd.hpp"
#include "bdd/manager.hpp"
#include "bigint/zroot2.hpp"
#include "circuit/circuit.hpp"
#include "support/memuse.hpp"
#include "support/rng.hpp"

namespace sliq::serialize {
class Writer;
class Reader;
}  // namespace sliq::serialize

namespace sliq {

class MeasurementContext;

class SliqSimulator {
 public:
  struct Config {
    /// Settings forwarded to the underlying BDD package.
    bdd::BddManager::Config bdd;
    /// Initial integer bit width. The paper uses 32 and grows on overflow;
    /// our default starts minimal (2) and grows by sign extension. Kept
    /// configurable for the bit-width ablation bench.
    unsigned initialBitWidth = 2;
    /// Trim redundant sign-extension slices after arithmetic gates.
    bool trimBitWidth = true;
  };

  /// Prepares |basisState⟩ (bit q of basisState = initial value of qubit q).
  explicit SliqSimulator(unsigned numQubits, std::uint64_t basisState = 0);
  SliqSimulator(unsigned numQubits, std::uint64_t basisState,
                const Config& config);

  /// Tag type selecting the *symbolic* initial state used for functional
  /// equivalence checking (see core/equivalence.hpp): n extra "input label"
  /// variables x₀..x_{n-1} are created and the initial d₀ slice is
  /// ⋀_q (q_q ⊙ x_q), i.e. the simulator tracks all 2ⁿ basis-state columns
  /// of the circuit unitary at once. Measurement/probability APIs are
  /// unavailable in this mode.
  struct SymbolicInit {};
  SliqSimulator(unsigned numQubits, SymbolicInit, const Config& config);

  ~SliqSimulator();  // out of line: MeasurementContext is incomplete here

  unsigned numQubits() const { return n_; }
  /// Current integer bit width r (number of BDD slices per vector).
  unsigned bitWidth() const { return r_; }
  /// The shared scalar k of Eq. 5 (√2 exponent).
  std::int64_t kScalar() const { return k_; }

  void applyGate(const Gate& gate);
  void run(const QuantumCircuit& circuit);

  // ---- queries (exact) ---------------------------------------------------
  /// Exact algebraic amplitude of a basis state. After measurements the
  /// state is sub-normalized; multiply toComplex() by
  /// normalizationCorrection() for the physical amplitude.
  AlgebraicComplex amplitude(std::uint64_t basisState) const;
  /// Dense statevector, physical (normalization applied). Throws the
  /// typed, catchable MemoryBudgetError (support/memuse.hpp) when the 2^n
  /// array would exceed `budgetBytes` — callers (conversion, dispatch) can
  /// catch it and fall back instead of aborting.
  std::vector<std::complex<double>> statevector(
      std::uint64_t budgetBytes = kDefaultDenseBudgetBytes);

  /// Σ|α_i|²·2ᵏ over all basis states, exactly. Equals 2ᵏ while the state
  /// is normalized (invariant checked by tests).
  Zroot2 totalWeightScaled();
  /// Σ|α_i|² as a double (1.0 up to one final rounding when normalized).
  double totalProbability();
  /// Pr[qubit = 1], exact ratio of Z[√2] weights rounded once.
  double probabilityOne(unsigned qubit);
  /// √(2ᵏ / current weight): multiply raw amplitudes by this after
  /// measurement collapses.
  double normalizationCorrection();

  // ---- measurement (paper §III-E) ----------------------------------------
  /// Measures one qubit: collapse + implicit renormalization (the exact
  /// current weight is the denominator of later probabilities). `random`
  /// in [0,1) selects the outcome.
  bool measure(unsigned qubit, double random);
  /// Samples a complete basis state (bit q = outcome of qubit q) by one
  /// weighted descent of the monolithic BDD without collapsing the register.
  std::vector<bool> sampleAll(Rng& rng);
  /// `count` independent shots sharing the persistent measurement context:
  /// one weight traversal total instead of one per shot. Equivalent (same
  /// deviate consumption) to calling sampleAll `count` times.
  std::vector<std::vector<bool>> sampleShots(unsigned count, Rng& rng);

  /// The persistent measurement context (built lazily, auto-invalidated
  /// when the state mutates). All probability/sampling queries above go
  /// through it; expose it directly for callers that want to control cache
  /// lifetime (e.g. the sampling benches).
  MeasurementContext& measurementContext();

  // ---- instrumentation ----------------------------------------------------
  struct Stats {
    std::size_t gatesApplied = 0;
    unsigned maxBitWidth = 0;
  };
  const Stats& stats() const { return stats_; }
  /// The underlying BDD package (node statistics, inspection). Reorder
  /// through reorder(), not bddManager().reorderSift(): a direct sift after
  /// a probability query may lift the pinned encoding variables above the
  /// qubit variables, and every later measurement then fails the Eq. 12
  /// layout check with std::logic_error.
  bdd::BddManager& bddManager() { return mgr_; }
  /// Sifting reordering (Rudell) of the state's BDDs. Drops the measurement
  /// caches first so no encoding-variable node is pinned while it runs.
  void reorder();
  /// Observability hook (DESIGN.md §11): forwards to the BDD manager (GC
  /// spans) and lets the MeasurementContext emit memo fill/invalidate
  /// events. Never owned; nullptr disables.
  void setMetrics(metrics::Registry* registry) {
    metricsRegistry_ = registry;
    mgr_.setMetrics(registry);
  }
  metrics::Registry* metricsRegistry() const { return metricsRegistry_; }
  /// Live BDD nodes across all 4r slices.
  std::size_t stateNodeCount() const;
  /// Read-only access to slice BDD F_{x_bit} for vector x ∈ {0:a,1:b,2:c,
  /// 3:d} — research/inspection API (e.g. regenerating the paper's Fig. 1).
  const bdd::Bdd& slice(unsigned vectorIndex, unsigned bit) const;

  // ---- snapshots (support/serialize.hpp; DESIGN.md §12) -------------------
  /// Serializes the bit-sliced state: (n, r, k) scalars plus the shared
  /// 4·r slice BDDs in one children-first node listing (state_io.cpp).
  /// Unavailable in symbolic mode.
  void saveStatePayload(serialize::Writer& out);
  /// Rebuilds the state from a saveStatePayload stream through the public
  /// ITE interface (canonical by construction). Validates every node record
  /// before committing; throws serialize::SerializationError on corrupt
  /// input with the state unchanged.
  void loadStatePayload(serialize::Reader& in);

  /// Deep structural audit (DESIGN.md §10): the full BDD-package audit
  /// (unique-table canonicity, refcount recount, freelist integrity) plus
  /// the bit-sliced state's own invariants — 4 vectors × r live slices and
  /// the k-scalar inside its reachable range (k only grows by 1 per √2
  /// gate and renormalization keeps it non-negative). Throws
  /// audit::AuditError naming the failing structure.
  void auditInvariants() const;

 private:
  friend class MeasurementContext;
  friend class EquivalenceChecker;
  friend struct AuditCorruptor;  // test-only deliberate corruption hooks
  using Slices = std::vector<bdd::Bdd>;

  // -- helpers shared by the gate kernels (gate_kernels.cpp) --
  bdd::Bdd qvar(unsigned q) const;
  bdd::Bdd zero() const;
  bdd::Bdd one() const;
  /// Sign-extended copy with one extra slice.
  Slices extended(const Slices& v) const;
  /// Swap the qt halves of every slice: value at (x, qt=b) taken from
  /// (x, qt=!b).
  Slices swapHalves(const Slices& v, unsigned t) const;
  /// Slice-wise ITE(cond, a, b).
  Slices select(const bdd::Bdd& cond, const Slices& a, const Slices& b) const;
  /// Slice-wise ripple-carry sum G + D + carry0 (D empty means zero).
  Slices rippleSum(const Slices& g, const Slices& d,
                   const bdd::Bdd& carry0) const;
  /// Slice-wise complement ¬v (= −v − 1 in two's complement).
  static Slices complemented(Slices v);
  /// Slice-wise two's-complement difference x − y.
  Slices difference(const Slices& x, const Slices& y) const;
  /// v negated where `cond` holds, kept elsewhere.
  Slices negateWhere(const bdd::Bdd& cond, const Slices& v) const;
  /// −negate where `cond` holds, keep elsewhere.
  Slices selectNegated(const bdd::Bdd& cond, const Slices& negate,
                       const Slices& keep) const;
  /// Drop redundant top slices (all four vectors sign-extended).
  void trim();

  // -- whole-state scalar kernels (used by the equivalence checker) --
  /// Multiplies the entire state by √2 and increments k (net identity);
  /// used to align the k scalars of two states before comparison.
  void multiplyStateBySqrt2();
  /// Multiplies the entire state by ω (global phase).
  void multiplyStateByOmega();

  // -- per-gate kernels --
  void applyX(unsigned t);
  void applyCnot(const std::vector<unsigned>& controls, unsigned t);
  void applySwap(const std::vector<unsigned>& controls, unsigned t0,
                 unsigned t1);
  void applyPhaseFlip(const bdd::Bdd& condition);  // Z / CZ / MCZ
  void applyS(unsigned t, bool inverse);
  void applyT(unsigned t, bool inverse);
  void applyY(unsigned t);
  void applyH(unsigned t);
  void applyRx90(unsigned t);
  void applyRy90(unsigned t);
  /// H (negateWhen = qt) and Ry90 (negateWhen = q̄t): G + D with D = F|qt
  /// negated where negateWhen holds.
  void applyHadamardLike(unsigned t, const bdd::Bdd& negateWhen);

  // -- measurement internals (measurement.cpp) --
  void ensureEncodingVars();
  /// Builds the hyper-function BDD of Eq. 12, checking the variable layout
  /// on every call. MeasurementContext holds the only cached copy.
  bdd::Bdd monolithic();
  /// Every state mutation lands here: drops the MeasurementContext's
  /// caches so dead cones do not stay pinned across later gates.
  /// Out of line: needs MeasurementContext complete (measurement.cpp).
  void invalidateMonolithic();

  Config config_;
  mutable bdd::BddManager mgr_;  // lazy projection-node creation is benign
  unsigned n_;
  unsigned r_;
  std::int64_t k_ = 0;
  std::array<Slices, 4> vec_;  // a, b, c, d
  std::vector<unsigned> encVars_;  // x0, x1, e0, e1, ... (created lazily)
  bool symbolic_ = false;
  std::unique_ptr<MeasurementContext> ctx_;
  Stats stats_;
  metrics::Registry* metricsRegistry_ = nullptr;
};

}  // namespace sliq
