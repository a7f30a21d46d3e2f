// Dense array-based statevector simulator.
//
// This is the "array-based" simulator class of the paper's related work
// ([5]-[9]): a 2^n complex<double> vector updated gate by gate. It serves as
// (a) ground truth for the exact BDD engine in tests (n <= ~24) and (b) the
// array-based comparator in the benchmark harnesses.
#pragma once

#include <complex>
#include <cstdint>
#include <memory>
#include <vector>

#include "circuit/circuit.hpp"
#include "support/rng.hpp"

namespace sliq::serialize {
class Writer;
class Reader;
}  // namespace sliq::serialize

namespace sliq {

class ThreadPool;
struct FusedOp;  // circuit/optimizer.hpp

class StatevectorSimulator {
 public:
  using Amplitude = std::complex<double>;

  /// Prepares |basisState⟩ over numQubits qubits (basis bit q of the index
  /// corresponds to qubit q; qubit 0 is the least significant bit).
  explicit StatevectorSimulator(unsigned numQubits,
                                std::uint64_t basisState = 0);
  ~StatevectorSimulator();
  StatevectorSimulator(StatevectorSimulator&&) noexcept;
  StatevectorSimulator& operator=(StatevectorSimulator&&) noexcept;

  unsigned numQubits() const { return numQubits_; }
  const std::vector<Amplitude>& state() const { return state_; }
  /// Replaces the register with `amplitudes` (size exactly 2^n, bit q of
  /// the index = qubit q) — the dense landing pad of cross-representation
  /// state conversion (core/state_convert.cpp). The caller owns
  /// normalization; auditInvariants() still checks Σ|α|² ≈ 1.
  void setState(std::vector<Amplitude> amplitudes);

  /// Number of worker threads the gate kernels partition amplitude groups
  /// across. 1 (default) runs in the calling thread; 0 means "auto"
  /// (hardware concurrency). The partitioning is contiguous and
  /// reduction-free, so every thread count yields bit-identical amplitudes
  /// (pinned exactly by the fusion tests). Small registers stay serial
  /// regardless (dense::kMinParallelGroups).
  void setThreads(unsigned threads);
  unsigned threads() const { return threads_; }

  void applyGate(const Gate& gate);
  void run(const QuantumCircuit& circuit);
  /// Applies one fused op (optimizer.hpp): a verbatim gate, a fused 2×2,
  /// or a fused 4×4 / diagonal block.
  void applyFused(const FusedOp& op);
  /// Runs a fused circuit — run(c.fused()) equals run(c) up to the
  /// reassociation error of the fused matrix products.
  void runFused(const FusedCircuit& circuit);

  Amplitude amplitude(std::uint64_t basisState) const {
    return state_[basisState];
  }
  /// Pr[qubit q = 1].
  double probabilityOne(unsigned qubit) const;
  /// Sum of |amplitude|² (should be 1 up to rounding).
  double totalProbability() const;
  /// Measures a single qubit (collapse + renormalize), consuming `random`
  /// in [0,1) to pick the outcome. Returns the observed bit.
  bool measure(unsigned qubit, double random);
  /// ⟨P⟩ for the Pauli string with X-support `xmask`, Y-support `ymask` and
  /// Z-support `zmask` (disjoint, bit q = qubit q), by direct contraction:
  /// Σ_i conj(α_{i⊕flip})·phase(i)·α_i with flip = X∪Y support and
  /// phase(i) = i^{|Y|}·(−1)^{popcount(i ∩ (Z∪Y))}. Normalized by Σ|α|²;
  /// does not collapse or mutate the state.
  double expectationPauli(std::uint64_t xmask, std::uint64_t ymask,
                          std::uint64_t zmask) const;
  /// Samples a full basis state without collapsing the register.
  std::uint64_t sampleAll(double random) const;
  /// `count` samples through a one-time cumulative distribution + binary
  /// search: O(2ⁿ + count·n) instead of sampleAll's O(count·2ⁿ). Prefix
  /// sums accumulate in the same order as sampleAll, so identical deviates
  /// select identical basis states. Consumes one deviate per shot.
  std::vector<std::uint64_t> sampleShots(unsigned count, Rng& rng) const;

  // ---- snapshots (support/serialize.hpp; DESIGN.md §12) -------------------
  /// Serializes all 2ⁿ amplitudes as (re, im) double pairs.
  void saveStatePayload(serialize::Writer& out);
  /// Restores a saveStatePayload amplitude array. Parses the whole array
  /// before committing; throws serialize::SerializationError on corrupt
  /// input with the state unchanged.
  void loadStatePayload(serialize::Reader& in);

  /// Structural audit (DESIGN.md §10): every amplitude finite (NaN/Inf
  /// scan) and Σ|α|² within `normTolerance` of 1 — measure() renormalizes,
  /// so the norm must survive any gate/collapse sequence. Throws
  /// audit::AuditError naming the first offending amplitude.
  void auditInvariants(double normTolerance = 1e-6) const;

 private:
  friend struct AuditCorruptor;  // test-only deliberate corruption hooks
  void apply1(unsigned target, const Amplitude m[4]);
  void applyControlled1(const std::vector<unsigned>& controls, unsigned target,
                        const Amplitude m[4]);
  void applySwap(const std::vector<unsigned>& controls, unsigned q0,
                 unsigned q1);

  unsigned numQubits_;
  unsigned threads_ = 1;
  std::vector<Amplitude> state_;
  std::unique_ptr<ThreadPool> pool_;  // lazily built on setThreads(>1)
};

}  // namespace sliq
