// QmddSimulator — the DDSIM stand-in baseline (see DESIGN.md §4): quantum
// circuit simulation over QMDDs with double-precision complex edge weights.
// Same public surface as SliqSimulator so the benchmark harnesses can drive
// both engines uniformly.
#pragma once

#include <complex>
#include <cstdint>
#include <vector>

#include "circuit/circuit.hpp"
#include "qmdd/qmdd.hpp"
#include "support/memuse.hpp"
#include "support/rng.hpp"

namespace sliq {
struct FusedOp;  // circuit/optimizer.hpp
}

namespace sliq::serialize {
class Writer;
class Reader;
}  // namespace sliq::serialize

namespace sliq::qmdd {

class QmddSimulator {
 public:
  struct Config {
    QmddManager::Config dd;
  };

  explicit QmddSimulator(unsigned numQubits, std::uint64_t basisState = 0);
  QmddSimulator(unsigned numQubits, std::uint64_t basisState,
                const Config& config);

  unsigned numQubits() const { return n_; }

  void applyGate(const Gate& gate);
  void run(const QuantumCircuit& circuit);
  /// Applies one fused op (circuit/optimizer.hpp): a verbatim gate, a
  /// fused 2×2 through the controlled-U path, or a fused 4×4 built as a
  /// matrix DD (applyTwoQubitU) — one DD traversal for the whole block.
  void applyFusedOp(const FusedOp& op);
  /// Runs a fused circuit — run(c.fused()) equals run(c) up to the
  /// reassociation rounding of the fused matrix products.
  void runFused(const FusedCircuit& circuit);

  Complex amplitude(std::uint64_t basisState);
  /// Σ|α|²; drifts away from 1 as rounding accumulates — the paper's
  /// "numerical error" failure mode.
  double totalProbability();
  double probabilityOne(unsigned qubit);
  bool measure(unsigned qubit, double random);
  /// One full-register sample (bit q = outcome of qubit q) by weighted
  /// descent of the state DD, without collapsing the register.
  std::uint64_t sampleAll(Rng& rng);
  /// `count` samples sharing one downward edge-weight memo across the
  /// batch: one weight pass plus n steps per shot. Deviate consumption per
  /// shot matches sampleAll, so a fixed seed yields the same sequence.
  std::vector<std::uint64_t> sampleShots(unsigned count, Rng& rng);

  /// Dense statevector extraction by one weighted DD descent (zero-weight
  /// subtrees skipped). Throws the typed MemoryBudgetError
  /// (support/memuse.hpp) when the 2^n array would exceed `budgetBytes` —
  /// the qmdd → statevector conversion route, budgeted so callers can
  /// catch the infeasible case and fall back.
  std::vector<std::complex<double>> statevector(
      std::uint64_t budgetBytes = kDefaultDenseBudgetBytes);
  /// Replaces the state with the dense amplitude array (size 2^n, bit q of
  /// the index = qubit q), rebuilt bottom-up through makeVNode exactly like
  /// loadStatePayload — shared suffixes re-merge into shared nodes and the
  /// normalization is re-derived. The statevector → qmdd re-encoding route.
  void loadDense(const std::vector<std::complex<double>>& amplitudes);

  /// ⟨P⟩ for the Pauli string given per qubit (0=I, 1=X, 2=Y, 3=Z),
  /// normalized by Σ|α|² so accumulated edge-weight rounding drift cancels.
  /// One pair-wise weighted descent of the state DD (QmddManager::
  /// pauliExpectation); does not collapse or mutate the state.
  double expectationPauli(const std::vector<std::uint8_t>& paulis);

  /// True when |Σ|α|² − 1| ≤ tolerance (paper: the 'error' column trips
  /// when state probabilities no longer sum to 1).
  bool isNormalized(double tolerance = 1e-4);

  std::size_t liveNodes() const { return mgr_.liveNodes(); }
  std::size_t peakNodes() const { return mgr_.peakNodes(); }
  std::size_t memoryBytes() const { return mgr_.memoryBytes(); }
  const QmddManager::CacheStats& cacheStats() const {
    return mgr_.cacheStats();
  }
  std::size_t complexTableSize() const { return mgr_.complexTableSize(); }
  /// Observability hook: forwarded to the manager (GC instants).
  void setMetrics(metrics::Registry* registry) { mgr_.setMetrics(registry); }

  // ---- snapshots (support/serialize.hpp; DESIGN.md §12) -------------------
  /// Serializes the state DD: a children-first node listing with explicit
  /// (re, im) edge weights — weights travel as doubles, not table indices,
  /// so the snapshot is independent of this manager's ComplexTable layout.
  void saveStatePayload(serialize::Writer& out);
  /// Rebuilds the state DD via makeVNode (weights re-interned into this
  /// manager's ComplexTable, normalization re-derived). Validates levels /
  /// child references before committing; throws
  /// serialize::SerializationError on corrupt input with the state
  /// unchanged.
  void loadStatePayload(serialize::Reader& in);

  /// Deep structural audit of the DD package state (DESIGN.md §10),
  /// including the registered root's full-depth check against this
  /// simulator's width. Throws audit::AuditError on the first violation.
  void auditInvariants() const { mgr_.auditInvariants(n_); }

 private:
  friend struct AuditCorruptor;  // test-only deliberate corruption hooks
  void applyControlledU(const Complex u[4],
                        const std::vector<unsigned>& controls,
                        unsigned target);
  /// Applies a 4×4 unitary over (qLow, qHigh), qLow < qHigh, basis index
  /// b = 2·(bit of qHigh) + (bit of qLow), matrix row-major: the gate DD
  /// is Σ_{r,c} E_{rc}(qHigh) ⊗ U_{rc}(qLow) with identity elsewhere.
  void applyTwoQubitU(const Complex u[16], unsigned qLow, unsigned qHigh);

  unsigned n_;
  QmddManager mgr_;
};

}  // namespace sliq::qmdd
