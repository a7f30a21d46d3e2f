// Circuit analyzer — the feature extraction half of the adaptive engine
// portfolio (DESIGN.md §13). One linear pass over the op stream computes
// the workload features the dispatcher's cost model scores engines with:
// the DAC'21 paper's core observation is that the right state
// representation is workload-dependent, and these features are what
// "workload" means to the planner.
#pragma once

#include <cstddef>
#include <map>
#include <string>

#include "circuit/circuit.hpp"

namespace sliq {

/// Structural workload features of one circuit. "Clifford" throughout
/// means StabilizerSimulator::supportsGate — the exact gate set the chp
/// engine executes — so the dispatcher can never pick chp for a gate the
/// tableau would refuse.
struct CircuitFeatures {
  unsigned numQubits = 0;
  /// All ops, dynamic ones included.
  std::size_t gateCount = 0;
  /// Per-gate-name op counts (QuantumCircuit::histogram).
  std::map<std::string, std::size_t> histogram;
  /// Unitary (non-measure/reset) ops.
  std::size_t unitaryGates = 0;
  /// Unitary Clifford ops.
  std::size_t cliffordGates = 0;
  /// Unitary non-Clifford ops (T/T†, multi-controlled, controlled swap).
  std::size_t nonCliffordGates = 0;
  /// cliffordGates / unitaryGates; 1.0 for an empty (or unitary-free)
  /// circuit.
  double cliffordFraction = 1.0;
  /// T/T† ops (controlled or not) — the magic-state count driving DD/BDD
  /// growth.
  std::size_t tCount = 0;
  /// Measure/reset ops plus classically conditioned ops.
  std::size_t dynamicOps = 0;
  /// Unitary ops touching >= 2 qubits (targets + controls).
  std::size_t twoQubitGates = 0;
  /// Circuit depth counting only the multi-qubit ops — an entanglement
  /// proxy: deep two-qubit layers spread correlations across the register.
  std::size_t twoQubitDepth = 0;
  /// Largest connected component of the qubit interaction graph (qubits
  /// joined by shared multi-qubit ops) — how wide entanglement can reach.
  unsigned interactionWidth = 0;
  /// Longest prefix of unconditioned unitary Clifford ops — the segment
  /// the chp tableau can run before an exportTo (DESIGN.md §13).
  std::size_t cliffordPrefixGates = 0;
  /// QuantumCircuit::isDynamic().
  bool dynamic = false;
};

/// One linear pass over `circuit`; O(gates · arity + qubits).
CircuitFeatures analyzeCircuit(const QuantumCircuit& circuit);

}  // namespace sliq
