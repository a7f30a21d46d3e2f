// Exact functional equivalence checking of quantum circuits — the natural
// extension of the bit-sliced representation that the authors later shipped
// as SliQEC. Implemented here from the paper's machinery alone:
//
// Both circuits are simulated once on the *symbolic* initial state
// Σ_x |x⟩|x⟩ (qubit variables entangled with n fresh input-label variables),
// which tracks every column of the circuit unitary simultaneously. Two
// circuits are equivalent iff the resulting 4r-slice states are identical
// BDDs after aligning the √2 scalars — an exact, canonical comparison with
// no numerics anywhere.
#pragma once

#include <string>

#include "circuit/circuit.hpp"

namespace sliq {

enum class Equivalence {
  kEqual,               // U₁ == U₂ exactly, including global phase
  kEqualUpToPhase,      // U₁ == ω^p · U₂ for some p in 1..7
  kNotEquivalent,
};

std::string toString(Equivalence e);

struct EquivalenceOptions {
  /// Also search the ω^p global-phase orbit (p = 1..7).
  bool allowGlobalPhase = true;
};

/// Decides functional equivalence of two same-width circuits. Cost: two
/// symbolic simulations (2n BDD variables each) plus slice comparisons.
Equivalence checkEquivalence(const QuantumCircuit& first,
                             const QuantumCircuit& second,
                             const EquivalenceOptions& options = {});

}  // namespace sliq
