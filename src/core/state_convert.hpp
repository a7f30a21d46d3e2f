// Cross-representation state conversion (DESIGN.md §13).
//
// Engine::exportTo(dst) — declared on the facade in engine_registry.hpp,
// implemented in state_convert.cpp — moves a prepared state between the
// four representations:
//
//   source \ target |  exact  |  qmdd   |   chp   | statevector
//   ----------------+---------+---------+---------+------------
//   exact           | snapshot|  dense  |    —    |   dense
//   qmdd            |    —    | snapshot|    —    |   dense
//   chp             |  prep   |  prep   | snapshot|   prep
//   statevector     |    —    |  dense  |    —    |  snapshot
//
//   snapshot — same-representation sliq.state.v1 round-trip (bit-identical)
//   prep     — tableau disentangling extraction: a Clifford circuit over
//              {H, S, X, CNOT, CZ} preparing the state from |0...0⟩,
//              replayed on the target (exact up to global phase). The one
//              route that composes with the target's existing state rather
//              than replacing it — the target must still be in |0...0⟩
//   dense    — budgeted 2^n amplitude extraction, re-encoded natively
//              (qmdd rebuilds bottom-up through makeVNode; statevector
//              swaps the array in)
//   —        — no route: ConversionError (a generic state is not a
//              stabilizer state; doubles have no exact Z[√2] decomposition)
//
// A library API with no CLI caller: the differential harness runs a
// Clifford prefix on chp, exportTo's another engine and finishes there,
// pinned (<= 1e-10 on probabilities and expectations) against monolithic
// runs at every split point.
#pragma once

#include <stdexcept>
#include <string>

namespace sliq {

/// No conversion route exists between the two representations (or the
/// target was not of the same width). Typed so a caller can tell a
/// missing route apart from a MemoryBudgetError.
class ConversionError : public std::runtime_error {
 public:
  explicit ConversionError(const std::string& what)
      : std::runtime_error(what) {}
};

}  // namespace sliq
