// PauliObservable — weighted sums of Pauli strings, the readout layer for
// expectation-value workloads (VQE-style energy estimation, noisy-observable
// studies).
//
// An observable is O = Σ_s c_s · P_s with real coefficients c_s and Pauli
// strings P_s = ⊗_q σ_q (σ ∈ {I, X, Y, Z}). The exact BDD representation is
// strongest when the state is *not* collapsed: the same weight algebra that
// yields per-qubit probabilities from one traversal of the monolithic
// hyper-function also yields exact ⟨P⟩ for any Pauli string (a read-only
// pair descent — see MeasurementContext::expectation). Every engine gets a
// native fast path (engine_registry.cpp); the generic fallback below works
// on any Engine through basis changes + a CNOT parity chain + the existing
// probabilityOne machinery.
//
// Observables parse from a line-based text spec mirroring the noise-model
// parser (noise_model.hpp), with file:line diagnostics:
//   # comment
//   <coefficient> <pauli><qubit> [<pauli><qubit> ...]
//   0.5  Z0 Z1
//   -.25 X0 Y2
//   1.5             # bare coefficient: identity term (constant offset)
// 'I<q>' factors are accepted and dropped; listing one qubit twice in a
// string is an error (products of same-qubit Paulis are not normalized
// here — pre-multiply them in the spec instead).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <stdexcept>
#include <string>
#include <vector>

namespace sliq {

class Engine;  // core/engine_registry.hpp

/// Single-qubit Pauli operator. Shared by the observable subsystem and the
/// noise channels (sliq::noise re-exports this enum — one Pauli type across
/// the library).
enum class Pauli : std::uint8_t { kI, kX, kY, kZ };

/// Mnemonic character: 'I', 'X', 'Y', 'Z'.
char pauliChar(Pauli p);

/// Observable spec / validation failure, with the spec origin ("file:line")
/// in the message.
class ObservableSpecError : public std::runtime_error {
 public:
  explicit ObservableSpecError(const std::string& what)
      : std::runtime_error(what) {}
};

/// One non-identity Pauli factor of a string: `op` acting on `qubit`.
struct PauliFactor {
  unsigned qubit;
  Pauli op;  ///< kX, kY or kZ (identity factors are never stored)
};

/// One weighted Pauli string c · ⊗ σ_q. Factors are sorted by qubit and
/// qubit-distinct; an empty factor list is the identity term (constant c).
struct PauliString {
  double coefficient = 0;
  std::vector<PauliFactor> factors;
  /// 1-based line of the defining spec line (0 for programmatic terms) —
  /// lets width validation report file:line like the parser itself.
  unsigned sourceLine = 0;

  bool isIdentity() const { return factors.empty(); }
  /// True when every factor is Z (diagonal in the computational basis).
  bool isDiagonal() const;
  /// "Z0 Z1" / "I" — the string without its coefficient.
  std::string pauliText() const;
};

class PauliObservable {
 public:
  PauliObservable() = default;

  /// Adds c · ⊗ factors. Factors are sorted/validated (duplicate qubits
  /// rejected with ObservableSpecError); identity factors are dropped.
  void addTerm(double coefficient, std::vector<PauliFactor> factors,
               unsigned sourceLine = 0);

  const std::vector<PauliString>& terms() const { return terms_; }
  bool empty() const { return terms_.empty(); }
  /// Smallest register width able to hold every factor (0 for an
  /// identity-only observable).
  unsigned numQubitsRequired() const;
  /// Where this observable was parsed from ("<spec>" for programmatic).
  const std::string& origin() const { return origin_; }
  /// One line, e.g. "0.5*Z0 Z1 - 0.25*X0 (2 terms)".
  std::string summary() const;
  /// Throws ObservableSpecError (citing origin:line for parsed terms) if
  /// any factor references a qubit >= numQubits.
  void validateForWidth(unsigned numQubits) const;

  // ---- spec parsing ------------------------------------------------------
  /// Throws ObservableSpecError (with origin:line) on malformed input or an
  /// empty spec (an observable with no terms has no defined expectation).
  static PauliObservable parse(std::istream& in,
                               const std::string& origin = "<spec>");
  static PauliObservable parseString(const std::string& text);
  static PauliObservable parseFile(const std::string& path);

 private:
  std::vector<PauliString> terms_;
  std::string origin_ = "<spec>";
};

/// `term`'s factors as a standalone 1.0-coefficient observable — the
/// per-string probe shared by the CLI, the trajectory runner and the
/// differential tests.
PauliObservable singleStringObservable(const PauliString& term);

/// ⟨P⟩ of one Pauli string (coefficient ignored) on the engine's current
/// state, via the engine-agnostic fallback: single-qubit basis changes map
/// X/Y factors to Z, a CNOT parity chain folds the multi-qubit Z string
/// onto its highest support qubit, probabilityOne reads ⟨Z⟩ = 1 − 2·Pr[1],
/// and the inverse circuit restores the state. Every gate used (H, S†/S,
/// CNOT) is Clifford and inverts exactly, so the engine's state is restored
/// up to representation details (never up to probabilities).
double genericStringExpectation(Engine& engine, const PauliString& term);

/// Σ_s c_s · genericStringExpectation(engine, s) — the engine-agnostic
/// reference oracle that differential tests and bench_observables hold the
/// native per-engine expectation() paths against.
double genericExpectation(Engine& engine, const PauliObservable& observable);

}  // namespace sliq
