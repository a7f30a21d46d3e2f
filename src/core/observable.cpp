#include "core/observable.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "circuit/circuit.hpp"
#include "core/engine_registry.hpp"

namespace sliq {

char pauliChar(Pauli p) {
  switch (p) {
    case Pauli::kI: return 'I';
    case Pauli::kX: return 'X';
    case Pauli::kY: return 'Y';
    case Pauli::kZ: return 'Z';
  }
  return '?';
}

bool PauliString::isDiagonal() const {
  for (const PauliFactor& f : factors) {
    if (f.op != Pauli::kZ) return false;
  }
  return true;
}

std::string PauliString::pauliText() const {
  if (factors.empty()) return "I";
  std::string s;
  for (const PauliFactor& f : factors) {
    if (!s.empty()) s += ' ';
    s += pauliChar(f.op);
    s += std::to_string(f.qubit);
  }
  return s;
}

void PauliObservable::addTerm(double coefficient,
                              std::vector<PauliFactor> factors,
                              unsigned sourceLine) {
  factors.erase(std::remove_if(
                    factors.begin(), factors.end(),
                    [](const PauliFactor& f) { return f.op == Pauli::kI; }),
                factors.end());
  std::sort(factors.begin(), factors.end(),
            [](const PauliFactor& a, const PauliFactor& b) {
              return a.qubit < b.qubit;
            });
  for (std::size_t i = 1; i < factors.size(); ++i) {
    if (factors[i].qubit == factors[i - 1].qubit) {
      throw ObservableSpecError(
          "duplicate qubit " + std::to_string(factors[i].qubit) +
          " in one Pauli string (pre-multiply same-qubit factors instead)");
    }
  }
  terms_.push_back(PauliString{coefficient, std::move(factors), sourceLine});
}

unsigned PauliObservable::numQubitsRequired() const {
  unsigned n = 0;
  for (const PauliString& term : terms_) {
    for (const PauliFactor& f : term.factors) n = std::max(n, f.qubit + 1);
  }
  return n;
}

std::string PauliObservable::summary() const {
  std::ostringstream os;
  for (std::size_t i = 0; i < terms_.size(); ++i) {
    const PauliString& term = terms_[i];
    if (i == 0) {
      os << term.coefficient;
    } else {
      os << (term.coefficient < 0 ? " - " : " + ")
         << std::abs(term.coefficient);
    }
    os << "*" << term.pauliText();
  }
  os << " (" << terms_.size() << (terms_.size() == 1 ? " term)" : " terms)");
  return os.str();
}

void PauliObservable::validateForWidth(unsigned numQubits) const {
  for (const PauliString& term : terms_) {
    for (const PauliFactor& f : term.factors) {
      if (f.qubit >= numQubits) {
        std::ostringstream os;
        os << origin_;
        if (term.sourceLine > 0) os << ":" << term.sourceLine;
        os << ": term '" << term.pauliText() << "' references qubit "
           << f.qubit << " but the circuit has only " << numQubits
           << " qubits";
        throw ObservableSpecError(os.str());
      }
    }
  }
}

// ---- spec parsing ---------------------------------------------------------

namespace {

[[noreturn]] void specError(const std::string& origin, unsigned line,
                            const std::string& what) {
  throw ObservableSpecError(origin + ":" + std::to_string(line) + ": " + what);
}

/// Strict double parse (whole token, no garbage) — the noise parser's rule.
double parseCoefficient(const std::string& origin, unsigned line,
                        const std::string& token) {
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(token.c_str(), &end);
  if (end == token.c_str() || *end != '\0' || errno == ERANGE) {
    specError(origin, line, "expected a coefficient, got '" + token + "'");
  }
  return value;
}

/// One factor token: a Pauli letter immediately followed by a qubit index,
/// e.g. "Z0", "x12" (case-insensitive).
PauliFactor parseFactor(const std::string& origin, unsigned line,
                        const std::string& token) {
  Pauli op;
  switch (token.empty() ? '\0' : std::toupper(
                                     static_cast<unsigned char>(token[0]))) {
    case 'I': op = Pauli::kI; break;
    case 'X': op = Pauli::kX; break;
    case 'Y': op = Pauli::kY; break;
    case 'Z': op = Pauli::kZ; break;
    default:
      specError(origin, line,
                "bad Pauli factor '" + token +
                    "' (expected I/X/Y/Z immediately followed by a qubit "
                    "index, e.g. Z0)");
  }
  const std::string digits = token.substr(1);
  errno = 0;
  char* end = nullptr;
  const unsigned long value = std::strtoul(digits.c_str(), &end, 10);
  if (digits.empty() || digits[0] == '-' || end == digits.c_str() ||
      *end != '\0' || errno == ERANGE || value > 1u << 24) {
    specError(origin, line, "bad Pauli factor '" + token +
                                "' (expected a qubit index after '" +
                                std::string(1, token[0]) + "')");
  }
  return PauliFactor{static_cast<unsigned>(value), op};
}

}  // namespace

PauliObservable PauliObservable::parse(std::istream& in,
                                       const std::string& origin) {
  PauliObservable observable;
  observable.origin_ = origin;
  std::string line;
  unsigned lineNo = 0;
  while (std::getline(in, line)) {
    ++lineNo;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream tokens(line);
    std::string coeffToken;
    if (!(tokens >> coeffToken)) continue;  // blank / comment-only line

    const double coefficient = parseCoefficient(origin, lineNo, coeffToken);
    std::vector<PauliFactor> factors;
    std::string factorToken;
    while (tokens >> factorToken) {
      factors.push_back(parseFactor(origin, lineNo, factorToken));
    }
    try {
      observable.addTerm(coefficient, std::move(factors), lineNo);
    } catch (const ObservableSpecError& e) {
      specError(origin, lineNo, e.what());
    }
  }
  if (observable.terms_.empty()) {
    specError(origin, std::max(lineNo, 1u),
              "observable spec defines no terms (every line is blank or a "
              "comment)");
  }
  return observable;
}

PauliObservable PauliObservable::parseString(const std::string& text) {
  std::istringstream in(text);
  return parse(in);
}

PauliObservable PauliObservable::parseFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw ObservableSpecError("cannot open observable spec '" + path + "'");
  }
  return parse(in, path);
}

PauliObservable singleStringObservable(const PauliString& term) {
  PauliObservable obs;
  obs.addTerm(1.0, term.factors, term.sourceLine);
  return obs;
}

// ---- generic (engine-agnostic) expectation --------------------------------

namespace {

/// Clifford circuit U with U† Z_anchor U = P: per-factor basis changes
/// (H for X; S† then H for Y) followed by CNOTs folding every other support
/// qubit's Z onto the anchor (the highest support qubit).
QuantumCircuit conjugationCircuit(unsigned numQubits,
                                  const PauliString& term) {
  QuantumCircuit rot(numQubits, "pauli-conjugation");
  for (const PauliFactor& f : term.factors) {
    if (f.op == Pauli::kX) {
      rot.h(f.qubit);
    } else if (f.op == Pauli::kY) {
      rot.sdg(f.qubit).h(f.qubit);
    }
  }
  const unsigned anchor = term.factors.back().qubit;  // factors are sorted
  for (const PauliFactor& f : term.factors) {
    if (f.qubit != anchor) rot.cx(f.qubit, anchor);
  }
  return rot;
}

}  // namespace

double genericStringExpectation(Engine& engine, const PauliString& term) {
  if (term.isIdentity()) return 1.0;
  const QuantumCircuit rot = conjugationCircuit(engine.numQubits(), term);
  engine.run(rot);
  const double value = 1.0 - 2.0 * engine.probabilityOne(term.factors.back().qubit);
  // H, S/S† and CNOT invert exactly, so this restores the run() state (the
  // exact engine's representation may carry a benign 2/√2² rescaling).
  engine.run(rot.inverse());
  return value;
}

double genericExpectation(Engine& engine, const PauliObservable& observable) {
  double sum = 0;
  for (const PauliString& term : observable.terms()) {
    sum += term.coefficient * genericStringExpectation(engine, term);
  }
  return sum;
}

// ---- Engine facade entry --------------------------------------------------

double Engine::expectation(const PauliObservable& observable) {
  // Expectations are defined on the state prepared by run(), like shot
  // sampling: the facade contract rejects collapsed registers uniformly.
  requireUncollapsed();
  observable.validateForWidth(numQubits());
  return expectationImpl(observable);
}

}  // namespace sliq
