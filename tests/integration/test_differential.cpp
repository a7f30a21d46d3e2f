// Cross-engine differential fuzz harness: seeded random Clifford+T circuits
// (and Clifford-only ones for the chp engine) per qubit count, checked for
// agreement of (a) per-basis-state probabilities and (b) Pauli-observable
// expectations across the exact, qmdd and statevector engines to 1e-10 —
// the exact engine is the oracle the paper's representation makes possible.
//
// Reproducibility: every circuit is a pure function of the fixed seeds
// below, and the committed golden file pins an FNV-1a digest of each
// generated gate list, so a failure names exactly which circuit diverged
// and the generators cannot drift silently. Regenerate the golden file with
// SLIQ_REGEN_GOLDEN=1 (it rewrites the file in the source tree).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "circuit/circuit.hpp"
#include "circuit/generators.hpp"
#include "core/circuit_analyzer.hpp"
#include "core/engine_registry.hpp"
#include "core/observable.hpp"
#include "core/simulator.hpp"
#include "qmdd/qmdd_sim.hpp"
#include "stabilizer/stabilizer.hpp"
#include "statevector/statevector.hpp"
#include "support/rng.hpp"

#ifndef SLIQ_DIFFERENTIAL_GOLDEN
#error "tests/CMakeLists.txt must define SLIQ_DIFFERENTIAL_GOLDEN"
#endif

namespace sliq {
namespace {

struct FuzzCase {
  std::string id;
  QuantumCircuit circuit;
  bool cliffordOnly;
};

/// Random Clifford circuit (H, S, S†, X, Y, Z, CNOT, CZ, SWAP) — the chp
/// subset; randomCircuit() covers Clifford+T (with Toffoli/Fredkin).
QuantumCircuit randomClifford(unsigned numQubits, unsigned numGates,
                              std::uint64_t seed) {
  QuantumCircuit c(numQubits, "clifford-fuzz");
  Rng rng(seed);
  for (unsigned q = 0; q < numQubits; ++q) c.h(q);
  for (unsigned g = 0; g < numGates; ++g) {
    const unsigned kind = static_cast<unsigned>(rng.below(9));
    const unsigned a = static_cast<unsigned>(rng.below(numQubits));
    unsigned b = static_cast<unsigned>(rng.below(numQubits));
    while (b == a) b = static_cast<unsigned>(rng.below(numQubits));
    switch (kind) {
      case 0: c.h(a); break;
      case 1: c.s(a); break;
      case 2: c.sdg(a); break;
      case 3: c.x(a); break;
      case 4: c.y(a); break;
      case 5: c.z(a); break;
      case 6: c.cx(a, b); break;
      case 7: c.cz(a, b); break;
      default: c.swap(a, b); break;
    }
  }
  return c;
}

/// FNV-1a over the structural gate stream — the golden-file digest.
std::uint64_t circuitDigest(const QuantumCircuit& c) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ULL;
  };
  mix(c.numQubits());
  for (const Gate& g : c.gates()) {
    mix(0xff);  // gate separator
    mix(static_cast<std::uint64_t>(g.kind));
    for (const unsigned q : g.controls) mix(0x100 + q);
    for (const unsigned q : g.targets) mix(0x200 + q);
  }
  return h;
}

std::vector<FuzzCase> fuzzCorpus() {
  std::vector<FuzzCase> cases;
  for (unsigned n = 2; n <= 5; ++n) {
    // Clifford+T family (paper's random-circuit recipe: H layer + uniform
    // gate picks including T and Toffoli/Fredkin — needs >= 3 qubits).
    for (std::uint64_t seed = 1; n >= 3 && seed <= 4; ++seed) {
      std::ostringstream id;
      id << "clifford+t n=" << n << " seed=" << seed;
      cases.push_back(
          {id.str(), randomCircuit(n, 4 * n, 1000 * n + seed), false});
    }
    // Clifford-only family: the stabilizer engine joins the comparison.
    for (std::uint64_t seed = 1; seed <= 2; ++seed) {
      std::ostringstream id;
      id << "clifford n=" << n << " seed=" << seed;
      cases.push_back(
          {id.str(), randomClifford(n, 5 * n, 2000 * n + seed), true});
    }
  }
  return cases;
}

/// Handoff corpus: every circuit opens with a guaranteed Clifford prefix
/// (an H layer plus 2n random tableau gates), then a T gate pins the prefix
/// end, then a Clifford+T tail: chp runs the prefix, exportTo hands the
/// tableau state to another engine, which finishes the tail.
std::vector<FuzzCase> handoffCorpus() {
  std::vector<FuzzCase> cases;
  for (unsigned n = 3; n <= 5; ++n) {  // randomCircuit needs >= 3 qubits
    for (std::uint64_t seed = 1; seed <= 2; ++seed) {
      std::ostringstream id;
      id << "handoff n=" << n << " seed=" << seed;
      QuantumCircuit c = randomClifford(n, 2 * n, 5000 * n + seed);
      c.t(static_cast<unsigned>(seed % n));
      c.compose(randomCircuit(n, 2 * n, 6000 * n + seed));
      cases.push_back({id.str(), std::move(c), false});
    }
  }
  return cases;
}

/// Deterministic random observable for one case: `count` strings over the
/// full width (each qubit I/X/Y/Z uniformly, re-rolled if fully identity)
/// with ±(0.25 + k/8) coefficients.
PauliObservable randomObservable(unsigned numQubits, unsigned count,
                                 std::uint64_t seed) {
  PauliObservable obs;
  Rng rng(seed);
  for (unsigned k = 0; k < count; ++k) {
    std::vector<PauliFactor> factors;
    do {
      factors.clear();
      for (unsigned q = 0; q < numQubits; ++q) {
        const Pauli op = static_cast<Pauli>(rng.below(4));
        if (op != Pauli::kI) factors.push_back({q, op});
      }
    } while (factors.empty());
    const double coefficient = (rng.flip() ? 1.0 : -1.0) * (0.25 + k / 8.0);
    obs.addTerm(coefficient, std::move(factors));
  }
  return obs;
}

std::string goldenLine(const FuzzCase& fuzz) {
  std::ostringstream os;
  os << fuzz.id << " | gates=" << fuzz.circuit.gateCount() << " digest="
     << std::hex << circuitDigest(fuzz.circuit);
  return os.str();
}

TEST(Differential, GoldenFilePinsTheGeneratedCorpus) {
  // Both generated families are pinned: the cross-engine fuzz corpus and
  // the handoff corpus the split-point test below replays.
  std::vector<FuzzCase> corpus = fuzzCorpus();
  for (FuzzCase& fuzz : handoffCorpus()) corpus.push_back(std::move(fuzz));
  if (std::getenv("SLIQ_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(SLIQ_DIFFERENTIAL_GOLDEN);
    ASSERT_TRUE(out.good()) << SLIQ_DIFFERENTIAL_GOLDEN;
    out << "# Fixed-seed fuzz corpus digests — regenerate with "
           "SLIQ_REGEN_GOLDEN=1 ./test_differential\n";
    for (const FuzzCase& fuzz : corpus) out << goldenLine(fuzz) << "\n";
    GTEST_SKIP() << "regenerated " << SLIQ_DIFFERENTIAL_GOLDEN;
  }
  std::ifstream in(SLIQ_DIFFERENTIAL_GOLDEN);
  ASSERT_TRUE(in.good()) << "missing golden file " << SLIQ_DIFFERENTIAL_GOLDEN;
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line[0] != '#') lines.push_back(line);
  }
  ASSERT_EQ(lines.size(), corpus.size())
      << "corpus size changed; regenerate the golden file";
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    EXPECT_EQ(lines[i], goldenLine(corpus[i]))
        << "generator output drifted for case " << corpus[i].id;
  }
}

TEST(Differential, BasisStateProbabilitiesAgreeToTenDigits) {
  for (const FuzzCase& fuzz : fuzzCorpus()) {
    SCOPED_TRACE(fuzz.id);
    const unsigned n = fuzz.circuit.numQubits();
    SliqSimulator exact(n);
    StatevectorSimulator dense(n);
    qmdd::QmddSimulator dd(n);
    exact.run(fuzz.circuit);
    dense.run(fuzz.circuit);
    dd.run(fuzz.circuit);
    const std::vector<std::complex<double>> exactVec = exact.statevector();
    for (std::uint64_t i = 0; i < (std::uint64_t{1} << n); ++i) {
      const double reference = std::norm(dense.amplitude(i));
      EXPECT_NEAR(std::norm(exactVec[i]), reference, 1e-10)
          << "exact vs dense at basis state " << i;
      EXPECT_NEAR(std::norm(dd.amplitude(i)), reference, 1e-10)
          << "qmdd vs dense at basis state " << i;
    }
  }
}

TEST(Differential, ExpectationsAgreeAcrossEnginesToTenDigits) {
  for (const FuzzCase& fuzz : fuzzCorpus()) {
    SCOPED_TRACE(fuzz.id);
    const unsigned n = fuzz.circuit.numQubits();
    const PauliObservable obs =
        randomObservable(n, 4, circuitDigest(fuzz.circuit));

    std::unique_ptr<Engine> reference = makeEngine("statevector", n);
    reference->run(fuzz.circuit);
    // Each term separately (sharper than only the weighted sum) plus the
    // full weighted observable.
    std::vector<PauliObservable> probes;
    for (const PauliString& term : obs.terms())
      probes.push_back(singleStringObservable(term));
    probes.push_back(obs);

    for (const std::string& name : engineNames()) {
      if (name == "statevector") continue;
      if (name == "chp" && !fuzz.cliffordOnly) continue;
      SCOPED_TRACE(name);
      std::unique_ptr<Engine> engine = makeEngine(name, n);
      ASSERT_TRUE(engine->supports(fuzz.circuit));
      engine->run(fuzz.circuit);
      for (std::size_t p = 0; p < probes.size(); ++p) {
        SCOPED_TRACE("probe " + std::to_string(p));
        EXPECT_NEAR(engine->expectation(probes[p]),
                    reference->expectation(probes[p]), 1e-10);
      }
    }
    // The acceptance property: the exact engine's non-collapsing traversal
    // against the dense contraction, plus the generic fallback as a third
    // independent computation of the same numbers.
    std::unique_ptr<Engine> exact = makeEngine("exact", n);
    exact->run(fuzz.circuit);
    EXPECT_NEAR(exact->expectation(obs), reference->expectation(obs), 1e-10);
    EXPECT_NEAR(genericExpectation(*exact, obs), reference->expectation(obs),
                1e-10);
  }
}

TEST(Differential, ChpExtractionMatchesEveryPrefixToTenDigits) {
  // The tableau→circuit extraction behind every chp→* conversion route:
  // for EVERY prefix length of every Clifford-only fuzz case, replaying
  // extractPreparation() from |0...0⟩ reproduces the prefix's per-basis
  // probabilities to 10 digits (the extraction is exact up to global
  // phase, so probabilities — not amplitudes — are the comparable).
  for (const FuzzCase& fuzz : fuzzCorpus()) {
    if (!fuzz.cliffordOnly) continue;
    SCOPED_TRACE(fuzz.id);
    const unsigned n = fuzz.circuit.numQubits();
    StatevectorSimulator reference(n);  // advanced gate by gate in lockstep
    StabilizerSimulator tableau(n);
    for (std::size_t len = 0; len <= fuzz.circuit.gateCount(); ++len) {
      if (len > 0) {
        const Gate& g = fuzz.circuit.gate(len - 1);
        reference.applyGate(g);
        tableau.applyGate(g);
      }
      StatevectorSimulator replay(n);
      replay.run(tableau.extractPreparation());
      for (std::uint64_t i = 0; i < (std::uint64_t{1} << n); ++i) {
        EXPECT_NEAR(std::norm(replay.amplitude(i)),
                    std::norm(reference.amplitude(i)), 1e-10)
            << "prefix " << len << " basis state " << i;
      }
    }
  }
}

TEST(Differential, ChpHandoffMatchesMonolithicAtEverySplitPoint) {
  // The acceptance property of exportTo: a chp-prefix handoff into each of
  // exact/qmdd/statevector is pinned <= 1e-10 against the monolithic run
  // for EVERY split point inside the Clifford prefix — wherever the split
  // falls, the answer is the same.
  for (const FuzzCase& fuzz : handoffCorpus()) {
    SCOPED_TRACE(fuzz.id);
    const unsigned n = fuzz.circuit.numQubits();
    const std::size_t prefix =
        analyzeCircuit(fuzz.circuit).cliffordPrefixGates;
    // The corpus shape guarantees a Clifford prefix of at least 4 gates.
    ASSERT_GE(prefix, 4u);
    ASSERT_LT(prefix, fuzz.circuit.gateCount());
    const PauliObservable obs =
        randomObservable(n, 3, circuitDigest(fuzz.circuit) ^ 0x9e3779b9ULL);
    for (const char* name : {"exact", "qmdd", "statevector"}) {
      SCOPED_TRACE(name);
      const std::unique_ptr<Engine> monolithic = makeEngine(name, n);
      monolithic->run(fuzz.circuit);
      const double monolithicExpectation = monolithic->expectation(obs);
      for (std::size_t split = 0; split <= prefix; ++split) {
        SCOPED_TRACE("split " + std::to_string(split));
        const std::unique_ptr<Engine> chp = makeEngine("chp", n);
        for (std::size_t i = 0; i < split; ++i)
          chp->applyGate(fuzz.circuit.gate(i));
        const std::unique_ptr<Engine> engine = makeEngine(name, n);
        chp->exportTo(*engine);
        for (std::size_t i = split; i < fuzz.circuit.gateCount(); ++i)
          engine->applyGate(fuzz.circuit.gate(i));
        for (unsigned q = 0; q < n; ++q) {
          EXPECT_NEAR(engine->probabilityOne(q), monolithic->probabilityOne(q),
                      1e-10)
              << "qubit " << q;
        }
        EXPECT_NEAR(engine->expectation(obs), monolithicExpectation, 1e-10);
        EXPECT_NEAR(engine->totalProbability(), 1.0, 1e-10);
      }
    }
  }
}

}  // namespace
}  // namespace sliq
