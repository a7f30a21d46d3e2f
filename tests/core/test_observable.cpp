// PauliObservable: spec parsing with file:line diagnostics (mirroring the
// noise-model parser tests), the Engine::expectation facade contract, and
// agreement of every engine's native fast path with closed-form values and
// with the engine-agnostic basis-change fallback — all without collapsing
// the state.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "circuit/circuit.hpp"
#include "circuit/generators.hpp"
#include "core/engine_registry.hpp"
#include "core/measurement_context.hpp"
#include "core/observable.hpp"
#include "core/simulator.hpp"
#include "support/metrics.hpp"
#include "support/rng.hpp"

namespace sliq {
namespace {

void expectSpecError(const std::string& spec, const std::string& fragment,
                     const std::string& location) {
  try {
    PauliObservable::parseString(spec);
    FAIL() << "expected ObservableSpecError for: " << spec;
  } catch (const ObservableSpecError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(location), std::string::npos) << what;
    EXPECT_NE(what.find(fragment), std::string::npos) << what;
  }
}

// ---- spec parsing ---------------------------------------------------------

TEST(ObservableSpec, ParsesFullSpec) {
  const PauliObservable obs = PauliObservable::parseString(
      "# Ising-style energy\n"
      "0.5  Z0 Z1\n"
      "-.25 x0 y2   # case-insensitive factors\n"
      "1.5          # identity term (constant offset)\n"
      "2 I3 Z4      # identity factors are dropped\n");
  ASSERT_EQ(obs.terms().size(), 4u);
  EXPECT_DOUBLE_EQ(obs.terms()[0].coefficient, 0.5);
  EXPECT_EQ(obs.terms()[0].pauliText(), "Z0 Z1");
  EXPECT_DOUBLE_EQ(obs.terms()[1].coefficient, -0.25);
  EXPECT_EQ(obs.terms()[1].pauliText(), "X0 Y2");
  EXPECT_TRUE(obs.terms()[2].isIdentity());
  EXPECT_EQ(obs.terms()[3].pauliText(), "Z4");
  EXPECT_EQ(obs.numQubitsRequired(), 5u);
  EXPECT_TRUE(obs.terms()[0].isDiagonal());
  EXPECT_FALSE(obs.terms()[1].isDiagonal());
  // Parsed line numbers anchor later width diagnostics.
  EXPECT_EQ(obs.terms()[0].sourceLine, 2u);
  EXPECT_EQ(obs.terms()[3].sourceLine, 5u);
}

TEST(ObservableSpec, BadPauliCharacterNamesOriginAndLine) {
  expectSpecError("1.0 Z0\n0.5 Q1\n", "Q1", "<spec>:2");
  expectSpecError("1.0 Z0 W2\n", "W2", "<spec>:1");
}

TEST(ObservableSpec, QubitIndexDiagnostics) {
  // Malformed / absurd indices fail at parse time...
  expectSpecError("1.0 Z\n", "Z", "<spec>:1");
  expectSpecError("1.0 Z-1\n", "Z-1", "<spec>:1");
  expectSpecError("1.0 Zx\n", "Zx", "<spec>:1");
  expectSpecError("1.0 Z999999999999\n", "Z999999999999", "<spec>:1");
  // ...and in-range-at-parse indices are checked against the actual circuit
  // width later, still citing the defining spec line.
  const PauliObservable obs =
      PauliObservable::parseString("1.0 Z0\n0.5 Z0 Z7\n");
  try {
    obs.validateForWidth(4);
    FAIL() << "expected ObservableSpecError";
  } catch (const ObservableSpecError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("<spec>:2"), std::string::npos) << what;
    EXPECT_NE(what.find("qubit 7"), std::string::npos) << what;
    EXPECT_NE(what.find("4 qubits"), std::string::npos) << what;
  }
  obs.validateForWidth(8);  // wide enough: no throw
}

TEST(ObservableSpec, DuplicateQubitInOneStringIsRejected) {
  expectSpecError("1.0 Z0 X0\n", "duplicate qubit 0", "<spec>:1");
  expectSpecError("0.5 Z1\n1.0 Y2 Z3 Y2\n", "duplicate qubit 2", "<spec>:2");
}

TEST(ObservableSpec, EmptySpecIsRejectedWithOriginAndLine) {
  expectSpecError("", "no terms", "<spec>:1");
  expectSpecError("# only comments\n\n   \n", "no terms", "<spec>:3");
}

TEST(ObservableSpec, BadCoefficientIsRejected) {
  expectSpecError("abc Z0\n", "coefficient", "<spec>:1");
  expectSpecError("1.0.0 Z0\n", "coefficient", "<spec>:1");
}

TEST(ObservableSpec, MissingFileThrows) {
  EXPECT_THROW(PauliObservable::parseFile("/no/such/observable.txt"),
               ObservableSpecError);
}

TEST(ObservableApi, AddTermSortsFactorsAndRejectsDuplicates) {
  PauliObservable obs;
  obs.addTerm(1.0, {{3, Pauli::kX}, {1, Pauli::kZ}, {2, Pauli::kI}});
  ASSERT_EQ(obs.terms().size(), 1u);
  EXPECT_EQ(obs.terms()[0].pauliText(), "Z1 X3");  // sorted, I dropped
  EXPECT_THROW(obs.addTerm(1.0, {{0, Pauli::kX}, {0, Pauli::kZ}}),
               ObservableSpecError);
}

// ---- expectation values ---------------------------------------------------

/// ⟨O⟩ on `circuit` for every engine that supports it; each value must be
/// within 1e-10 of `expected` (native fast paths) and of the generic
/// basis-change fallback.
void expectAllEngines(const QuantumCircuit& circuit, const std::string& spec,
                      double expected) {
  const PauliObservable obs = PauliObservable::parseString(spec);
  for (const std::string& name : engineNames()) {
    SCOPED_TRACE(name + " on " + spec);
    std::unique_ptr<Engine> engine = makeEngine(name, circuit.numQubits());
    if (!engine->supports(circuit)) continue;
    engine->run(circuit);
    EXPECT_NEAR(engine->expectation(obs), expected, 1e-10);
    EXPECT_NEAR(genericExpectation(*engine, obs), expected, 1e-10);
  }
}

TEST(Expectation, BellStateClosedForms) {
  QuantumCircuit bell(2);
  bell.h(0).cx(0, 1);
  expectAllEngines(bell, "1 Z0 Z1", 1.0);
  expectAllEngines(bell, "1 X0 X1", 1.0);
  expectAllEngines(bell, "1 Y0 Y1", -1.0);
  expectAllEngines(bell, "1 Z0", 0.0);
  expectAllEngines(bell, "1 X0", 0.0);
  expectAllEngines(bell, "1 X0 Y1", 0.0);
  expectAllEngines(bell, "0.5 Z0 Z1\n-0.25 Y0 Y1\n2.0\n", 2.75);
}

TEST(Expectation, GhzParitiesAndSingleQubitTerms) {
  QuantumCircuit ghz(4);
  ghz.h(0).cx(0, 1).cx(1, 2).cx(2, 3);
  expectAllEngines(ghz, "1 Z0 Z2", 1.0);
  expectAllEngines(ghz, "1 X0 X1 X2 X3", 1.0);
  expectAllEngines(ghz, "1 Y0 Y1 X2 X3", -1.0);  // two Y pairs flip sign
  expectAllEngines(ghz, "1 Z0 Z1 Z2", 0.0);
  expectAllEngines(ghz, "1 X0", 0.0);
}

TEST(Expectation, TStateSingleQubitBlochVector) {
  // H then T: Bloch vector (cos π/4, sin π/4, 0).
  QuantumCircuit c(1);
  c.h(0).t(0);
  const double inv = 1.0 / std::sqrt(2.0);
  expectAllEngines(c, "1 X0", inv);
  expectAllEngines(c, "1 Y0", inv);
  expectAllEngines(c, "1 Z0", 0.0);
}

TEST(Expectation, ProductStateWithFlippedQubit) {
  QuantumCircuit c(3);
  c.x(1).h(2);
  expectAllEngines(c, "1 Z0", 1.0);
  expectAllEngines(c, "1 Z1", -1.0);
  expectAllEngines(c, "1 X2", 1.0);
  expectAllEngines(c, "1 Z0 Z1", -1.0);
  expectAllEngines(c, "1 Z1 X2", -1.0);
}

TEST(Expectation, IdentityObservableIsExactlyOne) {
  QuantumCircuit c(2);
  c.h(0).t(0).cx(0, 1);
  expectAllEngines(c, "3.5\n", 3.5);
  expectAllEngines(c, "1 I0 I1\n", 1.0);
}

TEST(Expectation, NativeMatchesGenericOnNonCliffordStates) {
  // Entangled non-Clifford state: natives (BDD pair descent, DD pair
  // contraction, dense contraction) against the basis-change fallback.
  QuantumCircuit c(3);
  c.h(0).t(0).cx(0, 1).h(2).t(2).cx(1, 2).s(1).h(1);
  const char* specs[] = {
      "1 Z0 Z1 Z2", "1 X0 Y1", "1 Y0 X1 Z2", "1 X2",
      "0.5 Z0 Z1\n0.25 X0 X1 X2\n-1 Y1 Y2\n0.125\n",
  };
  for (const std::string& name : engineNames()) {
    std::unique_ptr<Engine> engine = makeEngine(name, c.numQubits());
    if (!engine->supports(c)) continue;
    engine->run(c);
    for (const char* spec : specs) {
      SCOPED_TRACE(name + std::string(" on ") + spec);
      const PauliObservable obs = PauliObservable::parseString(spec);
      EXPECT_NEAR(engine->expectation(obs), genericExpectation(*engine, obs),
                  1e-10);
    }
  }
}

TEST(Expectation, DoesNotCollapseOrPerturbTheState) {
  // expectation() must leave every later query identical: probabilities,
  // expectations, and sampled shots under a fixed seed.
  QuantumCircuit c(3);
  c.h(0).t(0).cx(0, 1).cx(1, 2);
  const PauliObservable obs =
      PauliObservable::parseString("1 X0 Y1 Z2\n0.5 Z0 Z1\n");
  for (const std::string& name : engineNames()) {
    SCOPED_TRACE(name);
    std::unique_ptr<Engine> probed = makeEngine(name, c.numQubits());
    std::unique_ptr<Engine> control = makeEngine(name, c.numQubits());
    if (!probed->supports(c)) continue;
    probed->run(c);
    control->run(c);
    const double first = probed->expectation(obs);
    EXPECT_NEAR(probed->expectation(obs), first, 1e-12) << "not repeatable";
    for (unsigned q = 0; q < c.numQubits(); ++q) {
      EXPECT_NEAR(probed->probabilityOne(q), control->probabilityOne(q),
                  1e-12);
    }
    Rng rngProbed(99), rngControl(99);
    EXPECT_EQ(probed->sampleShots(16, rngProbed),
              control->sampleShots(16, rngControl));
  }
}

TEST(Expectation, ZOnlyStringsLeaveTheExactContextWarm) {
  // A diagonal string is one descent of the already-built monolithic
  // hyper-function — no gate application, no cache invalidation, no
  // collapse.
  QuantumCircuit c(3);
  c.h(0).t(0).cx(0, 1).cx(1, 2);
  SliqSimulator sim(c.numQubits());
  sim.run(c);
  (void)sim.probabilityOne(0);  // warm the context
  ASSERT_TRUE(sim.measurementContext().current());
  const PauliObservable z0z2 = PauliObservable::parseString("1 Z0 Z2");
  const double zz = sim.measurementContext().expectation(z0z2.terms()[0]);
  EXPECT_TRUE(sim.measurementContext().current()) << "Z string mutated state";
  // Cross-check against the facade's generic fallback on a twin.
  std::unique_ptr<Engine> twin = makeEngine("exact", c.numQubits());
  twin->run(c);
  EXPECT_NEAR(
      zz,
      genericExpectation(*twin, PauliObservable::parseString("1 Z0 Z2")),
      1e-12);
}

TEST(Expectation, ExactExpectationIsReadOnly) {
  // X/Y strings are a pure query on the exact engine too: repeated calls
  // create no BDD node, grow neither the bit-width nor the diagram, never drop
  // the measurement memo, and return bit-identical values.
  const QuantumCircuit c = randomCircuit(12, 36, 3);
  const std::unique_ptr<Engine> engine = makeEngine("exact", c.numQubits());
  engine->metrics().enable();
  engine->run(c);
  for (unsigned q = 0; q < c.numQubits(); ++q)
    (void)engine->probabilityOne(q);
  const std::unique_ptr<Engine> twin =
      makeEngine("statevector", c.numQubits());
  twin->run(c);
  auto invalidations = [](const metrics::RunReport& report) {
    const auto& counters = report.metrics.counters;
    const auto it = counters.find("memo.invalidate");
    return it == counters.end() ? std::uint64_t{0} : it->second;
  };
  const metrics::RunReport before = engine->runMetrics();
  for (const char* spec : {"1 X0 Y5", "1 Z1 X3 Y7"}) {
    SCOPED_TRACE(spec);
    const PauliObservable obs = PauliObservable::parseString(spec);
    const double first = engine->expectation(obs);
    EXPECT_NEAR(first, twin->expectation(obs), 1e-10);
    for (int call = 1; call < 200; ++call)
      EXPECT_EQ(engine->expectation(obs), first) << "call " << call;
  }
  const metrics::RunReport after = engine->runMetrics();
  // A rotate-and-restore answer would build BDD nodes and probe the
  // computed cache; the pair descent does neither.
  for (const char* counter : {"bdd.created_nodes", "cache.lookups"}) {
    EXPECT_EQ(after.metrics.counters.at(counter),
              before.metrics.counters.at(counter))
        << counter;
  }
  EXPECT_EQ(after.metrics.gauges.at("bitwidth.max"),
            before.metrics.gauges.at("bitwidth.max"));
  EXPECT_EQ(after.metrics.gauges.at("nodes.live"),
            before.metrics.gauges.at("nodes.live"));
  EXPECT_EQ(invalidations(after), invalidations(before));
}

TEST(Expectation, AfterMeasureThrowsOnEveryEngine) {
  QuantumCircuit c(2);
  c.h(0).cx(0, 1);
  const PauliObservable obs = PauliObservable::parseString("1 Z0 Z1");
  for (const std::string& name : engineNames()) {
    SCOPED_TRACE(name);
    std::unique_ptr<Engine> engine = makeEngine(name, 2);
    engine->run(c);
    (void)engine->measure(0, 0.25);
    EXPECT_THROW(engine->expectation(obs), std::logic_error);
  }
}

TEST(Expectation, TooWideObservableIsRejectedOnEveryEngine) {
  const PauliObservable obs = PauliObservable::parseString("1 Z0 Z5");
  for (const std::string& name : engineNames()) {
    SCOPED_TRACE(name);
    std::unique_ptr<Engine> engine = makeEngine(name, 2);
    engine->run(QuantumCircuit(2).h(0));
    EXPECT_THROW(engine->expectation(obs), ObservableSpecError);
  }
}

}  // namespace
}  // namespace sliq
