#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <memory>

#include "circuit/generators.hpp"
#include "core/engine_registry.hpp"
#include "core/simulator.hpp"
#include "statevector/statevector.hpp"
#include "support/rng.hpp"

namespace sliq {
namespace {

constexpr double kTol = 1e-9;

TEST(Measurement, ProbabilitiesMatchDenseAfterRandomCircuit) {
  for (std::uint64_t seed : {4ull, 5ull, 6ull}) {
    const QuantumCircuit c = randomCircuit(5, 35, seed);
    SliqSimulator sliq(5);
    StatevectorSimulator dense(5);
    sliq.run(c);
    dense.run(c);
    for (unsigned q = 0; q < 5; ++q)
      EXPECT_NEAR(sliq.probabilityOne(q), dense.probabilityOne(q), kTol);
  }
}

TEST(Measurement, CollapseMatchesDense) {
  const QuantumCircuit c = randomCircuit(4, 25, 9);
  SliqSimulator sliq(4);
  StatevectorSimulator dense(4);
  sliq.run(c);
  dense.run(c);
  // Force the same outcomes on both engines.
  for (unsigned q = 0; q < 4; q += 2) {
    const double random = 0.25;
    const bool a = sliq.measure(q, random);
    const bool b = dense.measure(q, random);
    ASSERT_EQ(a, b) << "qubit " << q;
    // Post-collapse distributions agree on the remaining qubits.
    for (unsigned p = 0; p < 4; ++p)
      EXPECT_NEAR(sliq.probabilityOne(p), dense.probabilityOne(p), kTol);
  }
}

TEST(Measurement, BellStateCorrelation) {
  SliqSimulator sim(2);
  sim.applyGate(Gate{GateKind::kH, {0}, {}});
  sim.applyGate(Gate{GateKind::kCnot, {1}, {0}});
  const bool first = sim.measure(0, 0.7);
  // Perfect correlation, exactly.
  EXPECT_NEAR(sim.probabilityOne(1), first ? 1.0 : 0.0, 0.0);
  const bool second = sim.measure(1, 0.99);
  EXPECT_EQ(first, second);
}

TEST(Measurement, GhzSequentialMeasurementAllAgree) {
  SliqSimulator sim(8);
  sim.run(entanglementCircuit(8));
  Rng rng(31);
  const bool first = sim.measure(0, rng.uniform());
  for (unsigned q = 1; q < 8; ++q) {
    EXPECT_EQ(sim.measure(q, rng.uniform()), first) << q;
  }
}

TEST(Measurement, MeasurementFrequenciesFollowBornRule) {
  // |ψ⟩ = T H |0⟩ then H: Pr[1] = (2-√2)/4 ≈ 0.1464. Exact check via
  // probabilityOne, stochastic check via measure().
  auto build = [] {
    auto sim = std::make_unique<SliqSimulator>(1);
    sim->applyGate(Gate{GateKind::kH, {0}, {}});
    sim->applyGate(Gate{GateKind::kT, {0}, {}});
    sim->applyGate(Gate{GateKind::kH, {0}, {}});
    return sim;
  };
  auto sim = build();
  const double p1 = sim->probabilityOne(0);
  EXPECT_NEAR(p1, (2.0 - std::sqrt(2.0)) / 4.0, 1e-15);
  Rng rng(17);
  int ones = 0;
  const int kShots = 3000;
  for (int s = 0; s < kShots; ++s) {
    auto shot = build();
    ones += shot->measure(0, rng.uniform());
  }
  EXPECT_NEAR(double(ones) / kShots, p1, 0.02);
}

TEST(Measurement, SampleAllMatchesDistribution) {
  // Two-qubit state with asymmetric probabilities.
  SliqSimulator sim(2);
  sim.applyGate(Gate{GateKind::kH, {0}, {}});
  sim.applyGate(Gate{GateKind::kT, {0}, {}});
  sim.applyGate(Gate{GateKind::kH, {0}, {}});
  sim.applyGate(Gate{GateKind::kCnot, {1}, {0}});
  StatevectorSimulator dense(2);
  dense.applyGate(Gate{GateKind::kH, {0}, {}});
  dense.applyGate(Gate{GateKind::kT, {0}, {}});
  dense.applyGate(Gate{GateKind::kH, {0}, {}});
  dense.applyGate(Gate{GateKind::kCnot, {1}, {0}});

  Rng rng(23);
  std::map<unsigned, int> counts;
  const int kShots = 4000;
  for (int s = 0; s < kShots; ++s) {
    const auto bits = sim.sampleAll(rng);
    unsigned index = 0;
    for (unsigned q = 0; q < 2; ++q) index |= bits[q] ? 1u << q : 0;
    ++counts[index];
  }
  for (unsigned i = 0; i < 4; ++i) {
    const double expected = std::norm(dense.amplitude(i));
    EXPECT_NEAR(double(counts[i]) / kShots, expected, 0.03) << i;
  }
}

TEST(Measurement, SampleAllUniformOnSkippedQubits) {
  // Uniform superposition: the monolithic BDD skips every qubit level, so
  // sampling must still produce uniform bits.
  SliqSimulator sim(3);
  for (unsigned q = 0; q < 3; ++q)
    sim.applyGate(Gate{GateKind::kH, {q}, {}});
  Rng rng(41);
  std::map<unsigned, int> counts;
  for (int s = 0; s < 4000; ++s) {
    const auto bits = sim.sampleAll(rng);
    unsigned index = 0;
    for (unsigned q = 0; q < 3; ++q) index |= bits[q] ? 1u << q : 0;
    ++counts[index];
  }
  for (unsigned i = 0; i < 8; ++i) EXPECT_NEAR(counts[i], 500, 100) << i;
}

TEST(Measurement, NormalizationCorrectionAfterCollapse) {
  // Dyadic collapse (Clifford): the post-measure renormalization path
  // re-points the k scalar at the halved weight, so the state is exactly
  // normalized again and the correction degenerates to 1 (DESIGN.md §8).
  SliqSimulator sim(2);
  sim.applyGate(Gate{GateKind::kH, {0}, {}});
  sim.applyGate(Gate{GateKind::kH, {1}, {}});
  sim.measure(0, 0.2);  // collapse to q0 = 1 branch (p1 = 0.5 > 0.2)
  EXPECT_NEAR(sim.totalProbability(), 1.0, 1e-12);
  EXPECT_NEAR(sim.normalizationCorrection(), 1.0, 1e-12);
  const auto amp = sim.amplitude(0b01).toComplex();
  EXPECT_NEAR(std::abs(amp), 1.0 / std::sqrt(2.0), 1e-12);

  // Non-dyadic collapse (T-circuit): √(keep probability) is not a power of
  // √2, so the state stays sub-normalized and normalizationCorrection
  // restores physical amplitudes, exactly as before.
  SliqSimulator tsim(1);
  tsim.applyGate(Gate{GateKind::kH, {0}, {}});
  tsim.applyGate(Gate{GateKind::kT, {0}, {}});
  tsim.applyGate(Gate{GateKind::kH, {0}, {}});
  // p1 = (2−√2)/4 ≈ 0.1464: random 0.5 collapses to the 0 branch.
  const double keep = (2.0 + std::sqrt(2.0)) / 4.0;
  EXPECT_FALSE(tsim.measure(0, 0.5));
  EXPECT_NEAR(tsim.totalProbability(), keep, 1e-12);
  const double s = tsim.normalizationCorrection();
  EXPECT_NEAR(s, 1.0 / std::sqrt(keep), 1e-12);
  EXPECT_NEAR(std::abs(tsim.amplitude(0).toComplex()) * s, 1.0, 1e-12);
}

TEST(Measurement, RepeatedMeasurementIsStable) {
  SliqSimulator sim(3);
  sim.run(entanglementCircuit(3));
  const bool v = sim.measure(1, 0.4);
  for (int i = 0; i < 3; ++i) {
    // Measuring the same qubit again returns the same value surely.
    EXPECT_EQ(sim.measure(1, 0.999), v);
    EXPECT_EQ(sim.measure(1, 0.0), v);
  }
}

TEST(Measurement, MarginalsAndCollapseReadOnly) {
  // Marginals come from the read-only pair descent of the Eq. 12
  // hyper-function: once it is built, probabilityOne on every qubit
  // creates no BDD node, makes no computed-cache lookup and pins nothing.
  const QuantumCircuit c = randomCircuit(12, 36, 3);
  const std::unique_ptr<Engine> engine = makeEngine("exact", c.numQubits());
  engine->metrics().enable();
  engine->run(c);
  const std::unique_ptr<Engine> twin =
      makeEngine("statevector", c.numQubits());
  twin->run(c);
  (void)engine->probabilityOne(0);  // builds the hyper-function
  const metrics::RunReport before = engine->runMetrics();
  std::vector<double> first;
  for (unsigned q = 0; q < c.numQubits(); ++q) {
    first.push_back(engine->probabilityOne(q));
    EXPECT_NEAR(first[q], twin->probabilityOne(q), 1e-10) << "qubit " << q;
  }
  for (unsigned q = 0; q < c.numQubits(); ++q)
    EXPECT_EQ(engine->probabilityOne(q), first[q]) << "qubit " << q;
  const metrics::RunReport after = engine->runMetrics();
  for (const char* counter : {"bdd.created_nodes", "cache.lookups"}) {
    EXPECT_EQ(after.metrics.counters.at(counter),
              before.metrics.counters.at(counter))
        << counter;
  }
  EXPECT_EQ(after.metrics.gauges.at("nodes.live"),
            before.metrics.gauges.at("nodes.live"));

  // The collapsed state's weight is the kept half of the marginal, so one
  // measurement fills the memo once and rebuilds nothing after collapsing.
  const std::unique_ptr<Engine> ghz = makeEngine("exact", 8);
  ghz->metrics().enable();
  ghz->run(entanglementCircuit(8));
  (void)ghz->measure(0, 0.5);
  EXPECT_EQ(ghz->runMetrics().metrics.timers.at("memo.fill").count, 1u);
}

}  // namespace
}  // namespace sliq
