// Batched multi-shot sampling (Engine::sampleShots / MeasurementContext):
// statistical correctness against the engines' own exact probabilities,
// exact agreement between the batched and loop paths under a fixed seed,
// and invalidation of the persistent measurement context on state mutation.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <memory>
#include <stdexcept>
#include <vector>

#include "circuit/circuit.hpp"
#include "circuit/generators.hpp"
#include "core/engine_registry.hpp"
#include "core/measurement_context.hpp"
#include "core/observable.hpp"
#include "core/simulator.hpp"
#include "statevector/statevector.hpp"
#include "support/rng.hpp"
#include "support/serialize.hpp"

namespace sliq {
namespace {

/// Entangled Clifford circuit every registered engine supports.
QuantumCircuit cliffordEntangled() {
  QuantumCircuit c(5, "clifford-entangled");
  c.h(0).cx(0, 1).s(1).cx(1, 2).h(3).cx(3, 4).cz(0, 4).x(2);
  return c;
}

/// Small entangled circuit with non-Clifford (T) structure, giving
/// asymmetric per-qubit probabilities. chp does not support it.
QuantumCircuit tEntangled() {
  QuantumCircuit c(3, "t-entangled");
  c.h(0).t(0).h(0).cx(0, 1).h(2).t(2).h(2).cx(1, 2);
  return c;
}

std::uint64_t toIndex(const std::vector<bool>& bits) {
  std::uint64_t index = 0;
  for (std::size_t q = 0; q < bits.size(); ++q)
    if (bits[q]) index |= std::uint64_t{1} << q;
  return index;
}

/// Chi-squared test of per-qubit empirical frequencies against the
/// engine's own exact probabilityOne values. Deterministic qubits
/// (p ∈ {0,1}) are checked exactly and excluded from the statistic.
void expectMarginalsMatch(Engine& engine, const QuantumCircuit& c,
                          unsigned shots, std::uint64_t seed) {
  engine.run(c);
  const unsigned n = engine.numQubits();
  std::vector<double> expected(n);
  for (unsigned q = 0; q < n; ++q) expected[q] = engine.probabilityOne(q);

  Rng rng(seed);
  const auto samples = engine.sampleShots(shots, rng);
  ASSERT_EQ(samples.size(), shots);
  std::vector<unsigned> ones(n, 0);
  for (const auto& bits : samples) {
    ASSERT_EQ(bits.size(), n);
    for (unsigned q = 0; q < n; ++q) ones[q] += bits[q] ? 1 : 0;
  }

  double chiSq = 0;
  unsigned dof = 0;
  for (unsigned q = 0; q < n; ++q) {
    const double p = expected[q];
    if (p <= 0.0) {
      EXPECT_EQ(ones[q], 0u) << "qubit " << q;
    } else if (p >= 1.0) {
      EXPECT_EQ(ones[q], shots) << "qubit " << q;
    } else {
      const double diff = ones[q] - shots * p;
      chiSq += diff * diff / (shots * p * (1.0 - p));
      ++dof;
    }
  }
  if (dof > 0) {
    // Heuristic bound, not an exact chi² test: per-qubit marginals of an
    // entangled state are correlated, so the summed z² statistic is only
    // approximately chi²(dof). The threshold exceeds the chi²(dof) 99.9th
    // percentile for every dof ≥ 1 (10.83 at dof = 1, 20.5 at dof = 5),
    // and the fixed seed makes each run deterministic regardless.
    EXPECT_LT(chiSq, 10.0 + 4.0 * dof) << "dof = " << dof;
  }
}

TEST(Sampling, MarginalsMatchProbabilityOneOnEveryEngine) {
  const QuantumCircuit c = cliffordEntangled();
  for (const std::string& name : engineNames()) {
    SCOPED_TRACE(name);
    std::unique_ptr<Engine> engine = makeEngine(name, c.numQubits());
    ASSERT_TRUE(engine->supports(c));
    expectMarginalsMatch(*engine, c, 6000, 1234);
  }
}

TEST(Sampling, MarginalsMatchProbabilityOneNonClifford) {
  const QuantumCircuit c = tEntangled();
  for (const std::string& name : engineNames()) {
    SCOPED_TRACE(name);
    std::unique_ptr<Engine> engine = makeEngine(name, c.numQubits());
    if (!engine->supports(c)) continue;  // chp: Clifford only
    expectMarginalsMatch(*engine, c, 6000, 99);
  }
}

TEST(Sampling, JointDistributionMatchesDenseGroundTruth) {
  // Total-variation bound of the empirical joint distribution against the
  // dense simulator's exact |amplitude|². With k shots the expected TV
  // distance scales like √(#states/k); 0.05 is a comfortable margin for
  // 8 states and 8000 shots (and the seed is fixed).
  const QuantumCircuit c = tEntangled();
  StatevectorSimulator dense(c.numQubits());
  dense.run(c);
  const unsigned kShots = 8000;
  for (const std::string& name : engineNames()) {
    SCOPED_TRACE(name);
    std::unique_ptr<Engine> engine = makeEngine(name, c.numQubits());
    if (!engine->supports(c)) continue;
    engine->run(c);
    Rng rng(7);
    std::map<std::uint64_t, unsigned> counts;
    for (const auto& bits : engine->sampleShots(kShots, rng))
      ++counts[toIndex(bits)];
    double tv = 0;
    for (std::uint64_t i = 0; i < (1u << c.numQubits()); ++i) {
      const double empirical =
          counts.count(i) ? double(counts[i]) / kShots : 0.0;
      tv += std::abs(empirical - std::norm(dense.amplitude(i)));
    }
    EXPECT_LT(tv / 2, 0.05);
  }
}

TEST(Sampling, BatchedAgreesWithLoopUnderFixedSeed) {
  // Every engine's batched sampler consumes deviates exactly like its
  // per-shot sampler, so the two paths must produce identical shots.
  const QuantumCircuit c = cliffordEntangled();
  for (const std::string& name : engineNames()) {
    SCOPED_TRACE(name);
    const unsigned kShots = 128;
    std::unique_ptr<Engine> batched = makeEngine(name, c.numQubits());
    batched->run(c);
    Rng rngBatched(4242);
    const auto batchedShots = batched->sampleShots(kShots, rngBatched);

    std::unique_ptr<Engine> looped = makeEngine(name, c.numQubits());
    looped->run(c);
    Rng rngLoop(4242);
    ASSERT_EQ(batchedShots.size(), kShots);
    for (unsigned s = 0; s < kShots; ++s) {
      EXPECT_EQ(batchedShots[s], looped->sampleShot(rngLoop)) << "shot " << s;
    }
  }
}

TEST(Sampling, SampleShotsAfterMeasureThrowsOnEveryEngine) {
  const QuantumCircuit c = cliffordEntangled();
  for (const std::string& name : engineNames()) {
    SCOPED_TRACE(name);
    std::unique_ptr<Engine> engine = makeEngine(name, c.numQubits());
    engine->run(c);
    (void)engine->measure(0, 0.25);
    Rng rng(3);
    EXPECT_THROW(engine->sampleShots(4, rng), std::logic_error);
  }
}

TEST(Sampling, SampleShotsZeroCountIsEmpty) {
  for (const std::string& name : engineNames()) {
    SCOPED_TRACE(name);
    std::unique_ptr<Engine> engine = makeEngine(name, 2);
    engine->run(QuantumCircuit(2).h(0).cx(0, 1));
    Rng rng(1);
    EXPECT_TRUE(engine->sampleShots(0, rng).empty());
  }
}

TEST(Sampling, SampleShotsZeroCountLeavesRngUntouched) {
  // The facade contract pins count == 0 to "no deviate consumed" on every
  // engine, so interleaving empty batches can never perturb a seeded run.
  for (const std::string& name : engineNames()) {
    SCOPED_TRACE(name);
    std::unique_ptr<Engine> engine = makeEngine(name, 2);
    engine->run(QuantumCircuit(2).h(0).cx(0, 1));
    Rng used(123), untouched(123);
    (void)engine->sampleShots(0, used);
    EXPECT_EQ(used.next(), untouched.next());
    // And subsequent sampling behaves as if the empty batch never happened.
    Rng a(7), b(7);
    (void)engine->sampleShots(0, a);
    EXPECT_EQ(engine->sampleShots(2, a), engine->sampleShots(2, b));
  }
}

/// Chi-squared-style test that shot-based estimators of ⟨Z_i⟩ and
/// ⟨Z_i Z_j⟩ converge to the engine's analytic expectation(): each
/// estimator's z² enters a summed statistic exactly like
/// expectMarginalsMatch's, with Var[estimate] = (1 − e²)/shots for a ±1
/// observable. Deterministic observables (|e| = 1) are checked exactly and
/// excluded from the statistic.
void expectShotEstimatesMatchExpectation(Engine& engine,
                                         const QuantumCircuit& c,
                                         unsigned shots, std::uint64_t seed) {
  engine.run(c);
  const unsigned n = engine.numQubits();
  Rng rng(seed);
  const auto samples = engine.sampleShots(shots, rng);
  ASSERT_EQ(samples.size(), shots);

  double chiSq = 0;
  unsigned dof = 0;
  auto check = [&](const PauliObservable& obs, double estimate) {
    const double exact = engine.expectation(obs);
    if (std::abs(exact) >= 1.0 - 1e-12) {
      EXPECT_NEAR(estimate, exact, 1e-12) << obs.summary();
      return;
    }
    const double variance = (1.0 - exact * exact) / shots;
    const double diff = estimate - exact;
    chiSq += diff * diff / variance;
    ++dof;
  };

  // ⟨Z_i⟩ from per-qubit means of (−1)^bit.
  for (unsigned q = 0; q < n; ++q) {
    double mean = 0;
    for (const auto& bits : samples) mean += bits[q] ? -1.0 : 1.0;
    PauliObservable obs;
    obs.addTerm(1.0, {{q, Pauli::kZ}});
    check(obs, mean / shots);
  }
  // ⟨Z_i Z_j⟩ from pair parities (adjacent pairs keep the statistic small).
  for (unsigned q = 0; q + 1 < n; ++q) {
    double mean = 0;
    for (const auto& bits : samples)
      mean += (bits[q] != bits[q + 1]) ? -1.0 : 1.0;
    PauliObservable obs;
    obs.addTerm(1.0, {{q, Pauli::kZ}, {q + 1, Pauli::kZ}});
    check(obs, mean / shots);
  }
  if (dof > 0) {
    // Same heuristic bound as expectMarginalsMatch: the estimators are
    // correlated on entangled states, so the summed z² is only
    // approximately chi²(dof); the threshold clears the 99.9th percentile
    // for every dof ≥ 1 and the fixed seed makes the run deterministic.
    EXPECT_LT(chiSq, 10.0 + 4.0 * dof) << "dof = " << dof;
  }
}

TEST(Sampling, ShotEstimatesConvergeToExpectationOnEveryEngine) {
  const QuantumCircuit c = cliffordEntangled();
  for (const std::string& name : engineNames()) {
    SCOPED_TRACE(name);
    std::unique_ptr<Engine> engine = makeEngine(name, c.numQubits());
    ASSERT_TRUE(engine->supports(c));
    expectShotEstimatesMatchExpectation(*engine, c, 6000, 4321);
  }
}

TEST(Sampling, ShotEstimatesConvergeToExpectationNonClifford) {
  const QuantumCircuit c = tEntangled();
  for (const std::string& name : engineNames()) {
    SCOPED_TRACE(name);
    std::unique_ptr<Engine> engine = makeEngine(name, c.numQubits());
    if (!engine->supports(c)) continue;  // chp: Clifford only
    expectShotEstimatesMatchExpectation(*engine, c, 6000, 777);
  }
}

TEST(Sampling, PersistentContextInvalidatesOnMutation) {
  // Interleave cached queries with state mutations and check every answer
  // against a dense simulator following the same evolution.
  const QuantumCircuit c = tEntangled();
  SliqSimulator sim(c.numQubits());
  StatevectorSimulator dense(c.numQubits());
  sim.run(c);
  dense.run(c);

  auto expectProbsMatch = [&] {
    for (unsigned q = 0; q < c.numQubits(); ++q)
      EXPECT_NEAR(sim.probabilityOne(q), dense.probabilityOne(q), 1e-9) << q;
  };

  expectProbsMatch();
  EXPECT_TRUE(sim.measurementContext().current());

  // Gate application must invalidate the context.
  const Gate extra{GateKind::kH, {1}, {}};
  sim.applyGate(extra);
  dense.applyGate(extra);
  EXPECT_FALSE(sim.measurementContext().current());
  expectProbsMatch();

  // Sampling warms the caches; repeated queries stay correct.
  Rng rng(5);
  (void)sim.sampleShots(32, rng);
  EXPECT_TRUE(sim.measurementContext().current());
  expectProbsMatch();

  // Collapse must invalidate too, and post-collapse answers must track the
  // dense simulator collapsed with the same deviate.
  const double deviate = 0.37;
  EXPECT_EQ(sim.measure(0, deviate), dense.measure(0, deviate));
  expectProbsMatch();
  EXPECT_NEAR(sim.normalizationCorrection() /
                  std::sqrt(1.0 / sim.totalProbability()),
              1.0, 1e-9);

  // Sifting after a query: reorder() unpins the hyper-function before it
  // sifts, so every answer still matches, then and after one more gate.
  // The Pauli string checks the expectation descent under a permuted
  // qubit-variable order.
  const QuantumCircuit rc = randomCircuit(8, 24, 1);
  SliqSimulator sifted(rc.numQubits());
  StatevectorSimulator siftedDense(rc.numQubits());
  sifted.run(rc);
  siftedDense.run(rc);
  const PauliObservable xyz = PauliObservable::parseString("1 X2 Z3 Y7");
  auto expectSiftedMatch = [&](SliqSimulator& s) {
    for (unsigned q = 0; q < rc.numQubits(); ++q)
      EXPECT_NEAR(s.probabilityOne(q), siftedDense.probabilityOne(q), 1e-9)
          << q;
    EXPECT_NEAR(s.measurementContext().expectation(xyz.terms()[0]),
                siftedDense.expectationPauli(1u << 2, 1u << 7, 1u << 3),
                1e-9);
  };
  expectSiftedMatch(sifted);
  sifted.reorder();
  EXPECT_FALSE(sifted.measurementContext().current());
  expectSiftedMatch(sifted);
  const Gate more{GateKind::kH, {2}, {}};
  sifted.applyGate(more);
  siftedDense.applyGate(more);
  expectSiftedMatch(sifted);

  // A direct sift while the hyper-function is pinned may lift the encoding
  // variables above the qubit variables: the layout check must then throw
  // rather than a query return a wrong value.
  SliqSimulator direct(rc.numQubits());
  direct.run(rc);
  direct.applyGate(more);
  expectSiftedMatch(direct);
  direct.bddManager().reorderSift();
  for (unsigned q = 0; q < rc.numQubits(); ++q) {
    try {
      EXPECT_NEAR(direct.probabilityOne(q), siftedDense.probabilityOne(q),
                  1e-9)
          << q;
    } catch (const std::logic_error&) {
      // The layout check fired: loud rather than wrong.
    }
  }

  // A snapshot round trip replaces the state: the caches are stale, the
  // answers unchanged.
  EXPECT_TRUE(sifted.measurementContext().current());
  serialize::Writer out;
  sifted.saveStatePayload(out);
  serialize::Reader in(out.data());
  sifted.loadStatePayload(in);
  EXPECT_FALSE(sifted.measurementContext().current());
  expectSiftedMatch(sifted);
}

TEST(Sampling, ExactBatchedMatchesRepeatedSampleAll) {
  // SliqSimulator::sampleShots is defined as count sampleAll calls sharing
  // one context; verify against literal repeated sampleAll on a twin.
  const QuantumCircuit c = tEntangled();
  SliqSimulator a(c.numQubits());
  SliqSimulator b(c.numQubits());
  a.run(c);
  b.run(c);
  Rng rngA(11), rngB(11);
  const auto batch = a.sampleShots(50, rngA);
  for (const auto& bits : batch) {
    EXPECT_EQ(bits, b.sampleAll(rngB));
  }
}

}  // namespace
}  // namespace sliq
