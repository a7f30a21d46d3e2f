// Telemetry is observationally invisible (DESIGN.md §11): enabling the
// metrics registry — spans, counters, trace events — must never consume an
// RNG deviate or mutate engine state, so every simulation output is
// bit-identical with --stats/--trace on or off. Pinned here across all
// four engines for static sampling, expectation values, dynamic circuits
// and the (threaded) noise trajectory runner.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/engine_registry.hpp"
#include "core/observable.hpp"
#include "noise/trajectory.hpp"
#include "support/metrics.hpp"
#include "support/rng.hpp"

namespace sliq {
namespace {

constexpr unsigned kQubits = 10;
constexpr std::uint64_t kSeed = 2026;

/// Clifford circuit (for chp) — entangling, all-qubit support.
QuantumCircuit cliffordCircuit() {
  QuantumCircuit c(kQubits);
  c.h(0);
  for (unsigned q = 0; q + 1 < kQubits; ++q) c.cx(q, q + 1);
  for (unsigned q = 0; q < kQubits; q += 2) c.s(q);
  return c;
}

/// Non-Clifford circuit (T layers) for the universal engines.
QuantumCircuit nonCliffordCircuit() {
  QuantumCircuit c(kQubits);
  for (unsigned q = 0; q < kQubits; ++q) c.h(q);
  for (unsigned q = 0; q + 1 < kQubits; ++q) c.cx(q, q + 1);
  for (unsigned q = 0; q < kQubits; q += 2) c.t(q);
  for (unsigned q = 0; q + 1 < kQubits; q += 2) c.cz(q, q + 1);
  return c;
}

QuantumCircuit circuitFor(const std::string& engine) {
  return engine == "chp" ? cliffordCircuit() : nonCliffordCircuit();
}

/// Teleport-shaped dynamic circuit: mid-circuit measurement, classical
/// control and reset — every dynamic op kind the engines execute.
QuantumCircuit dynamicCircuit() {
  QuantumCircuit c(3);
  c.declareClassicalRegister(2);
  c.h(0).s(0);  // payload (Clifford, so chp executes this circuit too)
  c.h(1).cx(1, 2);
  c.cx(0, 1).h(0);
  c.measure(0, 0).measure(1, 1);
  c.onlyIf(1, Gate{GateKind::kZ, {2}, {}});
  c.onlyIf(2, Gate{GateKind::kX, {2}, {}});
  c.onlyIf(3, Gate{GateKind::kX, {2}, {}});
  c.onlyIf(3, Gate{GateKind::kZ, {2}, {}});
  c.reset(0);
  return c;
}

TEST(MetricsDeterminism, SamplingIsBitIdenticalWithTelemetryOn) {
  for (const std::string& name : engineNames()) {
    SCOPED_TRACE(name);
    const QuantumCircuit c = circuitFor(name);

    const std::unique_ptr<Engine> plain = makeEngine(name, kQubits);
    plain->run(c);
    Rng plainRng(kSeed);
    const auto plainShots = plain->sampleShots(128, plainRng);

    const std::unique_ptr<Engine> instrumented = makeEngine(name, kQubits);
    instrumented->metrics().enable();
    instrumented->run(c);
    Rng instrumentedRng(kSeed);
    const auto instrumentedShots = instrumented->sampleShots(128,
                                                             instrumentedRng);

    EXPECT_EQ(plainShots, instrumentedShots);
    // Both RNGs must sit at the same stream position afterwards: telemetry
    // consumed zero deviates.
    EXPECT_EQ(plainRng.uniform(), instrumentedRng.uniform());
    // The instrumented run actually recorded something.
    EXPECT_GT(
        instrumented->runMetrics().metrics.counters.at("gates.pre_fusion"),
        0u);
  }
}

TEST(MetricsDeterminism, QueriesAreExactlyEqualWithTelemetryOn) {
  PauliObservable obs;
  for (unsigned q = 0; q + 1 < kQubits; ++q)
    obs.addTerm(1.0, {{q, Pauli::kZ}, {q + 1, Pauli::kZ}});
  for (unsigned q = 0; q < kQubits; ++q) obs.addTerm(0.5, {{q, Pauli::kX}});

  for (const std::string& name : engineNames()) {
    SCOPED_TRACE(name);
    const QuantumCircuit c = circuitFor(name);

    const std::unique_ptr<Engine> plain = makeEngine(name, kQubits);
    plain->run(c);
    const std::unique_ptr<Engine> instrumented = makeEngine(name, kQubits);
    instrumented->metrics().enable();
    instrumented->run(c);

    for (unsigned q = 0; q < kQubits; ++q) {
      EXPECT_EQ(plain->probabilityOne(q), instrumented->probabilityOne(q))
          << "qubit " << q;  // bitwise ==, not NEAR: identical code path
    }
    EXPECT_EQ(plain->expectation(obs), instrumented->expectation(obs));
    EXPECT_EQ(plain->totalProbability(), instrumented->totalProbability());
  }
}

TEST(MetricsDeterminism, DynamicRunsAreBitIdenticalWithTelemetryOn) {
  const QuantumCircuit c = dynamicCircuit();
  for (const std::string& name : engineNames()) {
    SCOPED_TRACE(name);
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      const std::unique_ptr<Engine> plain = makeEngine(name, 3);
      Rng plainRng(seed);
      const DynamicRun p = plain->runDynamic(c, plainRng);

      const std::unique_ptr<Engine> instrumented = makeEngine(name, 3);
      instrumented->metrics().enable();
      Rng instrumentedRng(seed);
      const DynamicRun i = instrumented->runDynamic(c, instrumentedRng);

      EXPECT_EQ(p.creg, i.creg) << "seed " << seed;
      EXPECT_EQ(p.outcomes, i.outcomes) << "seed " << seed;
      EXPECT_EQ(p.measures, i.measures);
      EXPECT_EQ(p.resets, i.resets);
      EXPECT_EQ(plainRng.uniform(), instrumentedRng.uniform());
    }
  }
}

TEST(MetricsDeterminism, TrajectoriesAreBitIdenticalWithTelemetryOn) {
  noise::NoiseModel model;
  model.addAfterGate1(noise::PauliChannel::depolarizing1(0.02));
  model.addAfterGate2(noise::PauliChannel::depolarizing2(0.05));

  for (const bool forceGeneric : {false, true}) {
    SCOPED_TRACE(forceGeneric ? "generic path" : "fast path allowed");
    noise::TrajectoryOptions plainOpts;
    plainOpts.trajectories = 200;
    plainOpts.threads = 2;
    plainOpts.seed = kSeed;
    plainOpts.forceGeneric = forceGeneric;
    const noise::TrajectoryResult plain =
        noise::runTrajectories("chp", cliffordCircuit(), model, plainOpts);

    metrics::Registry sink;
    sink.enable();
    noise::TrajectoryOptions instrumentedOpts = plainOpts;
    instrumentedOpts.metrics = &sink;
    const noise::TrajectoryResult instrumented = noise::runTrajectories(
        "chp", cliffordCircuit(), model, instrumentedOpts);

    EXPECT_EQ(plain.counts, instrumented.counts);
    EXPECT_EQ(plain.trajectories, instrumented.trajectories);
    EXPECT_EQ(plain.usedPauliFrameFastPath,
              instrumented.usedPauliFrameFastPath);
    // The sink saw every trajectory, and one span per worker.
    const metrics::Snapshot snap = sink.snapshot();
    EXPECT_EQ(snap.counters.at("trajectories.executed"), 200u);
    EXPECT_EQ(snap.timers.at("trajectory.worker").count, 2u);
    EXPECT_EQ(snap.gauges.at("trajectory.threads"), 2.0);
  }
}

}  // namespace
}  // namespace sliq
