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

  struct Case {
    const char* engine;
    bool forceGeneric;
    unsigned trajectories;
  };
  // chp runs the Clifford circuit on either path; exact walks the
  // non-Clifford one on a fresh engine per trajectory (a small sample —
  // every trajectory builds its own BDD manager).
  const Case cases[] = {{"chp", false, 200}, {"chp", true, 200},
                        {"exact", false, 20}};
  for (const Case& tc : cases) {
    SCOPED_TRACE(std::string(tc.engine) +
                 (tc.forceGeneric ? " generic path" : " fast path allowed"));
    const QuantumCircuit circuit = circuitFor(tc.engine);
    noise::TrajectoryOptions plainOpts;
    plainOpts.trajectories = tc.trajectories;
    plainOpts.threads = 2;
    plainOpts.seed = kSeed;
    plainOpts.forceGeneric = tc.forceGeneric;
    const noise::TrajectoryResult plain =
        noise::runTrajectories(tc.engine, circuit, model, plainOpts);

    std::vector<metrics::Snapshot> snaps;
    for (const unsigned threads : {2u, 1u}) {
      SCOPED_TRACE(threads);
      metrics::Registry sink;
      sink.enable();
      noise::TrajectoryOptions instrumentedOpts = plainOpts;
      instrumentedOpts.threads = threads;
      instrumentedOpts.metrics = &sink;
      const noise::TrajectoryResult instrumented = noise::runTrajectories(
          tc.engine, circuit, model, instrumentedOpts);

      EXPECT_EQ(plain.counts, instrumented.counts);
      EXPECT_EQ(plain.trajectories, instrumented.trajectories);
      EXPECT_EQ(plain.usedPauliFrameFastPath,
                instrumented.usedPauliFrameFastPath);
      // The sink saw every trajectory, and one span per worker.
      snaps.push_back(sink.snapshot());
      const metrics::Snapshot& snap = snaps.back();
      EXPECT_EQ(snap.counters.at("trajectories.executed"), tc.trajectories);
      EXPECT_EQ(snap.timers.at("trajectory.worker").count, threads);
      EXPECT_EQ(snap.gauges.at("trajectory.threads"), threads);
    }
    // Every walked trajectory's engine reports its work into the sink, and
    // the summed totals do not depend on which worker ran which trajectory.
    if (plain.usedPauliFrameFastPath) continue;
    std::vector<std::string> keys = {"gates.applied"};
    if (std::string(tc.engine) == "exact") keys.push_back("cache.lookups");
    for (const std::string& key : keys) {
      SCOPED_TRACE(key);
      EXPECT_GT(snaps[0].counters.at(key), 0u);
      EXPECT_EQ(snaps[0].counters.at(key), snaps[1].counters.at(key));
    }
  }
}

}  // namespace
}  // namespace sliq
