// Noise-trajectory execution of DYNAMIC circuits: per-trajectory replay of
// the classical control flow under the PR 3 substream contract (thread-count
// invariance, zero-noise equivalence with plain runDynamic), the Pauli-frame
// refusal, and the 3-qubit bit-flip-code correction cycle whose logical
// error rate has an exact closed form.
#include "noise/trajectory.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <memory>
#include <string>

#include "core/engine_registry.hpp"
#include "support/bits.hpp"

namespace sliq::noise {
namespace {

/// Teleportation with a Clifford payload (|+i⟩) — every engine runs it.
QuantumCircuit teleportCircuit() {
  QuantumCircuit c(3, "teleport");
  c.declareClassicalRegister(2);
  c.h(0).s(0);
  c.h(1).cx(1, 2);
  c.cx(0, 1).h(0);
  c.measure(0, 0).measure(1, 1);
  c.onlyIf(2, Gate{GateKind::kX, {2}, {}});
  c.onlyIf(3, Gate{GateKind::kX, {2}, {}});
  c.onlyIf(1, Gate{GateKind::kZ, {2}, {}});
  c.onlyIf(3, Gate{GateKind::kZ, {2}, {}});
  return c;
}

NoiseModel basicModel() {
  NoiseModel model;
  model.addAfterGate1(PauliChannel::depolarizing1(0.02));
  model.addAfterGate2(PauliChannel::depolarizing2(0.03));
  model.addIdle(PauliChannel::bitFlip(0.004));
  model.setReadoutFlip(0.01);
  return model;
}

TEST(TrajectoryDynamic, ThreadCountNeverChangesDynamicCounts) {
  const QuantumCircuit c = teleportCircuit();
  const NoiseModel model = basicModel();
  for (const std::string& name : engineNames()) {
    SCOPED_TRACE(name);
    TrajectoryOptions options;
    options.trajectories = 150;
    options.seed = 11;
    options.threads = 1;
    const TrajectoryResult one = runTrajectories(name, c, model, options);
    EXPECT_FALSE(one.usedPauliFrameFastPath);  // dynamic: never the frame path
    for (const unsigned threads : {2u, 3u, 5u}) {
      SCOPED_TRACE(threads);
      options.threads = threads;
      const TrajectoryResult many = runTrajectories(name, c, model, options);
      EXPECT_EQ(many.counts, one.counts);
    }
  }
}

TEST(TrajectoryDynamic, ZeroNoiseTrajectoriesReplayRunDynamicExactly) {
  // With an empty model the trajectory walker must be bit-identical to the
  // ideal run on substream split(t) — pinning that the walk lives in one
  // place (the facade's runDynamic) and the noise path only instruments
  // it. A dynamic circuit reports plain runDynamic's register; a static
  // non-Clifford one (the walker, not the frame path) reports one
  // sampleShot of the ideal state.
  const NoiseModel ideal;
  TrajectoryOptions options;
  options.trajectories = 40;
  options.seed = 23;
  options.threads = 3;
  const RngState root{options.seed};

  const QuantumCircuit dynamic = teleportCircuit();
  std::map<std::string, std::uint64_t> expected;
  for (unsigned t = 0; t < options.trajectories; ++t) {
    std::unique_ptr<Engine> engine = makeEngine("statevector", 3);
    Rng rng = root.split(t).rng();
    const DynamicRun run = engine->runDynamic(dynamic, rng);
    ++expected[bitsToString(run.creg)];
  }
  EXPECT_EQ(runTrajectories("statevector", dynamic, ideal, options).counts,
            expected);

  const QuantumCircuit stat = QuantumCircuit(3).h(0).t(0).cx(0, 1).h(2).h(1);
  expected.clear();
  for (unsigned t = 0; t < options.trajectories; ++t) {
    std::unique_ptr<Engine> engine = makeEngine("statevector", 3);
    engine->run(stat);
    Rng rng = root.split(t).rng();
    ++expected[bitsToString(engine->sampleShot(rng))];
  }
  const TrajectoryResult walked =
      runTrajectories("statevector", stat, ideal, options);
  EXPECT_FALSE(walked.usedPauliFrameFastPath);
  EXPECT_EQ(walked.counts, expected);
}

TEST(TrajectoryDynamic, PauliFramePathIsStrictlyRefusedForDynamicCircuits) {
  // Frames do not commute through classical control: a dynamic Clifford
  // circuit on chp runs the walker (its histogram is keyed by the 2-bit
  // classical register), while the static Clifford circuit takes the fast
  // path.
  const NoiseModel model = basicModel();
  TrajectoryOptions options;
  options.trajectories = 10;
  const TrajectoryResult walked =
      runTrajectories("chp", teleportCircuit(), model, options);
  EXPECT_FALSE(walked.usedPauliFrameFastPath);
  for (const auto& [bits, count] : walked.counts) EXPECT_EQ(bits.size(), 2u);

  const QuantumCircuit clifford = QuantumCircuit(2).h(0).cx(0, 1);
  const TrajectoryResult framed =
      runTrajectories("chp", clifford, model, options);
  EXPECT_TRUE(framed.usedPauliFrameFastPath);
}

TEST(TrajectoryDynamic, ExpectationRejectsDynamicCircuits) {
  const QuantumCircuit c = teleportCircuit();
  PauliObservable obs;
  obs.addTerm(1.0, {PauliFactor{2, Pauli::kY}});
  EXPECT_THROW(runTrajectoryExpectation("statevector", c, basicModel(), obs),
               NoiseError);
}

TEST(TrajectoryDynamic, MidCircuitReadoutErrorFlipsTheRecordItself) {
  // readout flip 1.0 turns a deterministic measured 1 into a recorded 0,
  // and classical control must act on the *record*: the c==0 branch fires.
  QuantumCircuit c(2);
  c.declareClassicalRegister(2);
  c.x(0);
  c.measure(0, 0);
  c.onlyIf(0, Gate{GateKind::kX, {1}, {}});
  c.measure(1, 1);
  NoiseModel model;
  model.setReadoutFlip(1.0);
  TrajectoryOptions options;
  options.trajectories = 8;
  const TrajectoryResult result =
      runTrajectories("statevector", c, model, options);
  // Record: c0 = !1 = 0 → X on q1 fires → measured 1, recorded 0. The
  // whole register reads 00 every trajectory.
  ASSERT_EQ(result.counts.size(), 1u);
  EXPECT_EQ(result.counts.begin()->first, "00");
  EXPECT_EQ(result.counts.begin()->second, 8u);
}

TEST(TrajectoryDynamic, BitFlipCodeLogicalErrorRateMatchesTheClosedForm) {
  // 3-qubit repetition code protecting logical |1⟩ = |111⟩ against
  // bit-flips injected after each preparation X (gate1 bitflip p), with a
  // mid-circuit syndrome readout (two ancillas) steering conditioned X
  // corrections, then a destructive data measurement decoded by majority
  // vote. Closed form: the cycle fails iff >= 2 preparation flips occurred
  // (the correction then either targets the wrong qubit or nothing), so
  //   P_L = 3p²(1−p) + p³
  // EXACTLY — including the bitflip noise that trails each *correction* X,
  // because a single post-correction flip can never overturn a majority.
  constexpr double p = 0.15;
  QuantumCircuit c(5, "bitflip-code");
  c.declareClassicalRegister(5);
  c.x(0).x(1).x(2);                    // encode |1⟩_L (noisy preps)
  c.cx(0, 3).cx(1, 3);                 // syndrome s0 = f0 ⊕ f1
  c.cx(1, 4).cx(2, 4);                 // syndrome s1 = f1 ⊕ f2
  c.measure(3, 0).measure(4, 1);
  c.onlyIf(1, Gate{GateKind::kX, {0}, {}});  // s = (1,0) → flip on q0
  c.onlyIf(3, Gate{GateKind::kX, {1}, {}});  // s = (1,1) → flip on q1
  c.onlyIf(2, Gate{GateKind::kX, {2}, {}});  // s = (0,1) → flip on q2
  c.measure(0, 2).measure(1, 3).measure(2, 4);

  NoiseModel model;
  model.addAfterGate1(PauliChannel::bitFlip(p));

  TrajectoryOptions options;
  options.trajectories = 3000;
  options.threads = 4;
  options.seed = 2026;
  const TrajectoryResult result =
      runTrajectories("statevector", c, model, options);

  std::uint64_t logicalErrors = 0;
  std::uint64_t total = 0;
  for (const auto& [bits, count] : result.counts) {
    // bitsToString renders bit numClbits-1 leftmost: creg bit c is at
    // string index (4 - c). Majority-decode the data record (c2, c3, c4).
    ASSERT_EQ(bits.size(), 5u);
    const int ones = (bits[4 - 2] == '1') + (bits[4 - 3] == '1') +
                     (bits[4 - 4] == '1');
    if (ones <= 1) logicalErrors += count;
    total += count;
  }
  ASSERT_EQ(total, options.trajectories);

  const double expected = 3 * p * p * (1 - p) + p * p * p;
  const double observed =
      static_cast<double>(logicalErrors) / options.trajectories;
  // One-degree chi-squared against the closed form: (obs−exp)²/var < 16
  // (a 4σ gate; the fixed seed makes the draw deterministic anyway).
  const double variance =
      expected * (1 - expected) / options.trajectories;
  const double chi2 =
      (observed - expected) * (observed - expected) / variance;
  EXPECT_LT(chi2, 16.0) << "observed " << observed << " expected " << expected;
}

}  // namespace
}  // namespace sliq::noise
