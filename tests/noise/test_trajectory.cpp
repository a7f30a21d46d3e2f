// Trajectory runner: Pauli-frame conjugation correctness, noisy marginals
// against closed forms on every engine (both execution paths), and the
// thread-determinism contract.
#include "noise/trajectory.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/engine_registry.hpp"
#include "statevector/statevector.hpp"

namespace sliq::noise {
namespace {

// ---- PauliFrame conjugation ------------------------------------------------

Gate pauliGate(Pauli p, unsigned q) {
  switch (p) {
    case Pauli::kX: return Gate{GateKind::kX, {q}, {}};
    case Pauli::kY: return Gate{GateKind::kY, {q}, {}};
    case Pauli::kZ: return Gate{GateKind::kZ, {q}, {}};
    case Pauli::kI: break;
  }
  return Gate{GateKind::kX, {q}, {}};  // unreachable
}

/// Checks U·P|ψ⟩ and P'·U|ψ⟩ (P' the propagated frame) give identical
/// output distributions on an entangled 2-qubit state — the exact property
/// the fast path uses frames for (phases are allowed to differ).
void expectConjugationCorrect(const Gate& gate) {
  for (unsigned q = 0; q < 2; ++q) {
    for (const Pauli p : {Pauli::kX, Pauli::kY, Pauli::kZ}) {
      SCOPED_TRACE(std::string("pauli ") + pauliChar(p) + " on q" +
                   std::to_string(q) + " through " + gateName(gate));
      const QuantumCircuit prep =
          QuantumCircuit(2).h(0).t(0).cx(0, 1).s(1).h(1);

      StatevectorSimulator before(2);  // U · P |ψ⟩
      before.run(prep);
      before.applyGate(pauliGate(p, q));
      before.applyGate(gate);

      PauliFrame frame(2);
      frame.multiply(q, p);
      frame.propagateThrough(gate);

      StatevectorSimulator after(2);  // P' · U |ψ⟩
      after.run(prep);
      after.applyGate(gate);
      for (unsigned fq = 0; fq < 2; ++fq) {
        if (frame.z(fq)) after.applyGate(pauliGate(Pauli::kZ, fq));
        if (frame.x(fq)) after.applyGate(pauliGate(Pauli::kX, fq));
      }

      for (std::uint64_t i = 0; i < 4; ++i) {
        EXPECT_NEAR(std::norm(before.amplitude(i)),
                    std::norm(after.amplitude(i)), 1e-12)
            << "basis state " << i;
      }
    }
  }
}

TEST(PauliFrame, ConjugationMatchesDenseSimulation) {
  expectConjugationCorrect(Gate{GateKind::kH, {0}, {}});
  expectConjugationCorrect(Gate{GateKind::kH, {1}, {}});
  expectConjugationCorrect(Gate{GateKind::kS, {0}, {}});
  expectConjugationCorrect(Gate{GateKind::kSdg, {1}, {}});
  expectConjugationCorrect(Gate{GateKind::kX, {0}, {}});
  expectConjugationCorrect(Gate{GateKind::kY, {1}, {}});
  expectConjugationCorrect(Gate{GateKind::kZ, {0}, {}});
  expectConjugationCorrect(Gate{GateKind::kRx90, {0}, {}});
  expectConjugationCorrect(Gate{GateKind::kRy90, {1}, {}});
  expectConjugationCorrect(Gate{GateKind::kCnot, {1}, {0}});
  expectConjugationCorrect(Gate{GateKind::kCnot, {0}, {1}});
  expectConjugationCorrect(Gate{GateKind::kCz, {1}, {0}});
  expectConjugationCorrect(Gate{GateKind::kSwap, {0, 1}, {}});
}

TEST(PauliFrame, PauliMultiplicationComposesByXor) {
  PauliFrame frame(1);
  EXPECT_TRUE(frame.isIdentity());
  frame.multiply(0, Pauli::kX);
  frame.multiply(0, Pauli::kZ);
  EXPECT_TRUE(frame.x(0));
  EXPECT_TRUE(frame.z(0));  // X·Z ≃ Y up to phase
  frame.multiply(0, Pauli::kY);
  EXPECT_TRUE(frame.isIdentity());
}

TEST(PauliFrame, NonCliffordGateThrows) {
  PauliFrame frame(2);
  EXPECT_THROW(frame.propagateThrough(Gate{GateKind::kT, {0}, {}}),
               NoiseError);
  EXPECT_THROW(frame.propagateThrough(Gate{GateKind::kCnot, {2}, {0, 1}}),
               NoiseError);
}

// ---- noisy marginals vs closed form ---------------------------------------

/// Pr[qubit = 1] from a counts histogram (bitstring keys, qubit n-1
/// leftmost).
double marginal(const TrajectoryResult& result, unsigned numQubits,
                unsigned qubit) {
  std::uint64_t ones = 0, total = 0;
  for (const auto& [bits, count] : result.counts) {
    EXPECT_EQ(bits.size(), numQubits);
    total += count;
    if (bits[numQubits - 1 - qubit] == '1') ones += count;
  }
  EXPECT_EQ(total, result.trajectories);
  return total > 0 ? static_cast<double>(ones) / total : 0.0;
}

/// 4σ binomial tolerance — comfortably beyond the chi-squared 99.9th
/// percentile for one marginal, and the fixed seed makes runs exact.
double tol4Sigma(double p, unsigned n) {
  return 4.0 * std::sqrt(std::max(p * (1 - p), 0.01) / n) + 1e-12;
}

struct PathSpec {
  const char* engine;
  bool forceGeneric;
  unsigned trajectories;
};

/// Engines × paths matrix for the closed-form marginal tests. The generic
/// exact path rebuilds a BDD engine per trajectory, so it gets a smaller
/// (still 4σ-valid) sample.
const PathSpec kPaths[] = {
    {"chp", false, 4000},  {"chp", true, 2000},
    {"exact", false, 4000}, {"exact", true, 150},
    {"qmdd", false, 4000}, {"qmdd", true, 1000},
    {"statevector", false, 4000}, {"statevector", true, 1000},
};

void expectMarginals(const QuantumCircuit& c, const NoiseModel& model,
                     const std::vector<double>& expected) {
  for (const PathSpec& spec : kPaths) {
    SCOPED_TRACE(std::string(spec.engine) +
                 (spec.forceGeneric ? " (generic)" : " (fast path)"));
    TrajectoryOptions options;
    options.trajectories = spec.trajectories;
    options.threads = 2;
    options.seed = 20240515;
    options.forceGeneric = spec.forceGeneric;
    const TrajectoryResult result =
        runTrajectories(spec.engine, c, model, options);
    EXPECT_EQ(result.usedPauliFrameFastPath, !spec.forceGeneric);
    for (unsigned q = 0; q < c.numQubits(); ++q) {
      EXPECT_NEAR(marginal(result, c.numQubits(), q), expected[q],
                  tol4Sigma(expected[q], spec.trajectories))
          << "qubit " << q;
    }
  }
}

TEST(TrajectoryMarginals, BitFlipClosedForm) {
  // |0⟩ → X → bitflip(p): Pr[1] = 1 − p.
  const double p = 0.2;
  NoiseModel model;
  model.addAfterGate1(PauliChannel::bitFlip(p));
  expectMarginals(QuantumCircuit(1).x(0), model, {1 - p});
}

TEST(TrajectoryMarginals, PhaseFlipClosedForm) {
  // H, phaseflip(p) on |+⟩, H: a Z between the Hadamards maps to X, so
  // Pr[1] = p (the flip after the second H is Z-basis invisible).
  const double p = 0.3;
  NoiseModel model;
  model.addAfterGate1(PauliChannel::phaseFlip(p));
  expectMarginals(QuantumCircuit(1).h(0).h(0), model, {p});
}

TEST(TrajectoryMarginals, DepolarizingClosedForm) {
  // |1⟩ under depolarizing(p): X and Y flip, Z and I do not:
  // Pr[1] = 1 − 2p/3.
  const double p = 0.3;
  NoiseModel model;
  model.addAfterGate1(PauliChannel::depolarizing1(p));
  expectMarginals(QuantumCircuit(1).x(0), model, {1 - 2 * p / 3});
}

TEST(TrajectoryMarginals, TwoQubitDepolarizingClosedForm) {
  // CX on |00⟩ is the identity; two-qubit depolarizing(p) flips qubit q iff
  // its Pauli is X or Y: 8 of the 15 equally-likely non-identity pairs, so
  // Pr[q = 1] = 8p/15 per qubit.
  const double p = 0.45;
  NoiseModel model;
  model.addAfterGate2(PauliChannel::depolarizing2(p));
  expectMarginals(QuantumCircuit(2).cx(0, 1), model,
                  {8 * p / 15, 8 * p / 15});
}

TEST(TrajectoryMarginals, IdleNoiseHitsOnlyIdleQubits) {
  // X on qubit 0; qubit 1 idles through that one gate under bitflip(p).
  const double p = 0.25;
  NoiseModel model;
  model.addIdle(PauliChannel::bitFlip(p));
  expectMarginals(QuantumCircuit(2).x(0), model, {1.0, p});
}

TEST(TrajectoryMarginals, ReadoutErrorClosedForm) {
  // Noiseless |1⟩ with readout flip p: Pr[read 1] = 1 − p.
  const double p = 0.15;
  NoiseModel model;
  model.setReadoutFlip(p);
  expectMarginals(QuantumCircuit(1).x(0), model, {1 - p});
}

TEST(TrajectoryMarginals, AmplitudeDampingTwirlClosedForm) {
  // |1⟩ under the damping twirl flips with p_X + p_Y = γ/2, so
  // Pr[1] = 1 − γ/2. (The exact non-twirled channel would give 1 − γ:
  // the twirl's directional decay becomes symmetric — the documented
  // approximation error, DESIGN.md §6.)
  const double gamma = 0.4;
  NoiseModel model;
  model.addAfterGate1(PauliChannel::amplitudeDampingTwirl(gamma));
  expectMarginals(QuantumCircuit(1).x(0), model, {1 - gamma / 2});
}

TEST(TrajectoryMarginals, QubitFilterRestrictsRule) {
  // bitflip(p) only on qubit 1: qubit 0's X stays clean.
  const double p = 0.5;
  NoiseModel model;
  model.addAfterGate1(PauliChannel::bitFlip(p), {1});
  expectMarginals(QuantumCircuit(2).x(0).x(1), model, {1.0, 1 - p});
}

// ---- thread determinism ----------------------------------------------------

QuantumCircuit cliffordEntangled() {
  QuantumCircuit c(5, "clifford-entangled");
  c.h(0).cx(0, 1).s(1).cx(1, 2).h(3).cx(3, 4).cz(0, 4).x(2);
  return c;
}

NoiseModel basicModel() {
  NoiseModel model;
  model.addAfterGate1(PauliChannel::depolarizing1(0.05));
  model.addAfterGate2(PauliChannel::depolarizing2(0.08));
  model.addIdle(PauliChannel::amplitudeDampingTwirl(0.01));
  model.setReadoutFlip(0.02);
  return model;
}

TEST(TrajectoryDeterminism, CountsAreThreadCountInvariantFastPath) {
  const QuantumCircuit c = cliffordEntangled();
  const NoiseModel model = basicModel();
  TrajectoryOptions options;
  options.trajectories = 1500;
  options.seed = 99;
  options.threads = 1;
  const TrajectoryResult one = runTrajectories("chp", c, model, options);
  ASSERT_TRUE(one.usedPauliFrameFastPath);
  for (const unsigned threads : {4u, 0u}) {  // 0 = auto-detect
    options.threads = threads;
    const TrajectoryResult many = runTrajectories("chp", c, model, options);
    EXPECT_EQ(one.counts, many.counts) << threads << " threads";
  }
}

TEST(TrajectoryDeterminism, CountsAreThreadCountInvariantGenericPath) {
  // Non-Clifford circuit: the generic path is the only choice.
  const QuantumCircuit c = QuantumCircuit(3).h(0).t(0).cx(0, 1).h(2).t(2);
  const NoiseModel model = basicModel();
  TrajectoryOptions options;
  options.trajectories = 300;
  options.seed = 4242;
  options.threads = 1;
  const TrajectoryResult one = runTrajectories("qmdd", c, model, options);
  ASSERT_FALSE(one.usedPauliFrameFastPath);
  options.threads = 4;
  const TrajectoryResult four = runTrajectories("qmdd", c, model, options);
  EXPECT_EQ(one.counts, four.counts);
}

TEST(TrajectoryDeterminism, FixedSeedCountsPinTheDeviateOrder) {
  // Hard-coded counts of the generic path on a small non-Clifford circuit
  // under gate1, gate2, idle and readout rules: any change to the order in
  // which a trajectory draws its deviates (plan sites in op order, then the
  // shot, then the readout flips) changes these histograms. chp cannot run
  // the circuit; each other engine maps deviates to shots its own way, so
  // each carries its own pinned histogram.
  const QuantumCircuit c =
      QuantumCircuit(3).h(0).t(0).cx(0, 1).h(2).tdg(2).ccx(0, 2, 1).h(1);
  NoiseModel model;
  model.addAfterGate1(PauliChannel::depolarizing1(0.05));
  model.addAfterGate2(PauliChannel::depolarizing2(0.08));
  model.addIdle(PauliChannel::amplitudeDampingTwirl(0.02));
  model.setReadoutFlip(0.03);
  using Counts = std::map<std::string, std::uint64_t>;
  const std::pair<const char*, Counts> pinned[] = {
      {"exact",
       {{"000", 10}, {"001", 6}, {"010", 7}, {"011", 8},
        {"100", 9}, {"101", 8}, {"110", 10}, {"111", 6}}},
      {"qmdd",
       {{"000", 8}, {"001", 9}, {"010", 9}, {"011", 10},
        {"100", 6}, {"101", 8}, {"110", 8}, {"111", 6}}},
      {"statevector",
       {{"000", 8}, {"001", 6}, {"010", 8}, {"011", 6},
        {"100", 7}, {"101", 8}, {"110", 10}, {"111", 11}}},
  };
  for (const auto& [engine, expected] : pinned) {
    SCOPED_TRACE(engine);
    TrajectoryOptions options;
    options.trajectories = 64;
    options.seed = 2026;
    options.threads = 3;
    const TrajectoryResult result = runTrajectories(engine, c, model, options);
    ASSERT_FALSE(result.usedPauliFrameFastPath);
    EXPECT_EQ(result.counts, expected);
  }
}

TEST(TrajectoryDeterminism, ShardedRunsMergeToMonolithicBitForBit) {
  // The --traj-offset / --merge-counts contract: trajectory i of a shard
  // with firstTrajectory=F consumes substream split(F + i), so shards
  // covering disjoint offset ranges draw exactly the monolithic run's
  // deviate slices and their histograms sum to its counts — on both
  // execution paths, for any thread count.
  struct PathCase {
    const char* engine;
    QuantumCircuit circuit;
    bool expectFastPath;
  };
  const PathCase cases[] = {
      {"chp", cliffordEntangled(), true},
      {"statevector", QuantumCircuit(3).h(0).t(0).cx(0, 1).h(2).t(2), false},
  };
  const NoiseModel model = basicModel();
  for (const PathCase& pc : cases) {
    SCOPED_TRACE(pc.engine);
    TrajectoryOptions options;
    options.trajectories = 200;
    options.seed = 777;
    options.threads = 2;
    const TrajectoryResult mono =
        runTrajectories(pc.engine, pc.circuit, model, options);
    ASSERT_EQ(mono.usedPauliFrameFastPath, pc.expectFastPath);

    std::map<std::string, std::uint64_t> merged;
    for (const auto& [first, count] :
         {std::pair<unsigned, unsigned>{0, 120},
          std::pair<unsigned, unsigned>{120, 50},
          std::pair<unsigned, unsigned>{170, 30}}) {
      options.firstTrajectory = first;
      options.trajectories = count;
      options.threads = first == 120 ? 1 : 3;  // thread count must not matter
      const TrajectoryResult shard =
          runTrajectories(pc.engine, pc.circuit, model, options);
      for (const auto& [bits, n] : shard.counts) merged[bits] += n;
    }
    EXPECT_EQ(merged, mono.counts);
  }
}

TEST(TrajectoryDeterminism, FastAndGenericPathsAgreeInDistribution) {
  // Same model, same circuit: the two execution paths sample the same
  // distribution. Total-variation distance between two independent
  // empirical distributions of 3000 draws over ≤32 states concentrates
  // well under 0.1.
  const QuantumCircuit c = cliffordEntangled();
  const NoiseModel model = basicModel();
  TrajectoryOptions options;
  options.trajectories = 3000;
  options.seed = 7;
  options.threads = 2;
  const TrajectoryResult fast = runTrajectories("chp", c, model, options);
  options.forceGeneric = true;
  options.seed = 8;  // independent sample
  const TrajectoryResult generic = runTrajectories("chp", c, model, options);
  ASSERT_TRUE(fast.usedPauliFrameFastPath);
  ASSERT_FALSE(generic.usedPauliFrameFastPath);

  std::map<std::string, double> diff;
  for (const auto& [bits, count] : fast.counts)
    diff[bits] += static_cast<double>(count) / fast.trajectories;
  for (const auto& [bits, count] : generic.counts)
    diff[bits] -= static_cast<double>(count) / generic.trajectories;
  double tv = 0;
  for (const auto& [bits, d] : diff) tv += std::abs(d);
  EXPECT_LT(tv / 2, 0.1);
}

TEST(TrajectoryDeterminism, DeterministicNoisePathsAgreeExactly) {
  // bitflip(1) turns every X into identity deterministically; with fully
  // deterministic outcomes both paths must produce identical counts.
  NoiseModel model;
  model.addAfterGate1(PauliChannel::bitFlip(1.0));
  const QuantumCircuit c = QuantumCircuit(2).x(0).x(1);
  TrajectoryOptions options;
  options.trajectories = 64;
  options.seed = 3;
  const TrajectoryResult fast = runTrajectories("chp", c, model, options);
  options.forceGeneric = true;
  const TrajectoryResult generic = runTrajectories("chp", c, model, options);
  ASSERT_EQ(fast.counts.size(), 1u);
  EXPECT_EQ(fast.counts.at("00"), 64u);
  EXPECT_EQ(fast.counts, generic.counts);
}

// ---- facade, edge cases, errors -------------------------------------------

TEST(Trajectory, EngineFacadeOverloadMatchesNameOverload) {
  const QuantumCircuit c = cliffordEntangled();
  const NoiseModel model = basicModel();
  TrajectoryOptions options;
  options.trajectories = 200;
  options.seed = 11;
  const std::unique_ptr<Engine> engine = makeEngine("chp", c.numQubits());
  const TrajectoryResult viaFacade =
      runTrajectories(*engine, c, model, options);
  const TrajectoryResult viaName = runTrajectories("chp", c, model, options);
  EXPECT_EQ(viaFacade.counts, viaName.counts);
}

TEST(Trajectory, ZeroTrajectoriesIsEmpty) {
  TrajectoryOptions options;
  options.trajectories = 0;
  const TrajectoryResult result = runTrajectories(
      "chp", QuantumCircuit(2).h(0), NoiseModel(), options);
  EXPECT_TRUE(result.counts.empty());
  EXPECT_EQ(result.threadsUsed, 0u);
}

TEST(Trajectory, MoreThreadsThanTrajectoriesIsClamped) {
  TrajectoryOptions options;
  options.trajectories = 3;
  options.threads = 16;
  const TrajectoryResult result = runTrajectories(
      "chp", QuantumCircuit(1).h(0), NoiseModel(), options);
  EXPECT_EQ(result.threadsUsed, 3u);
  std::uint64_t total = 0;
  for (const auto& [bits, count] : result.counts) total += count;
  EXPECT_EQ(total, 3u);
}

TEST(Trajectory, UnsupportedEngineCircuitThrows) {
  const QuantumCircuit nonClifford = QuantumCircuit(2).h(0).t(0);
  EXPECT_THROW(runTrajectories("chp", nonClifford, NoiseModel(), {}),
               NoiseError);
}

TEST(Trajectory, OutOfRangeQubitFilterThrows) {
  NoiseModel model;
  model.addAfterGate1(PauliChannel::bitFlip(0.1), {5});
  EXPECT_THROW(runTrajectories("qmdd", QuantumCircuit(2).x(0), model, {}),
               NoiseError);
}

TEST(Trajectory, UnknownEngineThrows) {
  EXPECT_THROW(
      runTrajectories("warpdrive", QuantumCircuit(1).x(0), NoiseModel(), {}),
      UnknownEngineError);
}

}  // namespace
}  // namespace sliq::noise
