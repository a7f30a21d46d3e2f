// Cross-validation: every gate kernel of the bit-sliced engine against the
// dense statevector simulator, on randomized states and randomized circuits.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>

#include "circuit/generators.hpp"
#include "core/simulator.hpp"
#include "statevector/statevector.hpp"
#include "support/rng.hpp"

namespace sliq {
namespace {

constexpr double kTol = 1e-9;

void expectStatesMatch(SliqSimulator& sliq, const StatevectorSimulator& dense,
                       const std::string& context) {
  const auto got = sliq.statevector();
  ASSERT_EQ(got.size(), dense.state().size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got[i].real(), dense.state()[i].real(), kTol)
        << context << " index " << i;
    EXPECT_NEAR(got[i].imag(), dense.state()[i].imag(), kTol)
        << context << " index " << i;
  }
}

/// Applies a pseudo-random supported-gate prefix to both engines.
void randomPrefix(SliqSimulator& sliq, StatevectorSimulator& dense,
                  unsigned n, unsigned len, std::uint64_t seed) {
  const QuantumCircuit prefix = randomCircuit(n, len, seed);
  sliq.run(prefix);
  dense.run(prefix);
}

struct GateCase {
  const char* name;
  Gate gate;
};

// Without this, gtest prints the case as raw object bytes, which include
// the load address of `name`; listed test names would then change with
// every run under address-space randomization.
void PrintTo(const GateCase& gc, std::ostream* os) { *os << gc.name; }

class SingleGate : public ::testing::TestWithParam<GateCase> {};

TEST_P(SingleGate, MatchesDenseOnRandomStates) {
  const GateCase& gc = GetParam();
  for (std::uint64_t seed : {11ull, 22ull, 33ull}) {
    SliqSimulator sliq(4);
    StatevectorSimulator dense(4);
    randomPrefix(sliq, dense, 4, 16, seed);
    sliq.applyGate(gc.gate);
    dense.applyGate(gc.gate);
    expectStatesMatch(sliq, dense, std::string(gc.name) + " seed " +
                                       std::to_string(seed));
    EXPECT_NEAR(sliq.totalProbability(), 1.0, kTol) << gc.name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllGates, SingleGate,
    ::testing::Values(
        GateCase{"X", Gate{GateKind::kX, {1}, {}}},
        GateCase{"Y", Gate{GateKind::kY, {2}, {}}},
        GateCase{"Z", Gate{GateKind::kZ, {0}, {}}},
        GateCase{"H", Gate{GateKind::kH, {3}, {}}},
        GateCase{"S", Gate{GateKind::kS, {1}, {}}},
        GateCase{"Sdg", Gate{GateKind::kSdg, {1}, {}}},
        GateCase{"T", Gate{GateKind::kT, {2}, {}}},
        GateCase{"Tdg", Gate{GateKind::kTdg, {2}, {}}},
        GateCase{"Rx90", Gate{GateKind::kRx90, {0}, {}}},
        GateCase{"Ry90", Gate{GateKind::kRy90, {3}, {}}},
        GateCase{"CNOT", Gate{GateKind::kCnot, {2}, {0}}},
        GateCase{"CZ", Gate{GateKind::kCz, {1}, {3}}},
        GateCase{"Toffoli", Gate{GateKind::kCnot, {3}, {0, 1}}},
        GateCase{"Toffoli3", Gate{GateKind::kCnot, {3}, {0, 1, 2}}},
        GateCase{"MCZ", Gate{GateKind::kCz, {3}, {0, 2}}},
        GateCase{"SWAP", Gate{GateKind::kSwap, {0, 2}, {}}},
        GateCase{"Fredkin", Gate{GateKind::kSwap, {1, 3}, {0}}},
        GateCase{"Fredkin2c", Gate{GateKind::kSwap, {2, 3}, {0, 1}}}),
    [](const ::testing::TestParamInfo<GateCase>& info) {
      return info.param.name;
    });

class RandomCircuitMatch : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomCircuitMatch, FullCircuitAgainstDense) {
  const std::uint64_t seed = GetParam();
  const unsigned n = 5;
  const QuantumCircuit circuit = randomCircuit(n, 40, seed);
  SliqSimulator sliq(n);
  StatevectorSimulator dense(n);
  sliq.run(circuit);
  dense.run(circuit);
  expectStatesMatch(sliq, dense, "seed " + std::to_string(seed));
  EXPECT_NEAR(sliq.totalProbability(), 1.0, kTol);
  // Probabilities agree per qubit.
  for (unsigned q = 0; q < n; ++q) {
    EXPECT_NEAR(sliq.probabilityOne(q), dense.probabilityOne(q), kTol)
        << "qubit " << q;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomCircuitMatch,
                         ::testing::Range<std::uint64_t>(1, 13));

TEST(RxRyCircuits, MatchDense) {
  // Rx/Ry are excluded from randomCircuit (per the paper's recipe), so
  // exercise them in dedicated mixed circuits here.
  Rng rng(9);
  for (int rep = 0; rep < 6; ++rep) {
    const unsigned n = 4;
    SliqSimulator sliq(n);
    StatevectorSimulator dense(n);
    for (int g = 0; g < 30; ++g) {
      const unsigned q = static_cast<unsigned>(rng.below(n));
      Gate gate;
      switch (rng.below(4)) {
        case 0: gate = Gate{GateKind::kRx90, {q}, {}}; break;
        case 1: gate = Gate{GateKind::kRy90, {q}, {}}; break;
        case 2: gate = Gate{GateKind::kT, {q}, {}}; break;
        default: gate = Gate{GateKind::kH, {q}, {}}; break;
      }
      sliq.applyGate(gate);
      dense.applyGate(gate);
    }
    expectStatesMatch(sliq, dense, "rep " + std::to_string(rep));
  }
}

TEST(AlgebraicExactness, ProbabilitiesSumExactlyToOne) {
  // The killer feature vs QMDD/DDSIM: after thousands of gates the total
  // probability is *exactly* 1 (one final rounding).
  const QuantumCircuit circuit = randomCircuit(6, 300, 424242);
  SliqSimulator sliq(6);
  sliq.run(circuit);
  const Zroot2 w = sliq.totalWeightScaled();
  // Exact invariant: Σ|α|²·2ᵏ == 2ᵏ.
  EXPECT_EQ(w.irrational(), BigInt(0));
  EXPECT_EQ(w.rational(),
            BigInt(1) << static_cast<unsigned>(sliq.kScalar()));
}

TEST(GateAlgebra, ExactIdentitiesOnBitSlicedEngine) {
  const QuantumCircuit prefix = randomCircuit(3, 15, 5);
  auto fresh = [&] {
    auto sim = std::make_unique<SliqSimulator>(3);
    sim->run(prefix);
    return sim;
  };
  auto statesEqual = [&](SliqSimulator& x, SliqSimulator& y) {
    for (std::uint64_t i = 0; i < 8; ++i) {
      if (!(x.amplitude(i) == y.amplitude(i))) return false;
    }
    return true;
  };
  {  // T⁸ = I (exactly, in the algebraic representation)
    auto a = fresh(), b = fresh();
    for (int i = 0; i < 8; ++i) a->applyGate(Gate{GateKind::kT, {0}, {}});
    EXPECT_TRUE(statesEqual(*a, *b));
  }
  {  // S·S† = I
    auto a = fresh(), b = fresh();
    a->applyGate(Gate{GateKind::kS, {1}, {}});
    a->applyGate(Gate{GateKind::kSdg, {1}, {}});
    EXPECT_TRUE(statesEqual(*a, *b));
  }
  {  // Z = S² (exact)
    auto a = fresh(), b = fresh();
    a->applyGate(Gate{GateKind::kS, {2}, {}});
    a->applyGate(Gate{GateKind::kS, {2}, {}});
    b->applyGate(Gate{GateKind::kZ, {2}, {}});
    EXPECT_TRUE(statesEqual(*a, *b));
  }
  {  // CZ is symmetric in its two qubits
    auto a = fresh(), b = fresh();
    a->applyGate(Gate{GateKind::kCz, {1}, {0}});
    b->applyGate(Gate{GateKind::kCz, {0}, {1}});
    EXPECT_TRUE(statesEqual(*a, *b));
  }
  {  // Fredkin = CNOT-conjugated Toffoli
    auto a = fresh(), b = fresh();
    a->applyGate(Gate{GateKind::kSwap, {1, 2}, {0}});
    b->applyGate(Gate{GateKind::kCnot, {1}, {2}});
    b->applyGate(Gate{GateKind::kCnot, {2}, {0, 1}});
    b->applyGate(Gate{GateKind::kCnot, {1}, {2}});
    EXPECT_TRUE(statesEqual(*a, *b));
  }
}

}  // namespace
}  // namespace sliq
