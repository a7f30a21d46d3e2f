// Integer bit-width growth: the paper grows r when overflow is detected; we
// pre-extend by a sign slice and trim. These tests force coefficient growth
// and check exactness is preserved.
#include <gtest/gtest.h>

#include <cmath>

#include "circuit/generators.hpp"
#include "core/simulator.hpp"
#include "statevector/statevector.hpp"

namespace sliq {
namespace {

TEST(BitWidth, RepeatedHGrowsCoefficients) {
  // (H on q0)^{2m} = I but k grows by 2m; between pairs, interleave with a
  // T to prevent trivial cancellation... simplest growth driver: HZH chains
  // produce alternating ±. Here: apply H T H T ... and watch r grow beyond
  // its initial 2 while amplitudes stay exact vs dense.
  SliqSimulator sliq(2);
  StatevectorSimulator dense(2);
  for (int i = 0; i < 12; ++i) {
    for (const Gate& g : {Gate{GateKind::kH, {0}, {}},
                          Gate{GateKind::kT, {0}, {}},
                          Gate{GateKind::kH, {1}, {}},
                          Gate{GateKind::kCnot, {1}, {0}}}) {
      sliq.applyGate(g);
      dense.applyGate(g);
    }
  }
  EXPECT_GT(sliq.stats().maxBitWidth, 2u);
  const auto got = sliq.statevector();
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(std::abs(got[i] - dense.state()[i]), 0.0, 1e-9) << i;
  }
}

TEST(BitWidth, TrimKeepsWidthMinimal) {
  // A plain GHZ needs tiny coefficients; after the whole circuit r must
  // have been trimmed back to 2 (values in {0, 1}).
  SliqSimulator sim(6);
  sim.run(entanglementCircuit(6));
  EXPECT_EQ(sim.bitWidth(), 2u);
  EXPECT_NEAR(sim.totalProbability(), 1.0, 1e-12);
}

TEST(BitWidth, NoTrimConfigKeepsGrowing) {
  SliqSimulator::Config cfg;
  cfg.trimBitWidth = false;
  SliqSimulator sim(2, 0, cfg);
  for (int i = 0; i < 5; ++i) sim.applyGate(Gate{GateKind::kH, {0}, {}});
  // Width grows by one per arithmetic gate without trimming.
  EXPECT_EQ(sim.bitWidth(), 2u + 5u);
  // Still exact.
  EXPECT_NEAR(sim.totalProbability(), 1.0, 1e-12);
}

TEST(BitWidth, PaperStyleInitialWidth32) {
  SliqSimulator::Config cfg;
  cfg.initialBitWidth = 32;
  cfg.trimBitWidth = false;
  SliqSimulator sim(3, 0, cfg);
  EXPECT_EQ(sim.bitWidth(), 32u);
  sim.run(entanglementCircuit(3));
  StatevectorSimulator dense(3);
  dense.run(entanglementCircuit(3));
  const auto got = sim.statevector();
  for (std::size_t i = 0; i < got.size(); ++i)
    EXPECT_NEAR(std::abs(got[i] - dense.state()[i]), 0.0, 1e-12);
}

TEST(BitWidth, LargeCoefficientsStayExact) {
  // Drive coefficients past 64 bits: ~80 arithmetic gates on 2 qubits give
  // coefficient magnitudes up to 2^80-ish. BigInt decoding must stay exact:
  // total probability is exactly 1.
  SliqSimulator sim(2);
  for (int i = 0; i < 80; ++i) {
    sim.applyGate(Gate{GateKind::kH, {i % 2 == 0 ? 0u : 1u}, {}});
    sim.applyGate(Gate{GateKind::kT, {0}, {}});
    sim.applyGate(Gate{GateKind::kCnot, {1}, {0}});
  }
  const Zroot2 w = sim.totalWeightScaled();
  EXPECT_EQ(w.irrational(), BigInt(0));
  EXPECT_EQ(w.rational(), BigInt(1) << static_cast<unsigned>(sim.kScalar()));
  EXPECT_GT(sim.kScalar(), 60);
}

TEST(BitWidth, StatsTrackPeaks) {
  SliqSimulator sim(3);
  sim.run(randomCircuit(3, 30, 2));
  EXPECT_GE(sim.stats().maxBitWidth, sim.bitWidth());
  EXPECT_GT(sim.bddManager().stats().peakLiveNodes, 0u);
  EXPECT_EQ(sim.stats().gatesApplied, 33u);
}

}  // namespace
}  // namespace sliq
