// Bernstein–Vazirani at a scale no dense simulator can touch: recover a
// 2000-bit secret in one query (paper Table V runs up to 29999 gates; the
// QMDD baseline segfaults/errors out at 90+ qubits, the bit-sliced engine
// is linear).
//
//   $ ./bernstein_vazirani [qubits]
#include <cstdlib>
#include <iostream>

#include "circuit/generators.hpp"
#include "core/simulator.hpp"
#include "support/rng.hpp"
#include "support/timer.hpp"

int main(int argc, char** argv) {
  using namespace sliq;
  const unsigned n = argc > 1 ? static_cast<unsigned>(std::atoi(argv[1])) : 2000;

  Rng rng(7);
  std::vector<bool> secret(n);
  for (unsigned q = 0; q < n; ++q) secret[q] = rng.flip();

  const QuantumCircuit circuit = bernsteinVazirani(n, secret);
  std::cout << "circuit: " << circuit.summary() << "\n";

  WallTimer timer;
  SliqSimulator sim(n + 1);
  sim.run(circuit);
  const double simSeconds = timer.seconds();

  timer.reset();
  const auto bits = sim.sampleAll(rng);
  const double sampleSeconds = timer.seconds();

  unsigned correct = 0;
  for (unsigned q = 0; q < n; ++q) correct += bits[q] == secret[q];
  std::cout << "recovered " << correct << "/" << n << " secret bits "
            << (correct == n ? "(exact!)" : "(MISMATCH — bug!)") << "\n";
  std::cout << "simulate: " << simSeconds << " s, sample: " << sampleSeconds
            << " s\n";
  std::cout << "peak BDD nodes: " << sim.bddManager().stats().peakLiveNodes
            << ", final bit width r = " << sim.bitWidth() << "\n";
  return correct == n ? 0 : 1;
}
