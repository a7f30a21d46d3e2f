// Ablation: integer bit-width policy.
//
// The paper initializes r = 32 and extends on overflow; our default starts
// at the minimal r = 2 and trims redundant sign slices after every
// arithmetic gate. This bench quantifies the difference: slices carried
// per gate translate directly into BDD operations and nodes.
#include <iostream>

#include "circuit/generators.hpp"
#include "core/simulator.hpp"
#include "harness.hpp"
#include "support/table.hpp"
#include "support/timer.hpp"

namespace sliq::bench {
namespace {

struct Policy {
  const char* name;
  unsigned initialWidth;
  bool trim;
};

void report(std::ostream& os) {
  AsciiTable table({"Policy", "#Qubits", "Time(s)", "final r", "max r",
                    "peak nodes"});
  for (const unsigned n : {scaled(20), scaled(30)}) {
    for (const Policy p : {Policy{"minimal+trim (ours)", 2, true},
                           Policy{"paper r=32, no trim", 32, false},
                           Policy{"minimal, no trim", 2, false}}) {
      const QuantumCircuit c = randomCircuit(n, 3 * n, 1);
      SliqSimulator::Config cfg;
      cfg.initialBitWidth = p.initialWidth;
      cfg.trimBitWidth = p.trim;
      WallTimer timer;
      SliqSimulator sim(n, 0, cfg);
      sim.run(c);
      (void)sim.probabilityOne(0);
      table.addRow({p.name, std::to_string(n), formatSeconds(timer.seconds()),
                    std::to_string(sim.bitWidth()),
                    std::to_string(sim.stats().maxBitWidth),
                    std::to_string(sim.bddManager().stats().peakLiveNodes)});
    }
  }
  os << "Ablation — bit-width policy on random circuits (3:1 gates)\n\n";
  table.print(os);
}

}  // namespace
}  // namespace sliq::bench

int main() {
  sliq::bench::report(std::cout);
  return 0;
}
