// Ablation: dynamic variable reordering (sifting), which the paper enables
// through CUDD. Reordering is applied every K gates during simulation of
// H-modified reversible netlists — the family where variable order matters
// most — and compared against the natural qubit order.
#include <iostream>

#include "circuit/generators.hpp"
#include "core/simulator.hpp"
#include "harness.hpp"
#include "support/table.hpp"
#include "support/timer.hpp"

namespace sliq::bench {
namespace {

struct RunResult {
  double seconds;
  std::size_t peakNodes;
  std::size_t finalNodes;
};

RunResult simulate(const QuantumCircuit& c, bool reorder) {
  WallTimer timer;
  SliqSimulator sim(c.numQubits());
  std::size_t sinceReorder = 0;
  for (const Gate& g : c.gates()) {
    sim.applyGate(g);
    if (reorder && ++sinceReorder >= 50) {
      sim.reorder();
      sinceReorder = 0;
    }
  }
  return RunResult{timer.seconds(), sim.bddManager().stats().peakLiveNodes,
                   sim.stateNodeCount()};
}

void report(std::ostream& os) {
  AsciiTable table({"Benchmark", "Order", "Time(s)", "peak nodes",
                    "state nodes"});
  struct Bench {
    std::string name;
    QuantumCircuit circuit;
  };
  std::vector<Bench> benches;
  benches.push_back(
      {"cascade20_mod",
       modifyWithHadamards(revlibToffoliCascade(scaled(20), scaled(30), 1))});
  benches.push_back(
      {"netlist16_mod",
       modifyWithHadamards(revlibRandomNetlist(scaled(16), scaled(60), 2))});
  benches.push_back({"random24", randomCircuit(scaled(24), scaled(72), 3)});
  for (const Bench& b : benches) {
    const RunResult natural = simulate(b.circuit, false);
    const RunResult sifted = simulate(b.circuit, true);
    table.addRow({b.name, "natural", formatSeconds(natural.seconds),
                  std::to_string(natural.peakNodes),
                  std::to_string(natural.finalNodes)});
    table.addRow({b.name, "sifting/50g", formatSeconds(sifted.seconds),
                  std::to_string(sifted.peakNodes),
                  std::to_string(sifted.finalNodes)});
  }
  os << "Ablation — dynamic variable reordering (sifting every 50 gates)\n\n";
  table.print(os);
}

}  // namespace
}  // namespace sliq::bench

int main() {
  sliq::bench::report(std::cout);
  return 0;
}
