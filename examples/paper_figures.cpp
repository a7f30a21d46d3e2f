// Regenerates the paper's two figures from live data structures, as
// Graphviz files:
//
//   Fig. 1 — "Bit-slicing algebraic numbers with BDDs": one DOT file per
//            nonzero slice BDD F_{a_j}..F_{d_j} of a small example state.
//   Fig. 2 — "Monolithic BDD F for measurement": the hyper-function BDD of
//            Eq. 12 with qubit variables above the encoding variables.
//
//   $ ./paper_figures [outdir]     (default: .)
//   $ dot -Tpng fig2_monolithic.dot -o fig2.png
#include <fstream>
#include <iostream>
#include <string>

#include "bdd/dot.hpp"
#include "circuit/circuit.hpp"
#include "core/measurement_context.hpp"
#include "core/simulator.hpp"

int main(int argc, char** argv) {
  using namespace sliq;
  const std::string outdir = argc > 1 ? argv[1] : ".";

  // The running example: a 3-qubit state with genuinely mixed coefficients.
  QuantumCircuit circuit(3, "figure_state");
  circuit.h(0).t(0).cx(0, 1).h(2).s(2).cz(1, 2);
  SliqSimulator sim(3);
  sim.run(circuit);

  std::vector<std::string> varNames;
  for (unsigned q = 0; q < 3; ++q) varNames.push_back("q" + std::to_string(q));
  // Encoding variables appear after the first measurement-structure build.
  varNames.push_back("x0");
  varNames.push_back("x1");
  for (unsigned j = 0; j < 8; ++j) varNames.push_back("e" + std::to_string(j));

  // --- Fig. 1: the 4r slice BDDs --------------------------------------
  const char* vec = "abcd";
  unsigned written = 0;
  for (unsigned v = 0; v < 4; ++v) {
    for (unsigned bit = 0; bit < sim.bitWidth(); ++bit) {
      const bdd::Bdd& f = sim.slice(v, bit);
      if (f.isZero()) continue;
      const std::string path = outdir + "/fig1_slice_" + vec[v] +
                               std::to_string(bit) + ".dot";
      std::ofstream os(path);
      bdd::writeDot(sim.bddManager(), f.edge(), os, varNames);
      std::cout << "wrote " << path << " (" << f.nodeCount() << " nodes)\n";
      ++written;
    }
  }
  std::cout << "Fig. 1: " << written << " nonzero slices of r = "
            << sim.bitWidth() << ", k = " << sim.kScalar() << "\n";

  // --- Fig. 2: the monolithic measurement BDD --------------------------
  const bdd::Bdd mono = sim.measurementContext().hyperFunction();
  const std::string path = outdir + "/fig2_monolithic.dot";
  std::ofstream os(path);
  bdd::writeDot(sim.bddManager(), mono.edge(), os, varNames);
  std::cout << "wrote " << path << " (" << mono.nodeCount()
            << " nodes; qubit variables above x0,x1 and the bit-index "
               "encoding variables, as in the paper's Fig. 2)\n";
  return 0;
}
