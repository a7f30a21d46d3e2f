// --engine auto dispatch bench: planner throughput (plans/sec — the
// analyzer pass plus the portfolio scoring loop) on the three canonical
// workloads, with one built-in correctness gate: the planner must pick the
// expected engine on every fixture (the same selection the CI dispatch
// smoke asserts through the CLI). A wrong pick exits 1 — the plan is part
// of the product surface, not just a speed knob.
//
// Output: an ASCII table on stdout plus a JSON record written to
// $SLIQ_BENCH_JSON or BENCH_dispatch.json. The committed baseline pins
// the plans_per_s rates (a plan is pure CPU: one circuit walk plus four
// cost evaluations — fast enough that a regression means the analyzer
// grew an accidental extra pass). Timing keys ("*_s") are context only.
//
// Knobs: SLIQ_BENCH_SCALE percent scales repetition counts (ctest smoke
// runs at 25%); SLIQ_BENCH_JSON overrides the JSON output path.
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "circuit/circuit.hpp"
#include "core/dispatch.hpp"
#include "harness.hpp"
#include "support/table.hpp"
#include "support/timer.hpp"

namespace sliq::bench {
namespace {

constexpr unsigned kPlanRepetitions = 2000;

QuantumCircuit ghzCircuit(unsigned n) {
  QuantumCircuit c(n, "ghz" + std::to_string(n));
  c.h(0);
  for (unsigned q = 0; q + 1 < n; ++q) c.cx(q, q + 1);
  return c;
}

QuantumCircuit cliffordPlusT(unsigned n) {
  QuantumCircuit c(n, "clifford_t" + std::to_string(n));
  c.h(0);
  for (unsigned q = 0; q + 1 < n; ++q) c.cx(q, q + 1);
  for (unsigned q = 0; q < n; ++q) c.t(q);
  return c;
}

QuantumCircuit denseRandom(unsigned n, unsigned layers) {
  QuantumCircuit c(n, "dense" + std::to_string(n));
  for (unsigned l = 0; l < layers; ++l) {
    for (unsigned q = 0; q < n; ++q) c.h(q);
    for (unsigned q = 0; q < n; ++q) c.t(q);
    for (unsigned q = 0; q + 1 < n; ++q) c.cx(q, q + 1);
  }
  return c;
}

struct PlanCase {
  std::string circuit;
  std::string expected;
  std::string chosen;
  unsigned gates = 0;
  unsigned repetitions = 0;
  double planSeconds = 0;

  double plansPerSecond() const {
    return planSeconds > 0 ? repetitions / planSeconds : 0;
  }
};

void writeJson(const std::vector<PlanCase>& cases) {
  const char* env = std::getenv("SLIQ_BENCH_JSON");
  const std::string path = env != nullptr ? env : "BENCH_dispatch.json";
  std::ofstream os(path);
  os << "{\n  \"bench\": \"dispatch\",\n  \"cases\": [\n";
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const PlanCase& r = cases[i];
    os << "    {\"circuit\": \"" << r.circuit << "\", \"expected\": \""
       << r.expected << "\", \"chosen\": \"" << r.chosen
       << "\", \"gates\": " << r.gates
       << ", \"repetitions\": " << r.repetitions
       << ", \"plan_s\": " << r.planSeconds
       << ", \"plans_per_s\": " << r.plansPerSecond() << "}"
       << (i + 1 < cases.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
  std::cout << "wrote " << path << "\n";
}

std::string round1(double v) {
  std::ostringstream os;
  os.precision(v < 10 ? 1 : 0);
  os << std::fixed << v;
  return os.str();
}

void report() {
  struct Spec {
    QuantumCircuit circuit;
    const char* expected;
  };
  // The three canonical workloads of DESIGN.md §13 (same shapes as the CI
  // dispatch smoke): pure Clifford → chp, wide Clifford+T → exact (dense
  // over budget), narrow dense → statevector.
  const Spec specs[] = {
      {ghzCircuit(16), "chp"},
      {cliffordPlusT(28), "exact"},
      {denseRandom(10, 3), "statevector"},
  };

  std::vector<PlanCase> cases;
  bool allChosen = true;
  for (const Spec& spec : specs) {
    PlanCase r;
    r.circuit = spec.circuit.name();
    r.expected = spec.expected;
    r.gates = static_cast<unsigned>(spec.circuit.gateCount());
    r.repetitions = std::max(1u, scaled(kPlanRepetitions));
    EnginePlan plan;
    {
      WallTimer timer;
      for (unsigned i = 0; i < r.repetitions; ++i)
        plan = planEngine(spec.circuit);
      r.planSeconds = timer.seconds();
    }
    r.chosen = plan.chosen;
    allChosen = allChosen && r.chosen == r.expected;
    cases.push_back(r);
  }

  AsciiTable table({"Circuit", "Gates", "Expected", "Chosen", "Plans/s"});
  for (const PlanCase& r : cases) {
    table.addRow({r.circuit, std::to_string(r.gates), r.expected, r.chosen,
                  round1(r.plansPerSecond())});
  }
  std::cout << "--engine auto planner throughput (analyzer pass + portfolio "
               "scoring per plan)\n\n";
  table.print(std::cout);
  writeJson(cases);
  if (!allChosen) {
    std::cerr << "ERROR: planner picked an unexpected engine\n";
    std::exit(1);
  }
}

}  // namespace
}  // namespace sliq::bench

int main(int argc, char** argv) {
  sliq::bench::report();
  return sliq::bench::maybeCheckBaseline(argc, argv, "BENCH_dispatch.json");
}
