// Noise-trajectory throughput bench: trajectories/sec per engine and
// execution path, swept over worker thread counts, plus an in-bench check
// that counts are bit-identical across thread counts (the determinism
// contract the tier-1 tests pin at small scale).
//
// Output: an ASCII table on stdout plus a JSON record written to
// $SLIQ_BENCH_JSON or BENCH_noise.json (uploaded by bench.yml).
//
// Reading the numbers: the fast path pays one ideal circuit run per worker
// before trajectories stream, so on a machine with fewer cores than
// workers, setup-heavy engines (exact: BDD build + weight memo per worker)
// can show *lower* throughput at higher thread counts — the sweep exists
// precisely to expose that crossover per host.
//
// Knobs: SLIQ_BENCH_SCALE percent scales the trajectory count (ctest smoke
// runs at 25%); SLIQ_BENCH_JSON overrides the JSON output path.
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "harness.hpp"
#include "noise/noise_model.hpp"
#include "noise/trajectory.hpp"
#include "support/table.hpp"

namespace sliq::bench {
namespace {

constexpr unsigned kFullTrajectories = 4000;
constexpr unsigned kThreadSweep[] = {1, 2, 4};

/// 16-qubit Clifford circuit with long-range entanglement — the Pauli-frame
/// fast-path workload (same shape as the sampling bench).
QuantumCircuit cliffordBench() {
  QuantumCircuit c(16, "clifford16");
  c.h(0);
  for (unsigned q = 0; q + 1 < 16; ++q) c.cx(q, q + 1);
  for (unsigned q = 0; q < 16; q += 2) c.s(q);
  for (unsigned q = 0; q < 16; q += 3) c.h(q);
  for (unsigned q = 0; q + 4 < 16; q += 4) c.cz(q, q + 4);
  return c;
}

/// 10-qubit non-Clifford circuit (T layers) — forces the generic
/// replay-per-trajectory path.
QuantumCircuit tLayerBench() {
  QuantumCircuit c(10, "tlayer10");
  for (unsigned q = 0; q < 10; ++q) c.h(q);
  for (unsigned layer = 1; layer <= 2; ++layer) {
    for (unsigned q = 0; q + layer < 10; ++q) c.cx(q, q + layer);
    for (unsigned q = layer - 1; q < 10; q += 2) c.t(q);
  }
  return c;
}

noise::NoiseModel benchModel() {
  noise::NoiseModel model;
  model.addAfterGate1(noise::PauliChannel::depolarizing1(0.01));
  model.addAfterGate2(noise::PauliChannel::depolarizing2(0.02));
  model.setReadoutFlip(0.015);
  return model;
}

struct CaseResult {
  std::string engine;
  std::string circuit;
  std::string path;  // "fast" or "generic"
  unsigned threads = 0;
  unsigned trajectories = 0;
  double seconds = 0;
  double trajPerSecond = 0;
  bool deterministicVsOneThread = true;
};

struct CaseSpec {
  const char* engine;
  bool forceGeneric;
  /// Relative workload: generic-path engines replay the circuit per
  /// trajectory, so they run a fraction of the full count.
  unsigned divisor;
  QuantumCircuit (*circuit)();
};

std::string round0(double v) {
  std::ostringstream os;
  os.precision(0);
  os << std::fixed << v;
  return os.str();
}

void writeJson(const std::vector<CaseResult>& results) {
  const char* env = std::getenv("SLIQ_BENCH_JSON");
  const std::string path = env != nullptr ? env : "BENCH_noise.json";
  std::ofstream os(path);
  os << "{\n  \"bench\": \"noise_trajectories\",\n  \"cases\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const CaseResult& r = results[i];
    os << "    {\"engine\": \"" << r.engine << "\", \"circuit\": \""
       << r.circuit << "\", \"path\": \"" << r.path
       << "\", \"threads\": " << r.threads
       << ", \"trajectories\": " << r.trajectories
       << ", \"seconds\": " << r.seconds
       << ", \"traj_per_s\": " << r.trajPerSecond
       << ", \"deterministic_vs_1thread\": "
       << (r.deterministicVsOneThread ? "true" : "false") << "}"
       << (i + 1 < results.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
  std::cout << "wrote " << path << "\n";
}

void report() {
  const CaseSpec specs[] = {
      {"chp", false, 1, cliffordBench},
      {"chp", true, 4, cliffordBench},  // fast-path speedup reference
      {"exact", false, 1, cliffordBench},
      {"qmdd", true, 4, tLayerBench},
      {"statevector", true, 4, tLayerBench},
      // Appended last so the committed baseline rows keep their indices:
      // every exact trajectory builds a fresh BDD engine, so this row
      // tracks the per-trajectory construction cost.
      {"exact", true, 50, tLayerBench},
  };

  std::vector<CaseResult> results;
  for (const CaseSpec& spec : specs) {
    const QuantumCircuit circuit = spec.circuit();
    noise::TrajectoryOptions options;
    options.trajectories = scaled(kFullTrajectories) / spec.divisor;
    options.seed = 42;
    options.forceGeneric = spec.forceGeneric;

    std::map<std::string, std::uint64_t> oneThreadCounts;
    for (const unsigned threads : kThreadSweep) {
      options.threads = threads;
      const noise::TrajectoryResult run =
          noise::runTrajectories(spec.engine, circuit, benchModel(), options);
      CaseResult r;
      r.engine = spec.engine;
      r.circuit = circuit.name();
      r.path = run.usedPauliFrameFastPath ? "fast" : "generic";
      r.threads = run.threadsUsed;
      r.trajectories = run.trajectories;
      r.seconds = run.seconds;
      r.trajPerSecond = run.trajectoriesPerSecond();
      if (threads == 1) {
        oneThreadCounts = run.counts;
      } else {
        r.deterministicVsOneThread = run.counts == oneThreadCounts;
      }
      results.push_back(r);
    }
  }

  AsciiTable table({"Engine", "Circuit", "Path", "Threads", "Traj", "Time",
                    "Traj/s", "Det."});
  bool allDeterministic = true;
  for (const CaseResult& r : results) {
    allDeterministic = allDeterministic && r.deterministicVsOneThread;
    table.addRow({r.engine, r.circuit, r.path, std::to_string(r.threads),
                  std::to_string(r.trajectories), formatSeconds(r.seconds),
                  round0(r.trajPerSecond),
                  r.deterministicVsOneThread ? "ok" : "DIFF"});
  }
  std::cout << "Noise-trajectory throughput (model: " << benchModel().summary()
            << ")\n'Det.' = counts bit-identical to the 1-thread run\n\n";
  table.print(std::cout);
  writeJson(results);
  if (!allDeterministic) {
    std::cerr << "ERROR: thread-count determinism violated\n";
    std::exit(1);
  }
}

}  // namespace
}  // namespace sliq::bench

int main(int argc, char** argv) {
  sliq::bench::report();
  return sliq::bench::maybeCheckBaseline(argc, argv, "BENCH_noise.json");
}
