// Pauli-observable expectation bench: native fast-path throughput
// (terms/sec) per engine against the generic basis-change fallback, with an
// in-bench cross-check that both paths agree to 1e-9 — the differential
// property the tier-1 tests pin at small scale.
//
// Output: an ASCII table on stdout plus a JSON record written to
// $SLIQ_BENCH_JSON or BENCH_observables.json (uploaded by bench.yml).
//
// Reading the numbers: the generic fallback pays 2·|support| gate
// applications plus one probabilityOne per string — on the exact engine
// every such rotation also invalidates the persistent measurement context.
// The native path mutates nothing: one read-only pair descent per string,
// and diagonal (Z-only) strings additionally reuse the warm weight memo.
//
// Knobs: SLIQ_BENCH_SCALE percent scales the repetition count (ctest smoke
// runs at 25%); SLIQ_BENCH_JSON overrides the JSON output path.
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/engine_registry.hpp"
#include "core/observable.hpp"
#include "harness.hpp"
#include "support/table.hpp"
#include "support/timer.hpp"

namespace sliq::bench {
namespace {

constexpr unsigned kFullRepetitions = 40;

/// 16-qubit Clifford circuit with long-range entanglement (same shape as
/// the sampling and noise benches).
QuantumCircuit cliffordBench() {
  QuantumCircuit c(16, "clifford16");
  c.h(0);
  for (unsigned q = 0; q + 1 < 16; ++q) c.cx(q, q + 1);
  for (unsigned q = 0; q < 16; q += 2) c.s(q);
  for (unsigned q = 0; q < 16; q += 3) c.h(q);
  for (unsigned q = 0; q + 4 < 16; q += 4) c.cz(q, q + 4);
  return c;
}

/// 10-qubit non-Clifford circuit (T layers).
QuantumCircuit tLayerBench() {
  QuantumCircuit c(10, "tlayer10");
  for (unsigned q = 0; q < 10; ++q) c.h(q);
  for (unsigned layer = 1; layer <= 2; ++layer) {
    for (unsigned q = 0; q + layer < 10; ++q) c.cx(q, q + layer);
    for (unsigned q = layer - 1; q < 10; q += 2) c.t(q);
  }
  return c;
}

/// Transverse-field-Ising-style energy: n−1 ZZ couplings + n X fields.
PauliObservable isingObservable(unsigned n) {
  PauliObservable obs;
  for (unsigned q = 0; q + 1 < n; ++q) {
    obs.addTerm(1.0, {{q, Pauli::kZ}, {q + 1, Pauli::kZ}});
  }
  for (unsigned q = 0; q < n; ++q) obs.addTerm(0.5, {{q, Pauli::kX}});
  return obs;
}

/// Diagonal-only variant: on the exact engine every pair is diagonal, so
/// the descent reads the warm weight memo below the deepest factor.
PauliObservable diagonalObservable(unsigned n) {
  PauliObservable obs;
  for (unsigned q = 0; q + 1 < n; ++q) {
    obs.addTerm(1.0, {{q, Pauli::kZ}, {q + 1, Pauli::kZ}});
  }
  for (unsigned q = 0; q < n; ++q) obs.addTerm(-0.25, {{q, Pauli::kZ}});
  return obs;
}

struct CaseResult {
  std::string engine;
  std::string circuit;
  std::string observable;
  unsigned terms = 0;
  unsigned repetitions = 0;
  double nativeSeconds = 0;
  double genericSeconds = 0;
  double maxAbsDiff = 0;
  bool agree = true;
  /// Counter snapshot of the run (sliq.run_report.v1 JSON), embedded under
  /// the case's "metrics" key — never compared by --check.
  std::string metricsJson;

  double nativeTermsPerSecond() const {
    return nativeSeconds > 0 ? terms * repetitions / nativeSeconds : 0;
  }
  double speedup() const {
    return nativeSeconds > 0 ? genericSeconds / nativeSeconds : 0;
  }
};

struct CaseSpec {
  const char* engine;
  QuantumCircuit (*circuit)();
  PauliObservable (*observable)(unsigned);
  const char* observableName;
};

std::string round1(double v) {
  std::ostringstream os;
  os.precision(v < 10 ? 1 : 0);
  os << std::fixed << v;
  return os.str();
}

void writeJson(const std::vector<CaseResult>& results) {
  const char* env = std::getenv("SLIQ_BENCH_JSON");
  const std::string path = env != nullptr ? env : "BENCH_observables.json";
  std::ofstream os(path);
  os << "{\n  \"bench\": \"observables\",\n  \"cases\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const CaseResult& r = results[i];
    os << "    {\"engine\": \"" << r.engine << "\", \"circuit\": \""
       << r.circuit << "\", \"observable\": \"" << r.observable
       << "\", \"terms\": " << r.terms
       << ", \"repetitions\": " << r.repetitions
       << ", \"native_s\": " << r.nativeSeconds
       << ", \"generic_s\": " << r.genericSeconds
       << ", \"native_terms_per_s\": " << r.nativeTermsPerSecond()
       << ", \"speedup_vs_generic\": " << r.speedup()
       << ", \"max_abs_diff\": " << r.maxAbsDiff
       << ", \"agree_1e9\": " << (r.agree ? "true" : "false")
       << ", \"metrics\": " << r.metricsJson << "}"
       << (i + 1 < results.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
  std::cout << "wrote " << path << "\n";
}

void report() {
  const CaseSpec specs[] = {
      {"exact", cliffordBench, diagonalObservable, "diag-ising"},
      {"exact", cliffordBench, isingObservable, "tf-ising"},
      {"exact", tLayerBench, isingObservable, "tf-ising"},
      {"qmdd", cliffordBench, isingObservable, "tf-ising"},
      {"qmdd", tLayerBench, isingObservable, "tf-ising"},
      {"chp", cliffordBench, isingObservable, "tf-ising"},
      {"statevector", cliffordBench, isingObservable, "tf-ising"},
      {"statevector", tLayerBench, isingObservable, "tf-ising"},
  };

  std::vector<CaseResult> results;
  for (const CaseSpec& spec : specs) {
    const QuantumCircuit circuit = spec.circuit();
    const PauliObservable obs = spec.observable(circuit.numQubits());
    const unsigned reps = std::max(1u, scaled(kFullRepetitions));

    const std::unique_ptr<Engine> engine =
        makeEngine(spec.engine, circuit.numQubits());
    // Telemetry rides along at full recording cost, same as --stats users
    // run the binary; the snapshot lands next to the rates it explains.
    engine->metrics().enable();
    engine->run(circuit);

    CaseResult r;
    r.engine = spec.engine;
    r.circuit = circuit.name();
    r.observable = spec.observableName;
    r.terms = static_cast<unsigned>(obs.terms().size());
    r.repetitions = reps;

    double native = 0, generic = 0;
    {
      WallTimer timer;
      for (unsigned i = 0; i < reps; ++i) native = engine->expectation(obs);
      r.nativeSeconds = timer.seconds();
    }
    {
      WallTimer timer;
      for (unsigned i = 0; i < reps; ++i)
        generic = genericExpectation(*engine, obs);
      r.genericSeconds = timer.seconds();
    }
    r.maxAbsDiff = std::abs(native - generic);
    r.agree = r.maxAbsDiff <= 1e-9;
    r.metricsJson = engineMetricsJson(*engine);
    results.push_back(r);
  }

  AsciiTable table({"Engine", "Circuit", "Observable", "Terms", "Native",
                    "Generic", "Terms/s", "Speedup", "Agree"});
  bool allAgree = true;
  for (const CaseResult& r : results) {
    allAgree = allAgree && r.agree;
    table.addRow({r.engine, r.circuit, r.observable, std::to_string(r.terms),
                  formatSeconds(r.nativeSeconds),
                  formatSeconds(r.genericSeconds),
                  round1(r.nativeTermsPerSecond()), round1(r.speedup()),
                  r.agree ? "ok" : "DIFF"});
  }
  std::cout << "Pauli-observable expectation throughput (native fast path vs "
               "generic basis-change fallback)\n'Agree' = |native − generic| "
               "<= 1e-9 on every case\n\n";
  table.print(std::cout);
  writeJson(results);
  if (!allAgree) {
    std::cerr << "ERROR: native and generic expectations disagree\n";
    std::exit(1);
  }
}

}  // namespace
}  // namespace sliq::bench

int main(int argc, char** argv) {
  sliq::bench::report();
  return sliq::bench::maybeCheckBaseline(argc, argv, "BENCH_observables.json");
}
