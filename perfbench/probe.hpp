// Probe — the benchmark's single caller of the public Engine facade.
//
// Every workload reaches the simulator only through these wrappers. In an
// untraced run they forward straight to the facade (one branch each). In a
// traced run each call becomes a span on the benchmark's own
// metrics::Registry (track 0), named after the layer it enters, and every
// engine's own registry is enabled on track 1 and merged in when the engine
// is destroyed, so one Chrome trace holds both the layer boundaries and the
// engine-internal spans (GC, memo fill). Per-layer numbers are derived from
// that registry by derivePerLayer().
#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "circuit/circuit.hpp"
#include "core/engine_registry.hpp"
#include "core/observable.hpp"
#include "support/metrics.hpp"
#include "support/rng.hpp"

namespace perfbench {

class Probe {
 public:
  explicit Probe(bool traced);

  sliq::metrics::Registry& registry() { return registry_; }
  const sliq::metrics::Registry& registry() const { return registry_; }

  std::unique_ptr<sliq::Engine> create(const std::string& engine,
                                       unsigned numQubits);
  /// Destroys `engine` (and, traced, first folds its run report and trace
  /// events into registry()).
  void destroy(std::unique_ptr<sliq::Engine>& engine);

  void applyGate(sliq::Engine& engine, const sliq::Gate& gate);
  /// Applies every gate of the static `circuit` through applyGate, inside a
  /// `bench.circuit` span whose kernel children the trace check counts.
  void applyCircuit(sliq::Engine& engine, const sliq::QuantumCircuit& circuit);
  /// probabilityOne, labelled cold (first measurement-layer query since the
  /// state last changed) or warm.
  double probabilityOne(sliq::Engine& engine, unsigned qubit);
  std::vector<std::vector<bool>> sampleShots(sliq::Engine& engine,
                                             unsigned count, sliq::Rng& rng);
  double expectation(sliq::Engine& engine,
                     const sliq::PauliObservable& observable);
  /// runDynamic; traced, the time between consecutive executed ops is
  /// attributed to each op's kernel timer.
  sliq::DynamicRun runDynamic(sliq::Engine& engine,
                              const sliq::QuantumCircuit& circuit,
                              sliq::Rng& rng);

  /// gateCount() of every circuit passed to applyCircuit while traced, in
  /// call order (the reference for the trace's kernel-span counts).
  const std::vector<std::size_t>& circuitGateCounts() const {
    return circuitGateCounts_;
  }

 private:
  bool traced_;
  bool stale_ = true;  // state changed since the last measurement query
  sliq::metrics::Registry registry_;
  std::vector<std::size_t> circuitGateCounts_;
};

/// Per-layer metrics of a traced run, each already divided by `passes`.
struct PerLayer {
  std::map<std::string, std::pair<double, std::string>> values;  // value, unit
  /// False when a bench.circuit span's kernel-span count differs from the
  /// circuit's gateCount().
  bool gateCountsMatch = true;
};

/// Derives the per-layer metrics from the probe's registry: span self times
/// from the trace events, engine counters merged from the run reports.
PerLayer derivePerLayer(const Probe& probe, double passes);

}  // namespace perfbench
