// Stochastic-trajectory execution of noisy circuits.
//
// A trajectory is one Monte-Carlo realization of a noisy circuit: walk the
// gate list, sample each attached Pauli channel (noise_model.hpp) and apply
// the sampled Paulis as the walk passes their sites, then draw one
// full-register shot. Aggregating shots over many trajectories samples the
// noisy device's output distribution.
//
// Execution paths, chosen deterministically from (circuit, options):
//  - Pauli-frame fast path (static Clifford circuits, any engine): the
//    ideal circuit runs ONCE per worker; each trajectory only conjugates
//    its sampled Pauli errors through the remaining Clifford gates (a
//    Pauli frame) and XORs the frame's X mask into an ideal shot. For the
//    chp engine this is the "Clifford + Pauli noise stays fully stabilizer"
//    path; it is valid for every engine because the frame algebra is
//    engine-independent.
//  - Generic path (any circuit): each trajectory instantiates a fresh
//    engine and walks the circuit through Engine::runDynamic, whose
//    DynamicInstrument hooks inject the sampled Paulis after each executed
//    op and flip mid-circuit readout records. Static circuits then draw one
//    shot; dynamic circuits report their classical register. Static counts,
//    dynamic counts and expectations all run this one walker.
//
// Both paths draw one deviate per channel site in the same canonical order
// (plan sites in op order, then the shot, then readout flips).
//
// Thread-determinism contract: trajectory t consumes only the RNG substream
// RngState{seed}.split(t) (see support/rng.hpp) and counts are an
// order-independent reduction, so results are bit-identical for every
// thread count — the property the tier-1 tests and the CLI acceptance
// check pin down.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "circuit/circuit.hpp"
#include "core/observable.hpp"
#include "noise/noise_model.hpp"
#include "support/rng.hpp"

namespace sliq {
class Engine;  // core/engine_registry.hpp
}

namespace sliq::metrics {
class Registry;  // support/metrics.hpp
}

namespace sliq::noise {

struct TrajectoryOptions {
  unsigned trajectories = 1000;
  /// Global index of the first trajectory: trajectory i of this run
  /// consumes substream split(firstTrajectory + i). Shard runs covering
  /// disjoint [offset, offset+count) ranges under one seed therefore draw
  /// exactly the deviates of the corresponding slice of a monolithic run,
  /// and their count histograms merge additively to the monolithic result
  /// bit for bit (the CLI's --traj-offset / --merge-counts contract).
  unsigned firstTrajectory = 0;
  /// Worker threads; 0 auto-detects hardware concurrency. Results never
  /// depend on this value.
  unsigned threads = 1;
  std::uint64_t seed = 1;
  /// Disables the Pauli-frame fast path (tests and the bench baseline).
  bool forceGeneric = false;
  /// Observability sink (DESIGN.md §11): when non-null and enabled, the
  /// runner records worker spans (one track per worker, merged in
  /// worker-index order so the aggregate is deterministic), trajectory
  /// counters and the summed run reports of every engine the workers
  /// instantiated (gates applied, cache lookups, ...) into it. Never owned;
  /// telemetry never touches the RNG substreams, so results are
  /// bit-identical with or without it.
  metrics::Registry* metrics = nullptr;
};

struct TrajectoryResult {
  /// Shot histogram keyed by bitstring (qubit n-1 leftmost, like the CLI's
  /// shot output). std::map keeps the iteration order deterministic.
  /// Dynamic circuits histogram their *classical register* instead (bit
  /// numClbits-1 leftmost): the creg stream is the output of a dynamic
  /// circuit, and the post-run quantum state is conditioned on it.
  std::map<std::string, std::uint64_t> counts;
  unsigned trajectories = 0;
  unsigned threadsUsed = 0;
  bool usedPauliFrameFastPath = false;
  double seconds = 0;

  double trajectoriesPerSecond() const {
    return seconds > 0 ? trajectories / seconds : 0;
  }
};

/// Runs `options.trajectories` noise trajectories of `circuit` under
/// `model` on the engine registered as `engineName`, fanning them across
/// worker threads. Throws NoiseError for an infeasible combination (model
/// qubit filters out of range, engine unsupported for the circuit).
///
/// Dynamic circuits always take the generic walker: each trajectory
/// re-executes the classical control flow through Engine::runDynamic with
/// its own substream, sampling the attached channels of each *executed* op
/// in the shared canonical order (op deviates first — one per
/// measure/reset, plus one readout-flip deviate per measure when the model
/// has readout error — then one per channel site). Ops skipped by a failed
/// classical condition consume no deviates and receive no noise. The
/// histogram is keyed by the final classical register.
TrajectoryResult runTrajectories(const std::string& engineName,
                                 const QuantumCircuit& circuit,
                                 const NoiseModel& model,
                                 const TrajectoryOptions& options = {});

/// Facade overload: `prototype` names the engine and answers supports()
/// (its own state is not touched — trajectory execution needs one engine
/// instance per worker or per trajectory, created through the registry).
/// The name overload above builds such a prototype and forwards here.
TrajectoryResult runTrajectories(Engine& prototype,
                                 const QuantumCircuit& circuit,
                                 const NoiseModel& model,
                                 const TrajectoryOptions& options = {});

/// Noisy expectation value ⟨O⟩ averaged over stochastic trajectories.
struct ExpectationResult {
  /// Mean over trajectories of the per-trajectory exact ⟨O⟩. The reduction
  /// runs in trajectory-index order regardless of which worker produced
  /// which value, so it is bit-identical for every thread count.
  double mean = 0;
  /// Sample standard deviation of the per-trajectory values, and the
  /// standard error of the mean (stddev/√trajectories) — the
  /// estimator-variance note of DESIGN.md §7. Both reduced in index order.
  double stddev = 0;
  double standardError = 0;
  unsigned trajectories = 0;
  unsigned threadsUsed = 0;
  bool usedPauliFrameFastPath = false;
  double seconds = 0;

  double trajectoriesPerSecond() const {
    return seconds > 0 ? trajectories / seconds : 0;
  }
};

/// Estimates ⟨O⟩ on the noisy device: each trajectory samples its Pauli
/// errors (consuming substream split(t) exactly like the histogram runner)
/// and contributes its engine-exact expectation — no shot noise, only
/// trajectory noise. Execution paths mirror runTrajectories: the generic
/// walker runs each trajectory on a fresh engine and calls
/// Engine::expectation on the walked state; the Pauli-frame fast path
/// (Clifford circuits) runs the ideal circuit once per worker, computes
/// each string's ideal ⟨P⟩ once, and per trajectory only flips signs — a
/// sampled frame F turns ⟨F P F⟩ into ±⟨P⟩ by Pauli (anti)commutation,
/// which is exact (the channel.hpp "exact for Pauli observables" note).
/// A `measure` rule scales
/// each string by (1−2p)^|support| analytically: symmetric readout flips
/// shrink a k-qubit parity by exactly that factor, and applying it in
/// closed form keeps the deviate accounting (and hence thread determinism)
/// untouched. Throws NoiseError / ObservableSpecError on infeasible
/// combinations, like runTrajectories; dynamic circuits always throw —
/// their ⟨O⟩ is conditioned on the classical outcome stream, so a single
/// trajectory-mean number would be ill-defined (the same restriction the
/// CLI enforces for --observable on dynamic circuits).
ExpectationResult runTrajectoryExpectation(const std::string& engineName,
                                           const QuantumCircuit& circuit,
                                           const NoiseModel& model,
                                           const PauliObservable& observable,
                                           const TrajectoryOptions& options = {});

/// Facade overload: `prototype` names the engine (its state is untouched);
/// the name overload above forwards here.
ExpectationResult runTrajectoryExpectation(Engine& prototype,
                                           const QuantumCircuit& circuit,
                                           const NoiseModel& model,
                                           const PauliObservable& observable,
                                           const TrajectoryOptions& options = {});

/// An n-qubit Pauli operator tracked up to phase (phases never affect
/// Z-basis statistics), with conjugation through the Clifford gate set —
/// the fast path's error representation, exposed for tests.
class PauliFrame {
 public:
  explicit PauliFrame(unsigned numQubits);

  unsigned numQubits() const { return static_cast<unsigned>(x_.size()); }
  bool x(unsigned q) const { return x_[q]; }
  bool z(unsigned q) const { return z_[q]; }
  bool isIdentity() const;

  /// Multiplies `p` on qubit `q` into the frame (Paulis compose by XOR).
  void multiply(unsigned q, Pauli p);
  /// Replaces the frame P by U·P·U† for Clifford `gate`; throws NoiseError
  /// for non-Clifford gates (the fast path never reaches them).
  void propagateThrough(const Gate& gate);

 private:
  std::vector<bool> x_, z_;
};

}  // namespace sliq::noise
