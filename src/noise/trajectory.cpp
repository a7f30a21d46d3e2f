#include "noise/trajectory.hpp"

#include <atomic>
#include <cmath>
#include <exception>
#include <future>
#include <memory>
#include <utility>

#include "core/engine_registry.hpp"
#include "stabilizer/stabilizer.hpp"
#include "support/bits.hpp"
#include "support/metrics.hpp"
#include "support/thread_pool.hpp"
#include "support/timer.hpp"

namespace sliq::noise {

namespace {

/// One channel application site: `channel` acts on (q0, q1) (q1 unused for
/// one-qubit channels). Pointers reference the NoiseModel, which outlives
/// every plan.
struct ChannelApplication {
  const PauliChannel* channel;
  unsigned q0, q1;
};

/// plan[i] = the channel applications attached after gate i, in the
/// canonical order both execution paths share: gate1/gate2 rules first
/// (operands in (controls..., targets...) order), then idle rules (idle
/// qubits ascending). The plan depends only on (model, circuit), so it is
/// built once per run and shared read-only by every worker; per trajectory
/// only the channel.sample() draws remain — one uniform deviate per entry.
using NoisePlan = std::vector<std::vector<ChannelApplication>>;

NoisePlan buildNoisePlan(const NoiseModel& model,
                         const QuantumCircuit& circuit) {
  const unsigned n = circuit.numQubits();
  NoisePlan plan;
  plan.reserve(circuit.gateCount());
  for (const Gate& gate : circuit.gates()) {
    std::vector<ChannelApplication> sites;
    std::vector<unsigned> operands;
    operands.reserve(gate.arity());
    operands.insert(operands.end(), gate.controls.begin(),
                    gate.controls.end());
    operands.insert(operands.end(), gate.targets.begin(), gate.targets.end());

    // Measure/reset are not gates: the gate1/gate2 rules do not fire
    // (readout error models measurement noise instead). The shared idle
    // loop below still applies — the op's target counts as busy, so only
    // the *other* qubits pick up idle noise.
    if (gate.isDynamicOp()) {
      // fall through to the idle rules only
    } else if (operands.size() == 1) {
      for (const AttachedChannel& rule : model.afterGate1()) {
        if (rule.appliesTo(operands[0])) {
          sites.push_back({&rule.channel, operands[0], operands[0]});
        }
      }
    } else {
      for (const AttachedChannel& rule : model.afterGate2()) {
        if (rule.channel.arity() == 2) {
          if (rule.appliesTo(operands[0]) && rule.appliesTo(operands[1])) {
            sites.push_back({&rule.channel, operands[0], operands[1]});
          }
        } else {
          for (const unsigned q : operands) {
            if (rule.appliesTo(q)) sites.push_back({&rule.channel, q, q});
          }
        }
      }
    }
    if (!model.idle().empty()) {
      for (unsigned q = 0; q < n; ++q) {
        bool touched = false;
        for (const unsigned op : operands) touched = touched || op == q;
        if (touched) continue;
        for (const AttachedChannel& rule : model.idle()) {
          if (rule.appliesTo(q)) sites.push_back({&rule.channel, q, q});
        }
      }
    }
    plan.push_back(std::move(sites));
  }
  return plan;
}

/// Classical readout error: flips each bit with the model's probability.
/// Consumes one deviate per qubit whenever the model has readout error.
void applyReadout(std::vector<bool>& bits, const NoiseModel& model,
                  Rng& rng) {
  if (!model.hasReadoutError()) return;
  const double p = model.readoutFlip();
  for (std::size_t q = 0; q < bits.size(); ++q) {
    if (rng.uniform() < p) bits[q] = !bits[q];
  }
}

GateKind pauliGateKind(Pauli p) {
  switch (p) {
    case Pauli::kX: return GateKind::kX;
    case Pauli::kY: return GateKind::kY;
    case Pauli::kZ: return GateKind::kZ;
    case Pauli::kI: break;
  }
  throw NoiseError("identity term has no gate");
}

QuantumCircuit realizationFromPlan(const QuantumCircuit& circuit,
                                   const NoisePlan& plan, Rng& rng) {
  QuantumCircuit out(circuit.numQubits(), circuit.name() + "+noise");
  for (std::size_t i = 0; i < circuit.gateCount(); ++i) {
    out.append(circuit.gate(i));
    for (const ChannelApplication& site : plan[i]) {
      const PauliChannel& channel = *site.channel;
      const PauliTerm& term = channel.terms()[channel.sample(rng)];
      if (term.paulis[0] != Pauli::kI) {
        out.append(Gate{pauliGateKind(term.paulis[0]), {site.q0}, {}});
      }
      if (channel.arity() == 2 && term.paulis[1] != Pauli::kI) {
        out.append(Gate{pauliGateKind(term.paulis[1]), {site.q1}, {}});
      }
    }
  }
  return out;
}

}  // namespace

QuantumCircuit sampleRealization(const QuantumCircuit& circuit,
                                 const NoiseModel& model, Rng& rng) {
  if (circuit.isDynamic()) {
    throw NoiseError(
        "sampleRealization is defined for static circuits: a dynamic "
        "realization depends on mid-run outcomes (use runTrajectories, "
        "which replays the classical control per trajectory)");
  }
  return realizationFromPlan(circuit, buildNoisePlan(model, circuit), rng);
}

// ---- PauliFrame -----------------------------------------------------------

PauliFrame::PauliFrame(unsigned numQubits)
    : x_(numQubits, false), z_(numQubits, false) {}

bool PauliFrame::isIdentity() const {
  for (std::size_t q = 0; q < x_.size(); ++q) {
    if (x_[q] || z_[q]) return false;
  }
  return true;
}

void PauliFrame::multiply(unsigned q, Pauli p) {
  switch (p) {
    case Pauli::kI: break;
    case Pauli::kX: x_[q] = !x_[q]; break;
    case Pauli::kY: x_[q] = !x_[q]; z_[q] = !z_[q]; break;
    case Pauli::kZ: z_[q] = !z_[q]; break;
  }
}

void PauliFrame::propagateThrough(const Gate& gate) {
  auto nonClifford = [&] {
    throw NoiseError("Pauli frame cannot propagate through non-Clifford " +
                     gateName(gate));
  };
  if (gate.controls.size() > 1) nonClifford();
  switch (gate.kind) {
    case GateKind::kX:
    case GateKind::kY:
    case GateKind::kZ:
      break;  // Paulis commute with Paulis up to phase
    case GateKind::kH: {
      const unsigned t = gate.target();
      const bool x = x_[t];
      x_[t] = z_[t];
      z_[t] = x;  // X ↔ Z
      break;
    }
    case GateKind::kS:
    case GateKind::kSdg: {
      const unsigned t = gate.target();
      z_[t] = z_[t] != x_[t];  // X → ±Y
      break;
    }
    case GateKind::kRx90: {
      const unsigned t = gate.target();
      x_[t] = x_[t] != z_[t];  // Z → ∓Y
      break;
    }
    case GateKind::kRy90: {
      const unsigned t = gate.target();
      const bool x = x_[t];
      x_[t] = z_[t];
      z_[t] = x;  // X → ∓Z, Z → ±X
      break;
    }
    case GateKind::kCnot: {
      if (gate.controls.empty()) break;  // degenerate: plain X
      const unsigned c = gate.controls[0], t = gate.target();
      x_[t] = x_[t] != x_[c];  // X_c → X_c X_t
      z_[c] = z_[c] != z_[t];  // Z_t → Z_c Z_t
      break;
    }
    case GateKind::kCz: {
      if (gate.controls.empty()) break;  // degenerate: plain Z
      const unsigned c = gate.controls[0], t = gate.target();
      z_[t] = z_[t] != x_[c];  // X_c → X_c Z_t
      z_[c] = z_[c] != x_[t];  // X_t → X_t Z_c
      break;
    }
    case GateKind::kSwap: {
      if (!gate.controls.empty()) nonClifford();  // Fredkin
      const unsigned a = gate.targets[0], b = gate.targets[1];
      const bool xa = x_[a], za = z_[a];
      x_[a] = x_[b];
      z_[a] = z_[b];
      x_[b] = xa;
      z_[b] = za;
      break;
    }
    case GateKind::kT:
    case GateKind::kTdg:
      nonClifford();
      break;
    case GateKind::kMeasure:
    case GateKind::kReset:
      // Frames conjugate through unitaries only; collapse points end the
      // frame algebra (the runner never picks the fast path for dynamic
      // circuits — see runChecked).
      throw NoiseError(
          "Pauli frame cannot propagate through " + gateName(gate) +
          ": frames do not commute through classical control");
  }
}

// ---- trajectory execution -------------------------------------------------

namespace {

using Counts = std::map<std::string, std::uint64_t>;

/// Shared per-run inputs every worker reads (all const after setup).
struct RunContext {
  const std::string& engineName;
  const QuantumCircuit& circuit;
  const NoiseModel& model;
  const NoisePlan& plan;
  unsigned trajectories;
  /// Global index of trajectory 0 (TrajectoryOptions::firstTrajectory):
  /// substream selection uses firstTrajectory + t so shard runs reproduce
  /// the monolithic run's deviates slice for slice.
  unsigned firstTrajectory;
  RngState root;
};

/// Generic path: one fresh engine + sampled realization per trajectory.
void runGenericWorker(const RunContext& run, std::atomic<unsigned>& next,
                      Counts& local, metrics::Registry* reg) {
  const metrics::ScopedSpan span(reg, "trajectory.worker");
  const unsigned n = run.circuit.numQubits();
  for (;;) {
    const unsigned t = next.fetch_add(1, std::memory_order_relaxed);
    if (t >= run.trajectories) return;
    if (reg != nullptr) reg->add("trajectories.executed");
    Rng rng = run.root.split(run.firstTrajectory + t).rng();
    const QuantumCircuit realization =
        realizationFromPlan(run.circuit, run.plan, rng);
    const std::unique_ptr<Engine> engine = makeEngine(run.engineName, n);
    engine->run(realization);
    std::vector<bool> bits = engine->sampleShot(rng);
    applyReadout(bits, run.model, rng);
    ++local[bitsToString(bits)];
  }
}

/// Dynamic-circuit path: each trajectory re-executes the classical control
/// flow through Engine::runDynamic on a fresh engine, with the noise plan
/// injected per executed op through the DynamicInstrument hooks — the walk
/// (condition evaluation, creg updates, deviate order) lives in the facade,
/// so zero-noise trajectories are bit-identical to plain runDynamic. The
/// trajectory's "shot" is the final classical register.
void runDynamicWorker(const RunContext& run, std::atomic<unsigned>& next,
                      Counts& local, metrics::Registry* reg) {
  const metrics::ScopedSpan span(reg, "trajectory.worker");
  const unsigned n = run.circuit.numQubits();
  const bool readout = run.model.hasReadoutError();
  const double flip = readout ? run.model.readoutFlip() : 0.0;
  for (;;) {
    const unsigned t = next.fetch_add(1, std::memory_order_relaxed);
    if (t >= run.trajectories) return;
    if (reg != nullptr) reg->add("trajectories.executed");
    Rng rng = run.root.split(run.firstTrajectory + t).rng();
    const std::unique_ptr<Engine> engine = makeEngine(run.engineName, n);
    DynamicInstrument instrument;
    instrument.afterOp = [&run, &rng](Engine& e, std::size_t i) {
      for (const ChannelApplication& site : run.plan[i]) {
        const PauliChannel& channel = *site.channel;
        const PauliTerm& term = channel.terms()[channel.sample(rng)];
        if (term.paulis[0] != Pauli::kI) {
          e.applyGate(Gate{pauliGateKind(term.paulis[0]), {site.q0}, {}});
        }
        if (channel.arity() == 2 && term.paulis[1] != Pauli::kI) {
          e.applyGate(Gate{pauliGateKind(term.paulis[1]), {site.q1}, {}});
        }
      }
    };
    if (readout) {
      // Mid-circuit readout error: the *recorded* bit flips, and classical
      // control downstream sees the flipped record — one deviate per
      // executed measure, mirroring applyReadout's per-bit convention.
      instrument.recordMeasure = [&rng, flip](bool outcome) {
        return rng.uniform() < flip ? !outcome : outcome;
      };
    }
    const DynamicRun shot = engine->runDynamic(run.circuit, rng, &instrument);
    ++local[bitsToString(shot.creg)];
  }
}

/// Pauli-frame fast path: the ideal circuit runs once per worker; each
/// trajectory conjugates its sampled errors to the end of the circuit and
/// XORs the frame into an ideal shot. Channel sampling visits the same
/// plan sites as realizationFromPlan, so both paths consume substream
/// deviates identically.
void runFrameWorker(const RunContext& run, std::atomic<unsigned>& next,
                    Counts& local, metrics::Registry* reg) {
  const metrics::ScopedSpan span(reg, "trajectory.worker");
  const unsigned n = run.circuit.numQubits();
  const std::unique_ptr<Engine> engine = makeEngine(run.engineName, n);
  engine->run(run.circuit);
  for (;;) {
    const unsigned t = next.fetch_add(1, std::memory_order_relaxed);
    if (t >= run.trajectories) return;
    if (reg != nullptr) reg->add("trajectories.executed");
    Rng rng = run.root.split(run.firstTrajectory + t).rng();
    PauliFrame frame(n);
    for (std::size_t i = 0; i < run.circuit.gateCount(); ++i) {
      frame.propagateThrough(run.circuit.gate(i));
      for (const ChannelApplication& site : run.plan[i]) {
        const PauliChannel& channel = *site.channel;
        const PauliTerm& term = channel.terms()[channel.sample(rng)];
        frame.multiply(site.q0, term.paulis[0]);
        if (channel.arity() == 2) frame.multiply(site.q1, term.paulis[1]);
      }
    }
    std::vector<bool> bits = engine->sampleShot(rng);
    for (unsigned q = 0; q < n; ++q) {
      if (frame.x(q)) bits[q] = !bits[q];
    }
    applyReadout(bits, run.model, rng);
    ++local[bitsToString(bits)];
  }
}

/// Shared body. The caller has already verified the engine supports the
/// circuit (each public overload does it with the cheapest instance it has).
TrajectoryResult runChecked(const std::string& engineName,
                            const QuantumCircuit& circuit,
                            const NoiseModel& model,
                            const TrajectoryOptions& options) {
  model.validateForWidth(circuit.numQubits());

  const bool dynamic = circuit.isDynamic();
  if (options.forcePauliFrame) {
    if (options.forceGeneric) {
      throw NoiseError(
          "forceGeneric and forcePauliFrame are mutually exclusive");
    }
    if (dynamic) {
      throw NoiseError(
          "Pauli-frame fast path cannot execute dynamic circuits: frames "
          "do not commute through classical control (measure/reset/if)");
    }
    if (!StabilizerSimulator::supports(circuit)) {
      throw NoiseError(
          "Pauli-frame fast path requires a Clifford circuit");
    }
  }

  TrajectoryResult result;
  result.trajectories = options.trajectories;
  // Pauli insertions keep a Clifford circuit Clifford, so the frame path is
  // valid exactly when the ideal circuit is stabilizer-simulable AND static
  // (a classical condition decides mid-run whether a Clifford gate exists —
  // no frame conjugation order is correct for both branches). The choice
  // depends only on (circuit, options) — never on the thread count.
  result.usedPauliFrameFastPath =
      !dynamic && !options.forceGeneric &&
      StabilizerSimulator::supports(circuit);
  if (options.trajectories == 0) return result;

  const unsigned threads =
      std::min(options.threads == 0 ? ThreadPool::hardwareConcurrency()
                                    : options.threads,
               options.trajectories);
  result.threadsUsed = std::max(1u, threads);

  const NoisePlan plan = buildNoisePlan(model, circuit);
  const RunContext run{engineName,
                       circuit,
                       model,
                       plan,
                       options.trajectories,
                       options.firstTrajectory,
                       RngState{options.seed}};
  std::atomic<unsigned> next{0};
  std::vector<Counts> locals(result.threadsUsed);

  // Telemetry: one registry per worker (span track w+1), merged back into
  // the caller's sink in worker-index order after the join — the merged
  // counter totals are deterministic even though the per-worker split is
  // not (workers pull trajectory indices from the shared atomic).
  const bool record =
      options.metrics != nullptr && options.metrics->enabled();
  std::vector<std::unique_ptr<metrics::Registry>> workerRegs;
  if (record) {
    workerRegs.reserve(result.threadsUsed);
    for (unsigned w = 0; w < result.threadsUsed; ++w) {
      workerRegs.push_back(std::make_unique<metrics::Registry>());
      workerRegs.back()->enable(w + 1);
    }
  }

  const bool framePath = result.usedPauliFrameFastPath;
  WallTimer timer;
  {
    // The pool is declared after `locals`/`next` so that unwinding on an
    // exception joins the workers before their shared state dies.
    ThreadPool pool(result.threadsUsed);
    std::vector<std::future<void>> done;
    done.reserve(result.threadsUsed);
    for (unsigned w = 0; w < result.threadsUsed; ++w) {
      Counts& local = locals[w];
      metrics::Registry* reg = record ? workerRegs[w].get() : nullptr;
      done.push_back(
          pool.submit([&run, &next, &local, reg, framePath, dynamic] {
            if (framePath) {
              runFrameWorker(run, next, local, reg);
            } else if (dynamic) {
              runDynamicWorker(run, next, local, reg);
            } else {
              runGenericWorker(run, next, local, reg);
            }
          }));
    }
    std::exception_ptr failure;
    for (std::future<void>& future : done) {
      try {
        future.get();
      } catch (...) {
        if (!failure) failure = std::current_exception();
      }
    }
    if (failure) std::rethrow_exception(failure);
  }
  result.seconds = timer.seconds();
  for (const Counts& local : locals) {
    for (const auto& [key, count] : local) result.counts[key] += count;
  }
  if (record) {
    for (const auto& wr : workerRegs) options.metrics->merge(*wr);
    options.metrics->gaugeSet("trajectory.threads", result.threadsUsed);
    options.metrics->counterSet("trajectory.frame_fast_path",
                                framePath ? 1 : 0);
    options.metrics->timerAdd("trajectory.run", result.seconds);
  }
  return result;
}

}  // namespace

// ---- trajectory expectations ----------------------------------------------

namespace {

/// Shared inputs of one expectation run (all const after setup).
struct ExpectationRunContext {
  const std::string& engineName;
  const QuantumCircuit& circuit;
  const NoisePlan& plan;
  const PauliObservable& observable;
  /// observable.terms()[s] wrapped as a standalone 1.0-coefficient
  /// observable, built once so workers never re-normalize factor lists.
  const std::vector<PauliObservable>& singles;
  /// Per-string readout attenuation (1−2p)^|support| — closed form of the
  /// symmetric flip channel on a parity observable, applied analytically so
  /// no readout deviates are drawn.
  const std::vector<double>& readoutFactors;
  unsigned trajectories;
  /// Global index of trajectory 0 — same substream contract as RunContext.
  unsigned firstTrajectory;
  RngState root;
};

std::vector<double> readoutAttenuation(const NoiseModel& model,
                                       const PauliObservable& observable) {
  std::vector<double> factors;
  factors.reserve(observable.terms().size());
  for (const PauliString& term : observable.terms()) {
    factors.push_back(
        model.hasReadoutError()
            ? std::pow(1.0 - 2.0 * model.readoutFlip(),
                       static_cast<double>(term.factors.size()))
            : 1.0);
  }
  return factors;
}

/// Generic path: one fresh engine + sampled realization per trajectory;
/// the engine's (native or fallback) expectation is exact per realization.
void runExpectationGenericWorker(const ExpectationRunContext& run,
                                 std::atomic<unsigned>& next,
                                 std::vector<double>& values,
                                 metrics::Registry* reg) {
  const metrics::ScopedSpan span(reg, "trajectory.worker");
  const unsigned n = run.circuit.numQubits();
  for (;;) {
    const unsigned t = next.fetch_add(1, std::memory_order_relaxed);
    if (t >= run.trajectories) return;
    if (reg != nullptr) reg->add("trajectories.executed");
    Rng rng = run.root.split(run.firstTrajectory + t).rng();
    const QuantumCircuit realization =
        realizationFromPlan(run.circuit, run.plan, rng);
    const std::unique_ptr<Engine> engine = makeEngine(run.engineName, n);
    engine->run(realization);
    double value = 0;
    const auto& terms = run.observable.terms();
    for (std::size_t s = 0; s < terms.size(); ++s) {
      value += terms[s].coefficient * run.readoutFactors[s] *
               engine->expectation(run.singles[s]);
    }
    values[t] = value;
  }
}

/// Pauli-frame fast path: the ideal circuit runs once per worker and every
/// string's ideal ⟨P⟩ is computed once; a trajectory then only needs its
/// frame's sign per string: F P F = ±P, with − exactly when F and P
/// anticommute (symplectic product), so ⟨F P F⟩ = ±⟨P⟩ — exact, because
/// conjugating a Pauli observable by a Pauli error is again ±P.
void runExpectationFrameWorker(const ExpectationRunContext& run,
                               std::atomic<unsigned>& next,
                               std::vector<double>& values,
                               metrics::Registry* reg) {
  const metrics::ScopedSpan span(reg, "trajectory.worker");
  const unsigned n = run.circuit.numQubits();
  const std::unique_ptr<Engine> engine = makeEngine(run.engineName, n);
  engine->run(run.circuit);
  const auto& terms = run.observable.terms();
  std::vector<double> ideal;
  ideal.reserve(terms.size());
  for (const PauliObservable& single : run.singles)
    ideal.push_back(engine->expectation(single));
  for (;;) {
    const unsigned t = next.fetch_add(1, std::memory_order_relaxed);
    if (t >= run.trajectories) return;
    if (reg != nullptr) reg->add("trajectories.executed");
    Rng rng = run.root.split(run.firstTrajectory + t).rng();
    PauliFrame frame(n);
    for (std::size_t i = 0; i < run.circuit.gateCount(); ++i) {
      frame.propagateThrough(run.circuit.gate(i));
      for (const ChannelApplication& site : run.plan[i]) {
        const PauliChannel& channel = *site.channel;
        const PauliTerm& term = channel.terms()[channel.sample(rng)];
        frame.multiply(site.q0, term.paulis[0]);
        if (channel.arity() == 2) frame.multiply(site.q1, term.paulis[1]);
      }
    }
    double value = 0;
    for (std::size_t s = 0; s < terms.size(); ++s) {
      bool anticommute = false;
      for (const PauliFactor& f : terms[s].factors) {
        const bool px = f.op == Pauli::kX || f.op == Pauli::kY;
        const bool pz = f.op == Pauli::kZ || f.op == Pauli::kY;
        anticommute ^= (frame.x(f.qubit) && pz) != (frame.z(f.qubit) && px);
      }
      value += (anticommute ? -1.0 : 1.0) * terms[s].coefficient *
               run.readoutFactors[s] * ideal[s];
    }
    values[t] = value;
  }
}

ExpectationResult runExpectationChecked(const std::string& engineName,
                                        const QuantumCircuit& circuit,
                                        const NoiseModel& model,
                                        const PauliObservable& observable,
                                        const TrajectoryOptions& options) {
  model.validateForWidth(circuit.numQubits());
  observable.validateForWidth(circuit.numQubits());
  if (circuit.isDynamic()) {
    throw NoiseError(
        "trajectory expectation requires a static circuit: a dynamic "
        "circuit's <O> is conditioned on its classical outcome stream "
        "(mirrors the CLI's --observable restriction)");
  }

  ExpectationResult result;
  result.trajectories = options.trajectories;
  result.usedPauliFrameFastPath =
      !options.forceGeneric && StabilizerSimulator::supports(circuit);
  if (options.trajectories == 0) return result;

  const unsigned threads =
      std::min(options.threads == 0 ? ThreadPool::hardwareConcurrency()
                                    : options.threads,
               options.trajectories);
  result.threadsUsed = std::max(1u, threads);

  const NoisePlan plan = buildNoisePlan(model, circuit);
  std::vector<PauliObservable> singles;
  singles.reserve(observable.terms().size());
  for (const PauliString& term : observable.terms())
    singles.push_back(singleStringObservable(term));
  const std::vector<double> readoutFactors =
      readoutAttenuation(model, observable);
  const ExpectationRunContext run{engineName,
                                  circuit,
                                  plan,
                                  observable,
                                  singles,
                                  readoutFactors,
                                  options.trajectories,
                                  options.firstTrajectory,
                                  RngState{options.seed}};
  std::atomic<unsigned> next{0};
  // Indexed by trajectory: workers write disjoint slots, and the final
  // reduction walks the indices in order — the float sums are therefore
  // bit-identical for every thread count.
  std::vector<double> values(options.trajectories, 0.0);

  // Same per-worker telemetry scheme as runChecked (merge in index order).
  const bool record =
      options.metrics != nullptr && options.metrics->enabled();
  std::vector<std::unique_ptr<metrics::Registry>> workerRegs;
  if (record) {
    workerRegs.reserve(result.threadsUsed);
    for (unsigned w = 0; w < result.threadsUsed; ++w) {
      workerRegs.push_back(std::make_unique<metrics::Registry>());
      workerRegs.back()->enable(w + 1);
    }
  }

  const bool framePath = result.usedPauliFrameFastPath;
  WallTimer timer;
  {
    ThreadPool pool(result.threadsUsed);
    std::vector<std::future<void>> done;
    done.reserve(result.threadsUsed);
    for (unsigned w = 0; w < result.threadsUsed; ++w) {
      metrics::Registry* reg = record ? workerRegs[w].get() : nullptr;
      done.push_back(pool.submit([&run, &next, &values, reg, framePath] {
        if (framePath) {
          runExpectationFrameWorker(run, next, values, reg);
        } else {
          runExpectationGenericWorker(run, next, values, reg);
        }
      }));
    }
    std::exception_ptr failure;
    for (std::future<void>& future : done) {
      try {
        future.get();
      } catch (...) {
        if (!failure) failure = std::current_exception();
      }
    }
    if (failure) std::rethrow_exception(failure);
  }
  result.seconds = timer.seconds();
  if (record) {
    for (const auto& wr : workerRegs) options.metrics->merge(*wr);
    options.metrics->gaugeSet("trajectory.threads", result.threadsUsed);
    options.metrics->counterSet("trajectory.frame_fast_path",
                                framePath ? 1 : 0);
    options.metrics->timerAdd("trajectory.run", result.seconds);
  }

  double sum = 0;
  for (const double v : values) sum += v;
  result.mean = sum / options.trajectories;
  double sq = 0;
  for (const double v : values) sq += (v - result.mean) * (v - result.mean);
  result.stddev = options.trajectories > 1
                      ? std::sqrt(sq / (options.trajectories - 1))
                      : 0.0;
  result.standardError =
      result.stddev / std::sqrt(static_cast<double>(options.trajectories));
  return result;
}

}  // namespace

ExpectationResult runTrajectoryExpectation(const std::string& engineName,
                                           const QuantumCircuit& circuit,
                                           const NoiseModel& model,
                                           const PauliObservable& observable,
                                           const TrajectoryOptions& options) {
  {
    const std::unique_ptr<Engine> probe =
        makeEngine(engineName, circuit.numQubits());
    if (!probe->supports(circuit)) {
      throw NoiseError("engine '" + engineName +
                       "' does not support this circuit");
    }
  }
  return runExpectationChecked(engineName, circuit, model, observable,
                               options);
}

ExpectationResult runTrajectoryExpectation(Engine& prototype,
                                           const QuantumCircuit& circuit,
                                           const NoiseModel& model,
                                           const PauliObservable& observable,
                                           const TrajectoryOptions& options) {
  if (!prototype.supports(circuit)) {
    throw NoiseError("engine '" + prototype.name() +
                     "' does not support this circuit");
  }
  return runExpectationChecked(prototype.name(), circuit, model, observable,
                               options);
}

TrajectoryResult runTrajectories(const std::string& engineName,
                                 const QuantumCircuit& circuit,
                                 const NoiseModel& model,
                                 const TrajectoryOptions& options) {
  {
    // One probe instance answers supports() before any worker spawns. The
    // built-ins keep this cheap — in particular the statevector engine
    // allocates its 2^n array lazily, not at construction.
    const std::unique_ptr<Engine> probe =
        makeEngine(engineName, circuit.numQubits());
    if (!probe->supports(circuit)) {
      throw NoiseError("engine '" + engineName +
                       "' does not support this circuit");
    }
  }
  return runChecked(engineName, circuit, model, options);
}

TrajectoryResult runTrajectories(Engine& prototype,
                                 const QuantumCircuit& circuit,
                                 const NoiseModel& model,
                                 const TrajectoryOptions& options) {
  // The caller's instance answers supports() directly — no probe needed.
  if (!prototype.supports(circuit)) {
    throw NoiseError("engine '" + prototype.name() +
                     "' does not support this circuit");
  }
  return runChecked(prototype.name(), circuit, model, options);
}

}  // namespace sliq::noise
