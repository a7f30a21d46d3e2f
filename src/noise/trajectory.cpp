#include "noise/trajectory.hpp"

#include <algorithm>
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

/// Samples one term per site of `sites`, in order, and hands each of its
/// one or two Paulis (identities included) to apply(qubit, pauli) — the
/// one deviate-per-site draw every execution path shares, so the frame
/// path and the walker consume a substream identically.
template <typename Apply>
void drawPaulis(const std::vector<ChannelApplication>& sites, Rng& rng,
                Apply&& apply) {
  for (const ChannelApplication& site : sites) {
    const PauliChannel& channel = *site.channel;
    const PauliTerm& term = channel.terms()[channel.sample(rng)];
    apply(site.q0, term.paulis[0]);
    if (channel.arity() == 2) apply(site.q1, term.paulis[1]);
  }
}

}  // namespace

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
      // circuits — see takesFramePath).
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
};

/// One worker's share of a run: it claims trajectory indices from the
/// shared counter until none are left, and records telemetry into its own
/// registry (null when the run records nothing) on trace track index+1.
class Worker {
 public:
  Worker(unsigned index, metrics::Registry* reg, std::atomic<unsigned>& next,
         const TrajectoryOptions& options)
      : index_(index), reg_(reg), next_(next), options_(options) {}

  unsigned index() const { return index_; }

  /// Runs body(t, rng) for every trajectory t this worker claims. `rng` is
  /// substream split(firstTrajectory + t) — the trajectory's only deviates
  /// — so shard runs covering disjoint [offset, offset+count) ranges
  /// reproduce the monolithic run slice for slice.
  template <typename Body>
  void forEachTrajectory(Body&& body) {
    const RngState root{options_.seed};
    for (;;) {
      const unsigned t = next_.fetch_add(1, std::memory_order_relaxed);
      if (t >= options_.trajectories) return;
      if (reg_ != nullptr) reg_->add("trajectories.executed");
      Rng rng = root.split(options_.firstTrajectory + t).rng();
      body(t, rng);
    }
  }

  /// A fresh engine whose telemetry records on this worker's track when
  /// the run records.
  std::unique_ptr<Engine> newEngine(const std::string& name,
                                    unsigned numQubits) const {
    std::unique_ptr<Engine> engine = makeEngine(name, numQubits);
    if (reg_ != nullptr) engine->metrics().enable(index_ + 1);
    return engine;
  }

  /// Folds `engine`'s run report (its native totals mirrored by
  /// runMetrics) into this worker's registry: counters sum across engines.
  void absorb(Engine& engine) const {
    if (reg_ == nullptr) return;
    engine.runMetrics();
    reg_->merge(engine.metrics());
  }

 private:
  unsigned index_;
  metrics::Registry* reg_;
  std::atomic<unsigned>& next_;
  const TrajectoryOptions& options_;
};

unsigned workerCount(const TrajectoryOptions& options) {
  const unsigned requested = options.threads == 0
                                 ? ThreadPool::hardwareConcurrency()
                                 : options.threads;
  return std::max(1u, std::min(requested, options.trajectories));
}

/// The pool driver both runners share: runs work(worker) once per worker
/// on `threads` pool threads, joins them (re-throwing the first failure
/// once every worker has stopped), then merges the per-worker registries
/// into options.metrics in worker-index order — the merged totals are
/// deterministic even though the per-worker split is not. Returns the wall
/// time of the fan-out.
template <typename Work>
double runWorkers(unsigned threads, bool framePath,
                  const TrajectoryOptions& options, Work&& work) {
  const bool record =
      options.metrics != nullptr && options.metrics->enabled();
  std::vector<std::unique_ptr<metrics::Registry>> workerRegs;
  if (record) {
    workerRegs.reserve(threads);
    for (unsigned w = 0; w < threads; ++w) {
      workerRegs.push_back(std::make_unique<metrics::Registry>());
      workerRegs.back()->enable(w + 1);
    }
  }
  std::atomic<unsigned> next{0};
  WallTimer timer;
  {
    // The pool is declared after `next`/`workerRegs` so that unwinding on
    // an exception joins the workers before their shared state dies.
    ThreadPool pool(threads);
    std::vector<std::future<void>> done;
    done.reserve(threads);
    for (unsigned w = 0; w < threads; ++w) {
      metrics::Registry* reg = record ? workerRegs[w].get() : nullptr;
      done.push_back(pool.submit([&work, &next, &options, w, reg] {
        const metrics::ScopedSpan span(reg, "trajectory.worker");
        Worker worker(w, reg, next, options);
        work(worker);
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
  const double seconds = timer.seconds();
  if (record) {
    for (const auto& wr : workerRegs) options.metrics->merge(*wr);
    options.metrics->gaugeSet("trajectory.threads", threads);
    options.metrics->counterSet("trajectory.frame_fast_path",
                                framePath ? 1 : 0);
    options.metrics->timerAdd("trajectory.run", seconds);
  }
  return seconds;
}

/// Pauli insertions keep a Clifford circuit Clifford, so the frame path is
/// valid exactly when the ideal circuit is stabilizer-simulable AND static
/// (a classical condition decides mid-run whether a Clifford gate exists —
/// no frame conjugation order is correct for both branches). The choice
/// depends only on (circuit, options) — never on the thread count.
bool takesFramePath(const QuantumCircuit& circuit,
                    const TrajectoryOptions& options) {
  return !circuit.isDynamic() && !options.forceGeneric &&
         StabilizerSimulator::supports(circuit);
}

/// The generic walker every non-frame trajectory runs: Engine::runDynamic
/// executes the circuit op by op and owns the classical control; after
/// each executed op the instrument draws plan[i]'s Paulis and applies the
/// non-identity ones, and a `measure` rule flips each recorded mid-circuit
/// bit (one deviate per executed measure — classical control downstream
/// sees the flipped record). A static circuit draws only its plan sites,
/// in op order, so the caller's shot and readout deviates follow them.
DynamicRun walk(Engine& engine, const RunContext& run, Rng& rng) {
  DynamicInstrument instrument;
  instrument.afterOp = [&run, &rng](Engine& e, std::size_t i) {
    drawPaulis(run.plan[i], rng, [&e](unsigned q, Pauli p) {
      if (p != Pauli::kI) e.applyGate(Gate{pauliGateKind(p), {q}, {}});
    });
  };
  if (run.model.hasReadoutError()) {
    const double flip = run.model.readoutFlip();
    instrument.recordMeasure = [&rng, flip](bool outcome) {
      return rng.uniform() < flip ? !outcome : outcome;
    };
  }
  return engine.runDynamic(run.circuit, rng, &instrument);
}

/// The frame path's per-trajectory draw: the sampled errors conjugated to
/// the end of the circuit, visiting the plan sites exactly like walk().
PauliFrame sampleFrame(const RunContext& run, Rng& rng) {
  PauliFrame frame(run.circuit.numQubits());
  for (std::size_t i = 0; i < run.circuit.gateCount(); ++i) {
    frame.propagateThrough(run.circuit.gate(i));
    drawPaulis(run.plan[i], rng,
               [&frame](unsigned q, Pauli p) { frame.multiply(q, p); });
  }
  return frame;
}

/// Counts, Pauli-frame fast path: the ideal circuit runs once per worker;
/// each trajectory XORs its frame's X mask into an ideal shot.
void countFramed(const RunContext& run, Worker& worker, Counts& local) {
  const unsigned n = run.circuit.numQubits();
  const std::unique_ptr<Engine> engine = worker.newEngine(run.engineName, n);
  engine->run(run.circuit);
  worker.forEachTrajectory([&](unsigned, Rng& rng) {
    const PauliFrame frame = sampleFrame(run, rng);
    std::vector<bool> bits = engine->sampleShot(rng);
    for (unsigned q = 0; q < n; ++q) {
      if (frame.x(q)) bits[q] = !bits[q];
    }
    applyReadout(bits, run.model, rng);
    ++local[bitsToString(bits)];
  });
  worker.absorb(*engine);
}

/// Counts, generic path: one fresh engine walks each trajectory. A dynamic
/// circuit's output is its final classical register; a static one draws
/// one full-register shot, then its readout flips.
void countWalked(const RunContext& run, Worker& worker, Counts& local) {
  const unsigned n = run.circuit.numQubits();
  const bool dynamic = run.circuit.isDynamic();
  worker.forEachTrajectory([&](unsigned, Rng& rng) {
    const std::unique_ptr<Engine> engine = worker.newEngine(run.engineName, n);
    const DynamicRun walked = walk(*engine, run, rng);
    if (dynamic) {
      ++local[bitsToString(walked.creg)];
    } else {
      std::vector<bool> bits = engine->sampleShot(rng);
      applyReadout(bits, run.model, rng);
      ++local[bitsToString(bits)];
    }
    worker.absorb(*engine);
  });
}

}  // namespace

// ---- trajectory expectations ----------------------------------------------

namespace {

/// An observable's strings prepared once per run for the workers.
struct WeightedStrings {
  WeightedStrings(const NoiseModel& model, const PauliObservable& observable)
      : terms(observable.terms()) {
    singles.reserve(terms.size());
    weights.reserve(terms.size());
    for (const PauliString& term : terms) {
      singles.push_back(singleStringObservable(term));
      weights.push_back(
          term.coefficient *
          (model.hasReadoutError()
               ? std::pow(1.0 - 2.0 * model.readoutFlip(),
                          static_cast<double>(term.factors.size()))
               : 1.0));
    }
  }

  const std::vector<PauliString>& terms;
  /// terms[s] as a standalone 1.0-coefficient observable, so workers never
  /// re-normalize factor lists.
  std::vector<PauliObservable> singles;
  /// c_s·(1−2p)^|support|: the coefficient times the closed form of the
  /// symmetric readout flip on a parity observable, applied analytically so
  /// no readout deviates are drawn.
  std::vector<double> weights;
};

/// Expectations, Pauli-frame fast path: every string's ideal ⟨P⟩ is
/// computed once per worker; a trajectory then only needs its frame's
/// sign per string: F P F = ±P, with − exactly when F and P anticommute
/// (symplectic product) — exact, because conjugating a Pauli observable by
/// a Pauli error is again ±P.
void expectFramed(const RunContext& run, const WeightedStrings& strings,
                  Worker& worker, std::vector<double>& values) {
  const std::unique_ptr<Engine> engine =
      worker.newEngine(run.engineName, run.circuit.numQubits());
  engine->run(run.circuit);
  std::vector<double> ideal;
  ideal.reserve(strings.singles.size());
  for (std::size_t s = 0; s < strings.singles.size(); ++s)
    ideal.push_back(strings.weights[s] *
                    engine->expectation(strings.singles[s]));
  worker.forEachTrajectory([&](unsigned t, Rng& rng) {
    const PauliFrame frame = sampleFrame(run, rng);
    double value = 0;
    for (std::size_t s = 0; s < strings.terms.size(); ++s) {
      bool anticommute = false;
      for (const PauliFactor& f : strings.terms[s].factors) {
        const bool px = f.op == Pauli::kX || f.op == Pauli::kY;
        const bool pz = f.op == Pauli::kZ || f.op == Pauli::kY;
        anticommute ^= (frame.x(f.qubit) && pz) != (frame.z(f.qubit) && px);
      }
      value += anticommute ? -ideal[s] : ideal[s];
    }
    values[t] = value;
  });
  worker.absorb(*engine);
}

/// Expectations, generic path: one fresh engine walks each trajectory and
/// answers its (native or fallback) expectation exactly.
void expectWalked(const RunContext& run, const WeightedStrings& strings,
                  Worker& worker, std::vector<double>& values) {
  worker.forEachTrajectory([&](unsigned t, Rng& rng) {
    const std::unique_ptr<Engine> engine =
        worker.newEngine(run.engineName, run.circuit.numQubits());
    walk(*engine, run, rng);
    double value = 0;
    for (std::size_t s = 0; s < strings.singles.size(); ++s)
      value += strings.weights[s] * engine->expectation(strings.singles[s]);
    values[t] = value;
    worker.absorb(*engine);
  });
}

void requireSupported(const Engine& engine, const QuantumCircuit& circuit) {
  if (!engine.supports(circuit)) {
    throw NoiseError("engine '" + engine.name() +
                     "' does not support this circuit");
  }
}

}  // namespace

// The name overloads build one probe instance, which answers supports()
// and names the engine every worker instantiates. The built-ins keep it
// cheap — in particular the statevector engine allocates its 2^n array
// lazily, not at construction.
TrajectoryResult runTrajectories(const std::string& engineName,
                                 const QuantumCircuit& circuit,
                                 const NoiseModel& model,
                                 const TrajectoryOptions& options) {
  const std::unique_ptr<Engine> probe =
      makeEngine(engineName, circuit.numQubits());
  return runTrajectories(*probe, circuit, model, options);
}

TrajectoryResult runTrajectories(Engine& prototype,
                                 const QuantumCircuit& circuit,
                                 const NoiseModel& model,
                                 const TrajectoryOptions& options) {
  requireSupported(prototype, circuit);
  model.validateForWidth(circuit.numQubits());

  TrajectoryResult result;
  result.trajectories = options.trajectories;
  result.usedPauliFrameFastPath = takesFramePath(circuit, options);
  if (options.trajectories == 0) return result;
  result.threadsUsed = workerCount(options);

  const NoisePlan plan = buildNoisePlan(model, circuit);
  const RunContext run{prototype.name(), circuit, model, plan};
  const bool framePath = result.usedPauliFrameFastPath;
  std::vector<Counts> locals(result.threadsUsed);
  result.seconds =
      runWorkers(result.threadsUsed, framePath, options, [&](Worker& worker) {
        Counts& local = locals[worker.index()];
        if (framePath) {
          countFramed(run, worker, local);
        } else {
          countWalked(run, worker, local);
        }
      });
  for (const Counts& local : locals) {
    for (const auto& [key, count] : local) result.counts[key] += count;
  }
  return result;
}

ExpectationResult runTrajectoryExpectation(const std::string& engineName,
                                           const QuantumCircuit& circuit,
                                           const NoiseModel& model,
                                           const PauliObservable& observable,
                                           const TrajectoryOptions& options) {
  const std::unique_ptr<Engine> probe =
      makeEngine(engineName, circuit.numQubits());
  return runTrajectoryExpectation(*probe, circuit, model, observable, options);
}

ExpectationResult runTrajectoryExpectation(Engine& prototype,
                                           const QuantumCircuit& circuit,
                                           const NoiseModel& model,
                                           const PauliObservable& observable,
                                           const TrajectoryOptions& options) {
  requireSupported(prototype, circuit);
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
  result.usedPauliFrameFastPath = takesFramePath(circuit, options);
  if (options.trajectories == 0) return result;
  result.threadsUsed = workerCount(options);

  const NoisePlan plan = buildNoisePlan(model, circuit);
  const RunContext run{prototype.name(), circuit, model, plan};
  const WeightedStrings strings(model, observable);
  const bool framePath = result.usedPauliFrameFastPath;
  // Indexed by trajectory: workers write disjoint slots, and the final
  // reduction walks the indices in order — the float sums are therefore
  // bit-identical for every thread count.
  std::vector<double> values(options.trajectories, 0.0);
  result.seconds =
      runWorkers(result.threadsUsed, framePath, options, [&](Worker& worker) {
        if (framePath) {
          expectFramed(run, strings, worker, values);
        } else {
          expectWalked(run, strings, worker, values);
        }
      });

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

}  // namespace sliq::noise
