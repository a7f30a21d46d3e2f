// Engine registry — one code path for selecting a simulation engine by name.
//
// The CLI (tools/sliqsim_main.cpp), the cross-engine integration test and
// the benchmark harness previously each hand-rolled an if/else ladder over
// the concrete simulator classes; they now all go through
// EngineRegistry::instance().create(name, numQubits), which returns the
// uniform Engine facade below. Built-in engines: exact (the paper's
// bit-sliced BDD simulator), qmdd (the DDSIM stand-in baseline), chp
// (stabilizer tableau, Clifford only) and statevector (dense array).
#pragma once

#include <complex>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "circuit/circuit.hpp"
#include "support/memuse.hpp"
#include "support/metrics.hpp"
#include "support/rng.hpp"

namespace sliq::serialize {
class Writer;  // support/serialize.hpp
class Reader;
}  // namespace sliq::serialize

namespace sliq {

class PauliObservable;  // core/observable.hpp
class Engine;

class UnknownEngineError : public std::runtime_error {
 public:
  explicit UnknownEngineError(const std::string& what)
      : std::runtime_error(what) {}
};

/// Result of one dynamic-circuit execution (Engine::runDynamic).
struct DynamicRun {
  /// Final classical register, bit c = creg[c] (the value classical
  /// conditions compared against mid-run).
  std::vector<bool> creg;
  /// Chronological recorded outcomes of every *executed* measure op (after
  /// any instrument readout transformation) — the per-shot classical
  /// outcome stream the differential harness compares across engines.
  std::vector<bool> outcomes;
  /// Executed op counts: the run consumed exactly `measures + resets`
  /// uniform deviates (one per collapse; conditioned ops whose condition
  /// failed consume none) — the cross-engine deviate contract, plus any
  /// deviates an instrument drew.
  unsigned measures = 0;
  unsigned resets = 0;

  /// Final register as an integer (bit c = creg[c]); 0 when no creg.
  std::uint64_t cregValue() const {
    std::uint64_t v = 0;
    for (std::size_t c = 0; c < creg.size(); ++c)
      if (creg[c]) v |= std::uint64_t{1} << c;
    return v;
  }
};

/// Optional per-op instrumentation for runDynamic(). The noise subsystem
/// injects sampled error gates and readout flips through these hooks so the
/// classical-control walk (condition evaluation, deviate order, creg
/// updates) lives in exactly one place. Hooks fire for *executed* ops only.
struct DynamicInstrument {
  /// Called after op `opIndex` executed (gate applied / outcome recorded).
  std::function<void(Engine&, std::size_t opIndex)> afterOp;
  /// Transforms a measured bit before it is recorded into the creg (e.g. a
  /// classical readout flip). Classical control sees the transformed bit.
  std::function<bool(bool outcome)> recordMeasure;
};

/// Uniform facade over one engine instance of a fixed qubit width,
/// prepared in |0...0⟩.
class Engine {
 public:
  virtual ~Engine() = default;

  /// Canonical (lower-case) registry name of this engine.
  virtual const std::string& name() const = 0;
  virtual unsigned numQubits() const = 0;

  /// True when the engine can simulate every gate of `c` at this width
  /// within its structural limits (gate set, memory feasibility). Callers
  /// that iterate all engines use this to skip inapplicable ones.
  virtual bool supports(const QuantumCircuit& c) const {
    (void)c;
    return true;
  }

  /// Prepares the engine state by applying a *static* circuit. Dynamic
  /// circuits (mid-circuit measure / reset / classical control) throw
  /// std::logic_error here — they carry classical state the static path
  /// cannot execute; use runDynamic().
  void run(const QuantumCircuit& circuit);

  /// Executes `circuit` op by op, owning the classical register: plain
  /// gates go through applyGate(), a conditioned op executes iff the
  /// register currently equals its condition value, kMeasure collapses via
  /// measure() and records the bit, kReset collapses via reset(). Every
  /// engine consumes `rng` identically — exactly one uniform deviate per
  /// executed measure/reset, in op order — so a shared seed yields
  /// bit-identical classical outcome streams wherever the engines agree on
  /// probabilities (they do, to ≥10 digits). Also valid for static
  /// circuits (it degenerates to run()). Afterwards the engine holds the
  /// post-execution state as a NEW well-defined reference state:
  /// probabilityOne / sampleShot(s) / expectation query it (the
  /// measure()-collapse restriction is re-armed, not left tripped).
  /// `instrument` (optional) receives per-executed-op callbacks — see
  /// DynamicInstrument.
  DynamicRun runDynamic(const QuantumCircuit& circuit, Rng& rng,
                        const DynamicInstrument* instrument = nullptr);

  /// Applies one unitary gate to the current state (the per-op primitive
  /// runDynamic drives; also useful for incremental state preparation).
  /// Throws for the non-unitary kinds (kMeasure/kReset) and, for engines
  /// with a restricted gate set, for unsupported gates.
  virtual void applyGate(const Gate& gate) = 0;

  /// Pr[qubit = 1]; throws std::invalid_argument for qubit >= numQubits().
  virtual double probabilityOne(unsigned qubit) = 0;
  /// Σ|α|² (1 up to engine-specific rounding while normalized).
  virtual double totalProbability() = 0;
  /// Collapses `qubit`; `random` in [0,1) picks the outcome, which is 1
  /// iff random < Pr[qubit = 1] — the convention shared by every engine,
  /// so identical deviates yield identical collapse cascades. Throws
  /// std::invalid_argument for an out-of-range qubit or deviate.
  virtual bool measure(unsigned qubit, double random) = 0;
  /// Resets `qubit` to |0⟩: a measure() collapse (consuming exactly the
  /// one deviate) followed by an X flip when the observed bit was 1.
  /// Returns the pre-reset measured bit. exact, qmdd and statevector use
  /// this body; chp overrides it with its native tableau reset (same
  /// semantics and deviate count, pinned across engines).
  virtual bool reset(unsigned qubit, double random) {
    const bool was = measure(qubit, random);
    if (was) applyGate(Gate{GateKind::kX, {qubit}, {}});
    return was;
  }
  /// One full-register shot (bit q = outcome of qubit q) from the state
  /// prepared by run(), leaving the engine state intact. Every built-in
  /// engine samples natively without collapsing (BDD/DD descent, tableau
  /// snapshot, statevector scan). Only valid before any measure() call —
  /// throws std::logic_error afterwards (the facade contract pins shot
  /// sampling to the state prepared by run(), keeping the sampled
  /// distribution identical across engines).
  virtual std::vector<bool> sampleShot(Rng& rng) = 0;
  /// `count` independent shots from the state prepared by run(). The base
  /// implementation loops over sampleShot(); engines override it with a
  /// batched sampler that amortizes per-state setup (weight traversal,
  /// cumulative distribution, ...) across the batch. Every override
  /// consumes deviates exactly like `count` sampleShot() calls, so a fixed
  /// seed yields the same shots either way. Same collapse restriction as
  /// sampleShot(). Contract pinned across engines: `count == 0` returns an
  /// empty vector WITHOUT consuming any deviate (so interleaving empty
  /// batches never perturbs a seeded run); overrides must preserve this.
  virtual std::vector<std::vector<bool>> sampleShots(unsigned count,
                                                     Rng& rng) {
    requireUncollapsed();
    std::vector<std::vector<bool>> shots;
    if (count == 0) return shots;
    shots.reserve(count);
    for (unsigned s = 0; s < count; ++s) shots.push_back(sampleShot(rng));
    return shots;
  }

  /// ⟨O⟩ = Σ_s c_s·⟨P_s⟩ of a weighted Pauli-string observable on the state
  /// prepared by run(), WITHOUT collapsing it: every native contraction is a
  /// read-only query that leaves the state untouched. Same restriction as
  /// sampleShot(): only valid before any measure() call — throws
  /// std::logic_error afterwards. Throws ObservableSpecError when the
  /// observable references a qubit >= numQubits(). Implemented by
  /// expectationImpl(), each engine's native contraction. Defined out of
  /// line in observable.cpp.
  double expectation(const PauliObservable& observable);

  /// Requests `threads` worker threads for single-circuit execution
  /// (0 = hardware concurrency). Engines without an intra-circuit parallel
  /// path ignore it — today only the dense statevector engine partitions
  /// its amplitude groups (StatevectorSimulator::setThreads); the result is
  /// bit-identical for every thread count. Distinct from the *inter*-
  /// trajectory parallelism of the noise runner, which runs one engine per
  /// worker. The facade resolves the auto sentinel here, so run reports
  /// always carry the actual worker count (resolvedExecutionThreads) and
  /// engines only ever see a concrete value.
  void setExecutionThreads(unsigned threads);
  /// The worker count execution actually uses: setExecutionThreads' value
  /// with 0 resolved to the detected hardware concurrency; 1 before any
  /// request. Surfaced as the `threads.resolved` gauge of every run report.
  unsigned resolvedExecutionThreads() const { return resolvedThreads_; }

  // ---- telemetry (DESIGN.md §11) ------------------------------------------
  /// This engine's metrics registry. Disabled (near-zero overhead) until
  /// the caller enables it; every facade phase and engine-native
  /// instrumentation site records into it. Recording never consumes RNG
  /// deviates or mutates engine state, so enabling it is observationally
  /// invisible to the simulation.
  metrics::Registry& metrics() { return metrics_; }
  /// The unified per-run telemetry record (sliq.run_report.v1): common
  /// fields (engine, qubits, resolved threads, RSS high-water, phase
  /// timings) plus the engine-native counters mirrored by fillRunReport —
  /// BDD manager stats, QMDD node/table sizes, tableau dims, statevector
  /// bytes. Idempotent: native totals are absolute mirrors, not deltas.
  metrics::RunReport runMetrics();

  // ---- state serialization (DESIGN.md §12) --------------------------------
  /// Serializes the engine's current state as one `sliq.state.v1` snapshot
  /// (envelope + engine-native payload) to `out`. Does not mutate the
  /// state; records a `state.save` span into metrics(). Throws
  /// serialize::SerializationError on stream failure.
  void saveState(std::ostream& out);
  /// Replaces the engine's state with the snapshot read from `in`. The
  /// envelope must match this engine (representation name, qubit count,
  /// format version <= supported) and pass its checksum; any violation —
  /// including truncation or byte corruption anywhere in the file — throws
  /// serialize::SerializationError naming the offending field and byte
  /// offset, leaving the previous state intact (payloads are parsed into
  /// locals and swapped in only on success). A successful load re-arms the
  /// sampling/expectation collapse restriction (the loaded state is a new
  /// reference state, exactly like runDynamic's post-state) and, under
  /// -DSLIQ_AUDIT, runs the full structural audit on the loaded state.
  /// Records a `state.load` span into metrics().
  void loadState(std::istream& in);

  // ---- cross-representation conversion (core/state_convert.cpp) ----------
  /// Converts this engine's current state INTO `dst`, which must be a
  /// freshly constructed engine of the same width (still in |0...0⟩ —
  /// conversion composes its route on top of dst's initial state). Routes,
  /// tried in order:
  ///   1. same representation — sliq.state.v1 snapshot round-trip;
  ///   2. stabilizer extraction — the tableau's preparation circuit
  ///      replayed gate by gate on dst (chp → exact/qmdd/statevector,
  ///      exact up to global phase);
  ///   3. dense hand-over — budgeted 2^n amplitude extraction re-encoded
  ///      into dst ({exact, qmdd, statevector} → {qmdd, statevector}).
  /// Afterwards dst holds the same state as a NEW reference state
  /// (sampling/expectation re-armed; probabilities agree to >= 10 digits —
  /// pinned by the differential harness). Pairs with no route (anything
  /// non-chp → chp or → exact) throw ConversionError (state_convert.hpp);
  /// an over-budget dense extraction throws MemoryBudgetError
  /// (support/memuse.hpp). Both are typed and catchable, so the dispatcher
  /// falls back instead of aborting. Records a `state.convert` span.
  void exportTo(Engine& dst,
                std::uint64_t denseBudgetBytes = kDefaultDenseBudgetBytes);

  /// The paper's 'error' column: true when the engine's normalization
  /// invariant has drifted beyond its engine-specific tolerance.
  virtual bool numericalError() { return false; }

  /// One-line engine-specific summary for after run() (k, r, Σ|α|², ...).
  virtual std::string runSummary() { return {}; }
  /// Up to `maxCount` nonzero amplitudes as (basis index, printable
  /// value); empty when the engine cannot enumerate amplitudes at this
  /// width.
  virtual std::vector<std::pair<std::uint64_t, std::string>>
  nonzeroAmplitudes(unsigned maxCount) {
    (void)maxCount;
    return {};
  }

  /// Deep structural audit of the engine's representation (DESIGN.md §10):
  /// throws audit::AuditError naming the violated structure and node on
  /// the first broken invariant, returns normally on a sound state. Under
  /// `-DSLIQ_AUDIT=ON` the facade calls this automatically after run(),
  /// and after every executed collapse inside runDynamic(). Tests can wrap
  /// single operations in any build via audit::withAudit.
  virtual void auditInvariants() = 0;

 protected:
  /// The SLIQ_AUDIT hook point: compiled to auditInvariants() only when
  /// the audit build option is on, so release binaries pay nothing.
  void maybeAudit() {
#ifdef SLIQ_AUDIT
    auditInvariants();
#endif
  }

  /// run() body for a static circuit, called after the facade has rejected
  /// dynamic circuits.
  virtual void runStatic(const QuantumCircuit& circuit) = 0;

  /// setExecutionThreads() body: receives the RESOLVED worker count (never
  /// the 0 auto sentinel). Engines without an intra-circuit parallel path
  /// keep the no-op default.
  virtual void setExecutionThreadsImpl(unsigned resolvedThreads) {
    (void)resolvedThreads;
  }

  /// runMetrics() body: mirror engine-native totals into metrics() with
  /// counterSet/gaugeSet (absolute values, so repeated calls do not
  /// double-count).
  virtual void fillRunReport() = 0;

  /// saveState() body: append the engine-native payload (everything inside
  /// the envelope) to `out`. The facade owns the envelope + checksum.
  virtual void saveStatePayload(serialize::Writer& out) = 0;
  /// loadState() body: parse the checksum-verified payload from `in` and
  /// swap the decoded state in. MUST parse into locals first so a throw
  /// leaves the engine untouched; the facade rejects envelope mismatches
  /// (representation/width/version/checksum) before calling this.
  virtual void loadStatePayload(serialize::Reader& in) = 0;

  /// expectation() body, called after the facade has checked the collapse
  /// restriction and the observable's width. genericExpectation
  /// (core/observable.hpp) is the engine-agnostic reference it must match.
  virtual double expectationImpl(const PauliObservable& observable) = 0;

  // ---- conversion hooks (exportTo's routes; core/state_convert.cpp) ------
  /// Fills `out` with a static circuit preparing the current state from
  /// |0...0⟩ (up to global phase) and returns true; false when the
  /// representation cannot extract one (every engine but chp).
  virtual bool extractPreparation(QuantumCircuit* out) {
    (void)out;
    return false;
  }
  /// Fills `out` with the dense 2^n amplitude array (bit q of the index =
  /// qubit q, physical normalization applied) and returns true; false when
  /// the representation cannot enumerate amplitudes (chp). Throws the
  /// typed MemoryBudgetError when 2^n complex doubles exceed `budgetBytes`.
  virtual bool extractDense(std::vector<std::complex<double>>* out,
                            std::uint64_t budgetBytes) {
    (void)out;
    (void)budgetBytes;
    return false;
  }
  /// Replaces the engine state with the dense array and returns true;
  /// false when the representation cannot ingest arbitrary complex
  /// amplitudes (chp — not a stabilizer state in general; exact — doubles
  /// carry no exact Z[√2] decomposition).
  virtual bool loadDense(const std::vector<std::complex<double>>& amplitudes) {
    (void)amplitudes;
    return false;
  }

  /// Wrapper measure() implementations call this; sampleShot() then
  /// refuses via requireUncollapsed().
  void noteCollapsed() { collapsed_ = true; }
  void requireUncollapsed() const {
    if (collapsed_) {
      throw std::logic_error(
          "sampleShot() after measure(): shot sampling is defined on the "
          "state prepared by run()/runDynamic(), not on a collapsed "
          "register");
    }
  }

 private:
  bool collapsed_ = false;
  unsigned resolvedThreads_ = 1;
  metrics::Registry metrics_;
};

class EngineRegistry {
 public:
  using Factory = std::function<std::unique_ptr<Engine>(unsigned numQubits)>;

  /// The process-wide registry, pre-populated with the built-in engines.
  static EngineRegistry& instance();

  /// Registers `factory` under `name` (matched case-insensitively).
  /// Re-registering an existing name replaces its description and factory.
  void add(const std::string& name, const std::string& description,
           Factory factory);

  bool contains(const std::string& name) const;
  /// Canonical engine names, sorted.
  std::vector<std::string> names() const;
  /// The registered name closest to `name` (case-insensitive Levenshtein
  /// distance <= 2), or "" when nothing is close enough — the "did you
  /// mean" half of the UnknownEngineError message. Distance ties break
  /// toward the alphabetically first name so the suggestion is stable.
  std::string closestName(const std::string& name) const;
  /// names() joined with ", " — for error and usage messages.
  std::string namesJoined() const;
  std::string describe(const std::string& name) const;

  /// Instantiates the engine registered under `name` (case-insensitive);
  /// throws UnknownEngineError listing the registered names otherwise.
  std::unique_ptr<Engine> create(const std::string& name,
                                 unsigned numQubits) const;

 private:
  struct Entry {
    std::string name;  // canonical lower-case
    std::string description;
    Factory factory;
  };
  const Entry* find(const std::string& name) const;
  [[noreturn]] void throwUnknown(const std::string& name) const;

  std::vector<Entry> entries_;
};

/// Shorthand for EngineRegistry::instance().create(name, numQubits).
std::unique_ptr<Engine> makeEngine(const std::string& name,
                                   unsigned numQubits);
/// Shorthand for EngineRegistry::instance().names().
std::vector<std::string> engineNames();

}  // namespace sliq
