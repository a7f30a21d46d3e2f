#include "core/engine_registry.hpp"

#include <algorithm>
#include <cmath>
#include <cctype>
#include <sstream>

#include "circuit/optimizer.hpp"
#include "core/measurement_context.hpp"
#include "core/observable.hpp"
#include "core/simulator.hpp"
#include "qmdd/qmdd_sim.hpp"
#include "stabilizer/stabilizer.hpp"
#include "statevector/statevector.hpp"
#include "support/memuse.hpp"
#include "support/serialize.hpp"
#include "support/thread_pool.hpp"

namespace sliq {

namespace {

std::string toLower(const std::string& s) {
  std::string out = s;
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

/// Unpacks a sampled basis-state word into bit q = outcome of qubit q.
std::vector<bool> bitsOf(std::uint64_t sample, unsigned numQubits) {
  std::vector<bool> bits(numQubits);
  for (unsigned q = 0; q < numQubits; ++q) bits[q] = (sample >> q) & 1;
  return bits;
}

// ---- exact: the paper's bit-sliced BDD engine ----------------------------

class ExactEngine final : public Engine {
 public:
  explicit ExactEngine(unsigned numQubits) : name_("exact"), sim_(numQubits) {
    // One registry serves the whole stack: the simulator forwards it to the
    // BDD manager (GC spans) and the MeasurementContext (memo telemetry).
    sim_.setMetrics(&metrics());
  }

  const std::string& name() const override { return name_; }
  unsigned numQubits() const override { return sim_.numQubits(); }
  void applyGate(const Gate& gate) override { sim_.applyGate(gate); }
  double probabilityOne(unsigned qubit) override {
    return sim_.probabilityOne(qubit);
  }
  double totalProbability() override { return sim_.totalProbability(); }
  bool measure(unsigned qubit, double random) override {
    noteCollapsed();
    return sim_.measure(qubit, random);
  }
  void saveStatePayload(serialize::Writer& out) override {
    sim_.saveStatePayload(out);
  }
  void loadStatePayload(serialize::Reader& in) override {
    sim_.loadStatePayload(in);
  }
  bool extractDense(std::vector<std::complex<double>>* out,
                    std::uint64_t budgetBytes) override {
    // Physical amplitudes (normalization correction applied); the typed
    // MemoryBudgetError propagates when 2^n is over budget.
    *out = sim_.statevector(budgetBytes);
    return true;
  }
  std::vector<bool> sampleShot(Rng& rng) override {
    requireUncollapsed();
    return sim_.sampleAll(rng);
  }
  std::vector<std::vector<bool>> sampleShots(unsigned count,
                                             Rng& rng) override {
    requireUncollapsed();
    // The persistent MeasurementContext makes the batch one exact weight
    // traversal plus count cheap descents.
    return sim_.sampleShots(count, rng);
  }
  double expectationImpl(const PauliObservable& observable) override {
    double sum = 0;
    for (const PauliString& term : observable.terms()) {
      // One read-only pair descent of the Eq. 12 hyper-function per term.
      sum += term.coefficient * sim_.measurementContext().expectation(term);
    }
    return sum;
  }
  bool numericalError() override {
    // Exact arithmetic: only the single final rounding of totalProbability
    // can move it off 1, never beyond this tolerance. Can't fire by
    // construction — kept as the invariant the benches assert.
    return std::abs(sim_.totalProbability() - 1.0) > 1e-3;
  }
  std::string runSummary() override {
    std::ostringstream os;
    os << "k = " << sim_.kScalar() << ", r = " << sim_.bitWidth()
       << ", Σ|α|² = " << sim_.totalProbability() << " (exact)";
    return os.str();
  }
  std::vector<std::pair<std::uint64_t, std::string>> nonzeroAmplitudes(
      unsigned maxCount) override {
    std::vector<std::pair<std::uint64_t, std::string>> out;
    if (sim_.numQubits() > 32) return out;
    const std::uint64_t states = std::uint64_t{1} << sim_.numQubits();
    for (std::uint64_t i = 0; i < states && out.size() < maxCount; ++i) {
      const AlgebraicComplex amp = sim_.amplitude(i);
      if (amp.isZero()) continue;
      out.emplace_back(i, amp.toString());
    }
    return out;
  }
  void auditInvariants() override { sim_.auditInvariants(); }

 protected:
  void fillRunReport() override {
    const bdd::ManagerStats& s = sim_.bddManager().stats();
    metrics::Registry& m = metrics();
    m.counterSet("gates.applied", sim_.stats().gatesApplied);
    m.counterSet("gc.runs", s.gcRuns);
    m.counterSet("gc.reclaimed_nodes", s.gcReclaimed);
    m.counterSet("cache.lookups", s.cacheLookups);
    m.counterSet("cache.hits", s.cacheHits);
    m.counterSet("cache.misses", s.cacheLookups - s.cacheHits);
    m.counterSet("bdd.created_nodes", s.createdNodes);
    m.counterSet("bdd.reorderings", s.reorderings);
    m.gaugeMax("nodes.peak_live", static_cast<double>(s.peakLiveNodes));
    m.gaugeSet("nodes.live",
               static_cast<double>(sim_.bddManager().liveNodeCount()));
    m.gaugeSet("bitwidth.max", sim_.stats().maxBitWidth);
    m.gaugeSet("state.bytes",
               static_cast<double>(sim_.bddManager().memoryBytes()));
  }

 private:
  void runStatic(const QuantumCircuit& circuit) override {
    // The exact engine applies gates verbatim (no fusion pass).
    metrics().add("gates.post_fusion", circuit.gateCount());
    const metrics::ScopedSpan span(metrics(), "gate_loop");
    sim_.run(circuit);
  }

  std::string name_;
  SliqSimulator sim_;
};

// ---- qmdd: the DDSIM stand-in baseline -----------------------------------

class QmddEngine final : public Engine {
 public:
  explicit QmddEngine(unsigned numQubits) : name_("qmdd"), sim_(numQubits) {
    sim_.setMetrics(&metrics());
  }

  const std::string& name() const override { return name_; }
  unsigned numQubits() const override { return sim_.numQubits(); }
  void applyGate(const Gate& gate) override { sim_.applyGate(gate); }
  double probabilityOne(unsigned qubit) override {
    return sim_.probabilityOne(qubit);
  }
  double totalProbability() override { return sim_.totalProbability(); }
  bool measure(unsigned qubit, double random) override {
    noteCollapsed();
    return sim_.measure(qubit, random);
  }
  void saveStatePayload(serialize::Writer& out) override {
    sim_.saveStatePayload(out);
  }
  void loadStatePayload(serialize::Reader& in) override {
    sim_.loadStatePayload(in);
  }
  bool extractDense(std::vector<std::complex<double>>* out,
                    std::uint64_t budgetBytes) override {
    *out = sim_.statevector(budgetBytes);
    return true;
  }
  bool loadDense(
      const std::vector<std::complex<double>>& amplitudes) override {
    sim_.loadDense(amplitudes);
    return true;
  }
  std::vector<bool> sampleShot(Rng& rng) override {
    requireUncollapsed();
    return bitsOf(sim_.sampleAll(rng), sim_.numQubits());
  }
  std::vector<std::vector<bool>> sampleShots(unsigned count,
                                             Rng& rng) override {
    requireUncollapsed();
    // Cached downward edge-weight products: one weight pass per batch.
    std::vector<std::vector<bool>> shots;
    shots.reserve(count);
    for (const std::uint64_t sample : sim_.sampleShots(count, rng))
      shots.push_back(bitsOf(sample, sim_.numQubits()));
    return shots;
  }
  double expectationImpl(const PauliObservable& observable) override {
    double sum = 0;
    for (const PauliString& term : observable.terms()) {
      // Per-qubit code for the DD pair contraction (0=I, 1=X, 2=Y, 3=Z).
      std::vector<std::uint8_t> codes(sim_.numQubits(), 0);
      for (const PauliFactor& f : term.factors)
        codes[f.qubit] = static_cast<std::uint8_t>(f.op);
      sum += term.coefficient * sim_.expectationPauli(codes);
    }
    return sum;
  }
  bool numericalError() override {
    return !sim_.isNormalized(1e-4);  // the paper's 'error' criterion
  }
  std::string runSummary() override {
    std::ostringstream os;
    os << "Σ|α|² = " << sim_.totalProbability();
    return os.str();
  }
  std::vector<std::pair<std::uint64_t, std::string>> nonzeroAmplitudes(
      unsigned maxCount) override {
    std::vector<std::pair<std::uint64_t, std::string>> out;
    if (sim_.numQubits() > 26) return out;  // 2^n enumeration
    const std::uint64_t states = std::uint64_t{1} << sim_.numQubits();
    for (std::uint64_t i = 0; i < states && out.size() < maxCount; ++i) {
      const qmdd::Complex amp = sim_.amplitude(i);
      if (std::norm(amp) < 1e-24) continue;
      std::ostringstream os;
      os << amp.real() << (amp.imag() < 0 ? " - " : " + ")
         << std::abs(amp.imag()) << "i";
      out.emplace_back(i, os.str());
    }
    return out;
  }
  void auditInvariants() override { sim_.auditInvariants(); }

 protected:
  void fillRunReport() override {
    const qmdd::QmddManager::CacheStats& s = sim_.cacheStats();
    metrics::Registry& m = metrics();
    m.counterSet("gc.runs", s.gcRuns);
    m.counterSet("cache.lookups", s.lookups);
    m.counterSet("cache.hits", s.hits);
    m.counterSet("cache.misses", s.lookups - s.hits);
    m.gaugeMax("nodes.peak_live", static_cast<double>(sim_.peakNodes()));
    m.gaugeSet("nodes.live", static_cast<double>(sim_.liveNodes()));
    m.gaugeSet("complex_table.entries",
               static_cast<double>(sim_.complexTableSize()));
    m.gaugeSet("state.bytes", static_cast<double>(sim_.memoryBytes()));
  }

 private:
  void runStatic(const QuantumCircuit& circuit) override {
    // Fused execution: one matrix-DD multiply per fused block instead of
    // one per gate (optimizer.hpp).
    const FusedCircuit fused = [&] {
      const metrics::ScopedSpan span(metrics(), "fusion");
      return circuit.fused();
    }();
    metrics().add("gates.post_fusion", fused.opCount());
    metrics().add("gates.applied", fused.opCount());
    const metrics::ScopedSpan span(metrics(), "gate_loop");
    sim_.runFused(fused);
  }

  std::string name_;
  qmdd::QmddSimulator sim_;
};

// ---- chp: stabilizer tableau (Clifford only) -----------------------------

class ChpEngine final : public Engine {
 public:
  explicit ChpEngine(unsigned numQubits) : name_("chp"), sim_(numQubits) {}

  const std::string& name() const override { return name_; }
  unsigned numQubits() const override { return sim_.numQubits(); }
  bool supports(const QuantumCircuit& c) const override {
    return StabilizerSimulator::supports(c);
  }
  void applyGate(const Gate& gate) override { sim_.applyGate(gate); }
  void saveStatePayload(serialize::Writer& out) override {
    sim_.saveStatePayload(out);
  }
  void loadStatePayload(serialize::Reader& in) override {
    sim_.loadStatePayload(in);
  }
  bool extractPreparation(QuantumCircuit* out) override {
    // Tableau disentangling (stabilizer.cpp): a {H, S, X, CNOT, CZ}
    // circuit preparing the state from |0...0⟩ — the chp → anything route.
    *out = sim_.extractPreparation();
    return true;
  }
  double probabilityOne(unsigned qubit) override {
    return sim_.probabilityOne(qubit);
  }
  double totalProbability() override {
    return 1.0;  // tableau states are exactly normalized
  }
  bool measure(unsigned qubit, double random) override {
    noteCollapsed();
    return sim_.measure(qubit, random);
  }
  bool reset(unsigned qubit, double random) override {
    // Tableau measurement + row phase flip (StabilizerSimulator::reset).
    noteCollapsed();
    return sim_.reset(qubit, random);
  }
  std::vector<bool> sampleShot(Rng& rng) override {
    requireUncollapsed();
    // Tableau snapshot reuse: measure every qubit on a scratch copy of the
    // run() tableau instead of replaying the circuit.
    return sim_.sampleAll(rng);
  }
  double expectationImpl(const PauliObservable& observable) override {
    double sum = 0;
    for (const PauliString& term : observable.terms()) {
      // Tableau commutation gives the exact ±1/0 per string directly.
      std::vector<bool> x(sim_.numQubits(), false);
      std::vector<bool> z(sim_.numQubits(), false);
      for (const PauliFactor& f : term.factors) {
        if (f.op == Pauli::kX || f.op == Pauli::kY) x[f.qubit] = true;
        if (f.op == Pauli::kZ || f.op == Pauli::kY) z[f.qubit] = true;
      }
      sum += term.coefficient * sim_.expectationPauli(x, z);
    }
    return sum;
  }
  std::string runSummary() override { return "stabilizer tableau"; }
  void auditInvariants() override { sim_.auditInvariants(); }

 protected:
  void fillRunReport() override {
    metrics::Registry& m = metrics();
    // Tableau dims: rows 0..n-1 destabilizers, n..2n-1 stabilizers, 2n
    // scratch — the representation is exactly this dense bit matrix.
    m.gaugeSet("tableau.rows", 2.0 * sim_.numQubits() + 1.0);
    m.gaugeSet("state.bytes", static_cast<double>(sim_.memoryBytes()));
  }

 private:
  void runStatic(const QuantumCircuit& circuit) override {
    // Clifford gates apply verbatim (no fusion pass for tableaus).
    metrics().add("gates.post_fusion", circuit.gateCount());
    metrics().add("gates.applied", circuit.gateCount());
    const metrics::ScopedSpan span(metrics(), "gate_loop");
    sim_.run(circuit);
  }

  std::string name_;
  StabilizerSimulator sim_;
};

// ---- statevector: dense array comparator ---------------------------------

class StatevectorEngine final : public Engine {
 public:
  // The 2^n array is allocated lazily on first use, so constructing this
  // engine is free at every width: supports() probes (CLI, trajectory
  // runner) never pay the allocation, and an infeasible width only throws
  // when actually *used*.
  explicit StatevectorEngine(unsigned numQubits)
      : name_("statevector"), n_(numQubits) {}

  const std::string& name() const override { return name_; }
  unsigned numQubits() const override { return n_; }
  bool supports(const QuantumCircuit& c) const override {
    return c.numQubits() <= kMaxQubits && n_ <= kMaxQubits;
  }
  void applyGate(const Gate& gate) override { sim().applyGate(gate); }
  // sim() forces the lazy allocation: loading INTO a never-used engine is
  // the checkpoint-restore path, and saving pays the allocation anyway.
  void saveStatePayload(serialize::Writer& out) override {
    sim().saveStatePayload(out);
  }
  void loadStatePayload(serialize::Reader& in) override {
    sim().loadStatePayload(in);
  }
  bool extractDense(std::vector<std::complex<double>>* out,
                    std::uint64_t budgetBytes) override {
    // The copy is the conversion's working set — hold it to the same
    // budget contract as the DD extractions.
    requireDenseBudget(n_, budgetBytes);
    *out = sim().state();
    return true;
  }
  bool loadDense(
      const std::vector<std::complex<double>>& amplitudes) override {
    sim().setState(amplitudes);
    return true;
  }
  double probabilityOne(unsigned qubit) override {
    return sim().probabilityOne(qubit);
  }
  double totalProbability() override { return sim().totalProbability(); }
  bool measure(unsigned qubit, double random) override {
    noteCollapsed();
    return sim().measure(qubit, random);
  }
  std::vector<bool> sampleShot(Rng& rng) override {
    requireUncollapsed();
    return bitsOf(sim().sampleAll(rng.uniform()), n_);
  }
  std::vector<std::vector<bool>> sampleShots(unsigned count,
                                             Rng& rng) override {
    requireUncollapsed();
    // One cumulative distribution + binary search per shot instead of a
    // full 2^n scan per shot.
    std::vector<std::vector<bool>> shots;
    shots.reserve(count);
    for (const std::uint64_t sample : sim().sampleShots(count, rng))
      shots.push_back(bitsOf(sample, n_));
    return shots;
  }
  double expectationImpl(const PauliObservable& observable) override {
    double sum = 0;
    for (const PauliString& term : observable.terms()) {
      std::uint64_t xmask = 0, ymask = 0, zmask = 0;
      for (const PauliFactor& f : term.factors) {
        const std::uint64_t bit = std::uint64_t{1} << f.qubit;
        if (f.op == Pauli::kX) xmask |= bit;
        if (f.op == Pauli::kY) ymask |= bit;
        if (f.op == Pauli::kZ) zmask |= bit;
      }
      sum += term.coefficient * sim().expectationPauli(xmask, ymask, zmask);
    }
    return sum;
  }
  bool numericalError() override {
    return std::abs(sim().totalProbability() - 1.0) > 1e-4;
  }
  std::string runSummary() override {
    std::ostringstream os;
    os << "Σ|α|² = " << sim().totalProbability();
    return os.str();
  }
  std::vector<std::pair<std::uint64_t, std::string>> nonzeroAmplitudes(
      unsigned maxCount) override {
    std::vector<std::pair<std::uint64_t, std::string>> out;
    if (n_ > kMaxQubits) return out;  // infeasible width, per the contract
    const std::uint64_t states = std::uint64_t{1} << n_;
    for (std::uint64_t i = 0; i < states && out.size() < maxCount; ++i) {
      const std::complex<double> amp = sim().amplitude(i);
      if (std::norm(amp) < 1e-24) continue;
      std::ostringstream os;
      os << amp.real() << (amp.imag() < 0 ? " - " : " + ")
         << std::abs(amp.imag()) << "i";
      out.emplace_back(i, os.str());
    }
    return out;
  }

  void auditInvariants() override {
    // The 2^n array is allocated lazily; before first use there is no
    // state to scan.
    if (sim_) sim_->auditInvariants();
  }

 protected:
  void setExecutionThreadsImpl(unsigned resolvedThreads) override {
    threads_ = resolvedThreads;
    if (sim_) sim_->setThreads(resolvedThreads);
  }

  void fillRunReport() override {
    metrics::Registry& m = metrics();
    // Report the dense array's footprint without forcing the lazy
    // allocation: an unused engine holds no state.
    const double bytes =
        sim_ ? static_cast<double>(sim_->state().size()) *
                   sizeof(StatevectorSimulator::Amplitude)
             : 0.0;
    m.gaugeSet("state.bytes", bytes);
  }

 private:
  void runStatic(const QuantumCircuit& circuit) override {
    // Fused execution: one amplitude-array traversal per fused block
    // instead of one per gate (optimizer.hpp).
    const FusedCircuit fused = [&] {
      const metrics::ScopedSpan span(metrics(), "fusion");
      return circuit.fused();
    }();
    metrics().add("gates.post_fusion", fused.opCount());
    metrics().add("gates.applied", fused.opCount());
    const metrics::ScopedSpan span(metrics(), "gate_loop");
    sim().runFused(fused);
  }

  // 2^26 amplitudes = 1 GiB of complex<double>; beyond that the dense
  // representation is infeasible, not merely slow.
  static constexpr unsigned kMaxQubits = 26;

  StatevectorSimulator& sim() {
    if (!sim_) {
      if (n_ > kMaxQubits) {
        throw std::runtime_error(
            "statevector engine supports at most " +
            std::to_string(kMaxQubits) + " qubits (got " +
            std::to_string(n_) + ")");
      }
      sim_ = std::make_unique<StatevectorSimulator>(n_);
      sim_->setThreads(threads_);
    }
    return *sim_;
  }

  std::string name_;
  unsigned n_;
  unsigned threads_ = 1;
  std::unique_ptr<StatevectorSimulator> sim_;
};

}  // namespace

// ---- facade: static vs dynamic execution ---------------------------------

void Engine::run(const QuantumCircuit& circuit) {
  if (circuit.isDynamic()) {
    throw std::logic_error(
        "run() cannot execute a dynamic circuit (mid-circuit "
        "measure/reset/classical control): use runDynamic(circuit, rng)");
  }
  metrics_.add("gates.pre_fusion", circuit.gateCount());
  {
    const metrics::ScopedSpan span(metrics_, "engine.run");
    runStatic(circuit);
  }
  metrics_.gaugeMax("rss.high_water_bytes",
                    static_cast<double>(peakRssBytes()));
  maybeAudit();  // SLIQ_AUDIT builds validate the representation post-run
}

// ---- facade: state serialization (DESIGN.md §12) -------------------------

void Engine::saveState(std::ostream& out) {
  const metrics::ScopedSpan span(metrics_, "state.save");
  serialize::Writer payload;
  saveStatePayload(payload);
  serialize::writeSnapshot(out, name(), numQubits(), payload.data());
}

void Engine::loadState(std::istream& in) {
  const metrics::ScopedSpan span(metrics_, "state.load");
  // Envelope + checksum validation happens entirely before the payload is
  // interpreted; representation/width mismatches are rejected here so the
  // payload hooks only ever see a snapshot of their own engine.
  serialize::Snapshot snap = serialize::readSnapshot(in);
  if (snap.info.representation != name()) {
    throw serialize::SerializationError(
        "snapshot holds a '" + snap.info.representation +
        "' state but this engine is '" + name() +
        "' (field 'representation')");
  }
  if (snap.info.numQubits != numQubits()) {
    throw serialize::SerializationError(
        "snapshot is " + std::to_string(snap.info.numQubits) +
        " qubit(s) wide but this engine is " + std::to_string(numQubits()) +
        " (field 'numQubits')");
  }
  serialize::Reader payload(snap.payload, snap.info.payloadOffset);
  loadStatePayload(payload);
  payload.requireExhausted(name().c_str());
  // The loaded state is a NEW reference state: re-arm the sampling /
  // expectation collapse restriction (MeasurementContext memos and batch
  // samplers re-key off the representation's own state version).
  collapsed_ = false;
  maybeAudit();  // SLIQ_AUDIT: validate every successfully loaded state
}

void Engine::setExecutionThreads(unsigned threads) {
  // Resolve the 0 auto sentinel HERE so every downstream consumer — the
  // engines, the run report's threads.resolved gauge, the bench
  // thread-scaling rows — sees the actual worker count, never the request.
  resolvedThreads_ =
      threads == 0 ? ThreadPool::hardwareConcurrency() : threads;
  setExecutionThreadsImpl(resolvedThreads_);
}

metrics::RunReport Engine::runMetrics() {
  metrics_.gaugeSet("threads.resolved",
                    static_cast<double>(resolvedThreads_));
  metrics_.gaugeMax("rss.high_water_bytes",
                    static_cast<double>(peakRssBytes()));
  fillRunReport();
  metrics::RunReport report;
  report.engine = name();
  report.qubits = numQubits();
  report.metrics = metrics_.snapshot();
  // Pin the cross-engine schema (tests/core/test_run_report.cpp): every
  // report carries the shared keys, zero-valued when an engine has no
  // native source for them — so consumers never branch on key presence.
  metrics::pinCommonSchemaKeys(report.metrics);
  return report;
}

DynamicRun Engine::runDynamic(const QuantumCircuit& circuit, Rng& rng,
                              const DynamicInstrument* instrument) {
  if (circuit.numQubits() != numQubits()) {
    throw std::invalid_argument("runDynamic: circuit width " +
                                std::to_string(circuit.numQubits()) +
                                " != engine width " +
                                std::to_string(numQubits()));
  }
  DynamicRun result;
  metrics_.add("gates.pre_fusion", circuit.gateCount());
  // Dynamic circuits never fuse (collapse points and classical conditions
  // need per-op execution), so the post-fusion count equals the op count.
  metrics_.add("gates.post_fusion", circuit.gateCount());
  const metrics::ScopedSpan span(metrics_, "engine.run_dynamic");
  std::uint64_t applied = 0;
  std::uint64_t creg = 0;
  for (std::size_t i = 0; i < circuit.gateCount(); ++i) {
    const Gate& op = circuit.gate(i);
    // The classical condition gates EXECUTION: a skipped op applies no
    // gate, consumes no deviate, and fires no instrument hook.
    if (op.conditioned && creg != op.conditionValue) continue;
    switch (op.kind) {
      case GateKind::kMeasure: {
        bool bit = measure(op.target(), rng.uniform());
        ++result.measures;
        if (instrument != nullptr && instrument->recordMeasure) {
          bit = instrument->recordMeasure(bit);
        }
        result.outcomes.push_back(bit);
        const std::uint64_t mask = std::uint64_t{1} << op.cbit;
        creg = bit ? (creg | mask) : (creg & ~mask);
        maybeAudit();  // SLIQ_AUDIT: validate after every collapse
        break;
      }
      case GateKind::kReset:
        reset(op.target(), rng.uniform());
        ++result.resets;
        maybeAudit();  // SLIQ_AUDIT: validate after every collapse
        break;
      default:
        applyGate(op);
        ++applied;
        break;
    }
    if (instrument != nullptr && instrument->afterOp) {
      instrument->afterOp(*this, i);
    }
  }
  metrics_.add("gates.applied", applied);
  metrics_.add("dynamic.measures", result.measures);
  metrics_.add("dynamic.resets", result.resets);
  metrics_.gaugeMax("rss.high_water_bytes",
                    static_cast<double>(peakRssBytes()));
  result.creg.assign(circuit.numClbits(), false);
  for (unsigned c = 0; c < circuit.numClbits(); ++c)
    result.creg[c] = (creg >> c) & 1;
  // The post-execution state is the new reference state: re-arm (rather
  // than leave tripped) the ad-hoc-measure() collapse restriction so
  // sampleShot/expectation answer questions about it.
  collapsed_ = false;
  maybeAudit();  // SLIQ_AUDIT: validate the post-execution reference state
  return result;
}

// ---- registry ------------------------------------------------------------

EngineRegistry& EngineRegistry::instance() {
  static EngineRegistry* registry = [] {
    auto* r = new EngineRegistry;
    r->add("exact", "bit-sliced BDD engine (the paper's contribution)",
           [](unsigned n) { return std::make_unique<ExactEngine>(n); });
    r->add("qmdd", "QMDD baseline, our DDSIM reimplementation",
           [](unsigned n) { return std::make_unique<QmddEngine>(n); });
    r->add("chp", "CHP stabilizer tableau (Clifford circuits only)",
           [](unsigned n) { return std::make_unique<ChpEngine>(n); });
    r->add("statevector", "dense 2^n array simulator (ground truth, n <= 26)",
           [](unsigned n) { return std::make_unique<StatevectorEngine>(n); });
    return r;
  }();
  return *registry;
}

void EngineRegistry::add(const std::string& name,
                         const std::string& description, Factory factory) {
  const std::string key = toLower(name);
  for (Entry& e : entries_) {
    if (e.name == key) {
      e.description = description;
      e.factory = std::move(factory);
      return;
    }
  }
  entries_.push_back(Entry{key, description, std::move(factory)});
}

const EngineRegistry::Entry* EngineRegistry::find(
    const std::string& name) const {
  const std::string key = toLower(name);
  for (const Entry& e : entries_) {
    if (e.name == key) return &e;
  }
  return nullptr;
}

bool EngineRegistry::contains(const std::string& name) const {
  return find(name) != nullptr;
}

std::vector<std::string> EngineRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const Entry& e : entries_) out.push_back(e.name);
  std::sort(out.begin(), out.end());
  return out;
}

std::string EngineRegistry::namesJoined() const {
  std::string out;
  for (const std::string& n : names()) {
    if (!out.empty()) out += ", ";
    out += n;
  }
  return out;
}

namespace {

// Plain two-row Levenshtein distance; the operand strings are engine names,
// so quadratic cost is irrelevant.
std::size_t editDistance(const std::string& a, const std::string& b) {
  std::vector<std::size_t> prev(b.size() + 1);
  std::vector<std::size_t> cur(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) prev[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    cur[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t subst = prev[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
      cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, subst});
    }
    std::swap(prev, cur);
  }
  return prev[b.size()];
}

}  // namespace

std::string EngineRegistry::closestName(const std::string& name) const {
  const std::string key = toLower(name);
  std::string best;
  std::size_t bestDistance = 3;  // suggest only within distance 2
  for (const std::string& candidate : names()) {
    const std::size_t d = editDistance(key, candidate);
    if (d < bestDistance) {
      bestDistance = d;
      best = candidate;
    }
  }
  return best;
}

void EngineRegistry::throwUnknown(const std::string& name) const {
  std::string message =
      "unknown engine '" + name + "' (registered: " + namesJoined() + ")";
  const std::string suggestion = closestName(name);
  if (!suggestion.empty()) {
    message += " — did you mean '" + suggestion + "'?";
  }
  throw UnknownEngineError(message);
}

std::string EngineRegistry::describe(const std::string& name) const {
  const Entry* e = find(name);
  if (e == nullptr) throwUnknown(name);
  return e->description;
}

std::unique_ptr<Engine> EngineRegistry::create(const std::string& name,
                                               unsigned numQubits) const {
  const Entry* e = find(name);
  if (e == nullptr) throwUnknown(name);
  return e->factory(numQubits);
}

std::unique_ptr<Engine> makeEngine(const std::string& name,
                                   unsigned numQubits) {
  return EngineRegistry::instance().create(name, numQubits);
}

std::vector<std::string> engineNames() {
  return EngineRegistry::instance().names();
}

}  // namespace sliq
