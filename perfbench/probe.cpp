#include "probe.hpp"

#include <stdexcept>
#include <utility>

#include "support/timer.hpp"

namespace perfbench {

using sliq::Engine;
using sliq::GateKind;
using sliq::metrics::ScopedSpan;
using sliq::metrics::TraceEvent;

namespace {

// Every gate kind with its kernel span name, in the order the per-layer
// metrics list them.
const std::pair<GateKind, const char*> kKernelSpans[] = {
    {GateKind::kH, "core.kernels.h"},
    {GateKind::kT, "core.kernels.t"},
    {GateKind::kTdg, "core.kernels.tdg"},
    {GateKind::kS, "core.kernels.s"},
    {GateKind::kSdg, "core.kernels.sdg"},
    {GateKind::kX, "core.kernels.x"},
    {GateKind::kY, "core.kernels.y"},
    {GateKind::kZ, "core.kernels.z"},
    {GateKind::kCnot, "core.kernels.cx"},
    {GateKind::kCz, "core.kernels.cz"},
    {GateKind::kSwap, "core.kernels.swap"},
    {GateKind::kRx90, "core.kernels.rx90"},
    {GateKind::kRy90, "core.kernels.ry90"},
    {GateKind::kMeasure, "core.kernels.measure"},
    {GateKind::kReset, "core.kernels.reset"},
};

const char* kernelSpanName(GateKind kind) {
  for (const auto& [k, name] : kKernelSpans) {
    if (k == kind) return name;
  }
  throw std::logic_error("perfbench: unknown gate kind");
}

}  // namespace

Probe::Probe(bool traced) : traced_(traced) {
  if (traced_) registry_.enable(0);
}

std::unique_ptr<Engine> Probe::create(const std::string& engine,
                                      unsigned numQubits) {
  stale_ = true;
  std::unique_ptr<Engine> e;
  {
    const ScopedSpan span(registry_, "core.engine.create");
    e = sliq::makeEngine(engine, numQubits);
  }
  if (traced_) e->metrics().enable(1);
  return e;
}

void Probe::destroy(std::unique_ptr<Engine>& engine) {
  if (traced_) {
    const ScopedSpan span(registry_, "bench.collect");
    (void)engine->runMetrics();  // mirrors the BDD totals into its registry
    registry_.merge(engine->metrics());
  }
  const ScopedSpan span(registry_, "core.engine.destroy");
  engine.reset();
}

void Probe::applyGate(Engine& engine, const sliq::Gate& gate) {
  stale_ = true;
  const ScopedSpan span(registry_, kernelSpanName(gate.kind));
  engine.applyGate(gate);
}

void Probe::applyCircuit(Engine& engine, const sliq::QuantumCircuit& circuit) {
  if (traced_) circuitGateCounts_.push_back(circuit.gateCount());
  const ScopedSpan span(registry_, "bench.circuit");
  for (const sliq::Gate& g : circuit.gates()) applyGate(engine, g);
}

double Probe::probabilityOne(Engine& engine, unsigned qubit) {
  const ScopedSpan span(registry_, stale_ ? "core.measurement.cold"
                                          : "core.measurement.warm");
  stale_ = false;
  return engine.probabilityOne(qubit);
}

std::vector<std::vector<bool>> Probe::sampleShots(Engine& engine,
                                                  unsigned count,
                                                  sliq::Rng& rng) {
  stale_ = false;  // sampling fills the same measurement memo
  registry_.add("bench.shots", count);
  const ScopedSpan span(registry_, "core.sampling");
  return engine.sampleShots(count, rng);
}

double Probe::expectation(Engine& engine,
                          const sliq::PauliObservable& observable) {
  stale_ = true;  // X/Y factors rotate the state and back
  registry_.add("bench.terms", observable.terms().size());
  const ScopedSpan span(registry_, "core.observable");
  return engine.expectation(observable);
}

sliq::DynamicRun Probe::runDynamic(Engine& engine,
                                   const sliq::QuantumCircuit& circuit,
                                   sliq::Rng& rng) {
  stale_ = true;
  if (!traced_) return engine.runDynamic(circuit, rng);
  sliq::WallTimer sinceLastOp;
  sliq::DynamicInstrument instrument;
  instrument.afterOp = [&](Engine&, std::size_t opIndex) {
    registry_.timerAdd(kernelSpanName(circuit.gate(opIndex).kind),
                       sinceLastOp.seconds());
    sinceLastOp.reset();
  };
  sliq::DynamicRun run;
  {
    const ScopedSpan span(registry_, "core.dynamic");
    run = engine.runDynamic(circuit, rng, &instrument);
  }
  registry_.add("bench.measures", run.measures);
  return run;
}

PerLayer derivePerLayer(const Probe& probe, double passes) {
  PerLayer out;
  const sliq::metrics::Snapshot snap = probe.registry().snapshot();

  // Self time per span name from the main track's B/E events: a span's
  // duration minus the part its child spans cover.
  std::map<std::string, double> selfTime;
  struct Open {
    const std::string* name;
    std::int64_t start;
    std::int64_t children;
    std::size_t kernels;
  };
  std::vector<Open> stack;
  std::size_t circuitIndex = 0;
  const std::vector<std::size_t>& expected = probe.circuitGateCounts();
  const std::vector<TraceEvent> events = probe.registry().traceEvents();
  for (const TraceEvent& e : events) {
    if (e.track != 0 || e.phase == TraceEvent::Phase::kInstant) continue;
    if (e.phase == TraceEvent::Phase::kBegin) {
      if (e.name.rfind("core.kernels.", 0) == 0) {
        for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
          if (*it->name == "bench.circuit") {
            ++it->kernels;
            break;
          }
        }
      }
      stack.push_back(Open{&e.name, e.micros, 0, 0});
      continue;
    }
    if (stack.empty() || *stack.back().name != e.name) {
      throw std::logic_error("perfbench: unbalanced span " + e.name);
    }
    const Open open = stack.back();
    stack.pop_back();
    const std::int64_t dur = e.micros - open.start;
    selfTime[e.name] += static_cast<double>(dur - open.children) * 1e-6;
    if (!stack.empty()) stack.back().children += dur;
    if (e.name == "bench.circuit") {
      if (circuitIndex >= expected.size() ||
          expected[circuitIndex] != open.kernels) {
        out.gateCountsMatch = false;
      }
      ++circuitIndex;
    }
  }
  if (circuitIndex != expected.size()) out.gateCountsMatch = false;

  auto counter = [&](const char* name) -> double {
    auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0.0 : static_cast<double>(it->second);
  };
  auto gauge = [&](const char* name) -> double {
    auto it = snap.gauges.find(name);
    return it == snap.gauges.end() ? 0.0 : it->second;
  };
  auto timer = [&](const char* name) -> sliq::metrics::TimerValue {
    auto it = snap.timers.find(name);
    return it == snap.timers.end() ? sliq::metrics::TimerValue{} : it->second;
  };
  auto self = [&](const char* name) -> double {
    auto it = selfTime.find(name);
    return it == selfTime.end() ? 0.0 : it->second;
  };
  auto put = [&](const std::string& name, double value, const char* unit) {
    out.values[name] = {value, unit};
  };

  // Kernel spans are leaves on the main track, so their timer (spans plus
  // the per-op attribution inside runDynamic) is their self time.
  for (const auto& entry : kKernelSpans) {
    const sliq::metrics::TimerValue t = timer(entry.second);
    const std::string base = entry.second;
    put(base + ".s", t.seconds / passes, "s");
    put(base + ".count", static_cast<double>(t.count) / passes, "count");
  }

  const double lookups = counter("cache.lookups");
  const double gates = counter("gates.applied");
  put("bdd.created_nodes", counter("bdd.created_nodes") / passes, "count");
  put("bdd.created_per_gate",
      gates > 0 ? counter("bdd.created_nodes") / gates : 0.0, "nodes/gate");
  put("bdd.cache_lookups", lookups / passes, "count");
  put("bdd.cache_hit_ratio",
      lookups > 0 ? counter("cache.hits") / lookups : 0.0, "ratio");
  put("bdd.gc_runs", counter("gc.runs") / passes, "count");
  put("bdd.gc_reclaimed", counter("gc.reclaimed_nodes") / passes, "count");
  put("bdd.peak_live_nodes", gauge("nodes.peak_live"), "count");
  put("core.bitwidth_max", gauge("bitwidth.max"), "bits");

  put("core.measurement.cold_s", self("core.measurement.cold") / passes, "s");
  put("core.measurement.warm_s", self("core.measurement.warm") / passes, "s");
  put("core.measurement.memo_fill_s", timer("memo.fill").seconds / passes,
      "s");
  put("core.sampling.s", self("core.sampling") / passes, "s");
  put("core.sampling.shots", counter("bench.shots") / passes, "count");
  put("core.observable.s", self("core.observable") / passes, "s");
  put("core.observable.terms", counter("bench.terms") / passes, "count");
  put("core.engine.create_s", self("core.engine.create") / passes, "s");
  put("core.engine.destroy_s", self("core.engine.destroy") / passes, "s");
  put("core.engine.count",
      static_cast<double>(timer("core.engine.create").count) / passes,
      "count");
  put("core.dynamic.s", self("core.dynamic") / passes, "s");
  put("core.dynamic.measures", counter("bench.measures") / passes, "count");
  put("bench.unattributed_s",
      (self("bench.pass") + self("bench.op") + self("bench.circuit")) / passes,
      "s");
  return out;
}

}  // namespace perfbench
