// The sliq.run_report.v1 schema pin (DESIGN.md §11): every engine's
// 16-qubit run report carries the common counter/gauge/phase keys — the
// acceptance contract of `sliqsim --stats=json` — plus each engine's
// native totals. Also pins the resolved-threads reporting (the 0 = auto
// sentinel never leaks into a report) and runMetrics() idempotence.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "core/engine_registry.hpp"
#include "support/metrics.hpp"

namespace sliq {
namespace {

constexpr unsigned kQubits = 16;

/// 16-qubit Clifford circuit every engine supports (chp included), with
/// enough structure that gate counters, caches and the BDD all move.
QuantumCircuit benchCircuit() {
  QuantumCircuit c(kQubits);
  c.h(0);
  for (unsigned q = 0; q + 1 < kQubits; ++q) c.cx(q, q + 1);
  for (unsigned q = 0; q < kQubits; q += 2) c.s(q);
  for (unsigned q = 0; q + 4 < kQubits; q += 4) c.cz(q, q + 4);
  return c;
}

metrics::RunReport reportFor(const std::string& engineName) {
  const std::unique_ptr<Engine> engine = makeEngine(engineName, kQubits);
  engine->metrics().enable();
  engine->run(benchCircuit());
  return engine->runMetrics();
}

TEST(RunReportSchema, CommonKeysPresentOnEveryEngine) {
  for (const std::string& name : engineNames()) {
    SCOPED_TRACE(name);
    const metrics::RunReport report = reportFor(name);
    EXPECT_EQ(report.engine, name);
    EXPECT_EQ(report.qubits, kQubits);

    // Counters: pre/post-fusion gate counts, applied gates, GC runs,
    // cache traffic — present on every engine (zero where inapplicable).
    const auto& counters = report.metrics.counters;
    ASSERT_TRUE(counters.count("gates.pre_fusion"));
    ASSERT_TRUE(counters.count("gates.post_fusion"));
    ASSERT_TRUE(counters.count("gates.applied"));
    ASSERT_TRUE(counters.count("gc.runs"));
    ASSERT_TRUE(counters.count("cache.lookups"));
    ASSERT_TRUE(counters.count("cache.hits"));
    EXPECT_EQ(counters.at("gates.pre_fusion"), benchCircuit().gateCount());
    EXPECT_GT(counters.at("gates.post_fusion"), 0u);
    EXPECT_GT(counters.at("gates.applied"), 0u);
    EXPECT_LE(counters.at("cache.hits"), counters.at("cache.lookups"));

    // Gauges: resolved worker count, RSS high-water, state size.
    const auto& gauges = report.metrics.gauges;
    ASSERT_TRUE(gauges.count("threads.resolved"));
    ASSERT_TRUE(gauges.count("rss.high_water_bytes"));
    ASSERT_TRUE(gauges.count("state.bytes"));
    EXPECT_GE(gauges.at("threads.resolved"), 1.0);
    EXPECT_GT(gauges.at("rss.high_water_bytes"), 0.0);
    EXPECT_GT(gauges.at("state.bytes"), 0.0);

    // Phases: the facade times every run and gate loop.
    const auto& phases = report.metrics.timers;
    ASSERT_TRUE(phases.count("engine.run"));
    ASSERT_TRUE(phases.count("gate_loop"));
    EXPECT_EQ(phases.at("engine.run").count, 1u);
    EXPECT_GE(phases.at("engine.run").seconds,
              phases.at("gate_loop").seconds);

    // The serialized record self-identifies.
    const std::string json = report.toJson();
    EXPECT_NE(json.find("\"schema\":\"sliq.run_report.v1\""),
              std::string::npos);
    EXPECT_NE(json.find("\"engine\":\"" + name + "\""), std::string::npos);
  }
}

TEST(RunReportSchema, EngineNativeTotalsAreMirrored) {
  {
    const metrics::RunReport r = reportFor("exact");
    EXPECT_GT(r.metrics.gauges.at("nodes.peak_live"), 0.0);
    EXPECT_GT(r.metrics.counters.at("bdd.created_nodes"), 0u);
    EXPECT_GT(r.metrics.counters.at("cache.lookups"), 0u);
  }
  {
    const metrics::RunReport r = reportFor("qmdd");
    EXPECT_GT(r.metrics.gauges.at("nodes.peak_live"), 0.0);
    EXPECT_GT(r.metrics.gauges.at("complex_table.entries"), 0.0);
  }
  {
    const metrics::RunReport r = reportFor("chp");
    EXPECT_EQ(r.metrics.gauges.at("tableau.rows"), 2.0 * kQubits + 1.0);
  }
  {
    const metrics::RunReport r = reportFor("statevector");
    // A dense 16-qubit register is at least 2^16 complex doubles.
    EXPECT_GE(r.metrics.gauges.at("state.bytes"), 65536.0 * 16);
  }
}

TEST(RunReportSchema, RunMetricsIsIdempotent) {
  for (const std::string& name : engineNames()) {
    SCOPED_TRACE(name);
    const std::unique_ptr<Engine> engine = makeEngine(name, kQubits);
    engine->metrics().enable();
    engine->run(benchCircuit());
    const metrics::RunReport first = engine->runMetrics();
    const metrics::RunReport second = engine->runMetrics();
    // Native totals are absolute mirrors: calling twice never
    // double-counts. (Gauges like the RSS high-water may only grow.)
    EXPECT_EQ(first.metrics.counters, second.metrics.counters);
    EXPECT_EQ(first.metrics.timers.at("engine.run").count,
              second.metrics.timers.at("engine.run").count);
  }
}

TEST(RunReportSchema, GateByGateApplicationCountsEveryGate) {
  // A caller that drives the engine one applyGate() at a time (incremental
  // preparation, a warm-cache suffix, a per-gate benchmark probe) sees
  // gates.applied count each call, on every engine; injectGate() (a noise
  // Pauli) is not a circuit gate and is not counted.
  const QuantumCircuit c = benchCircuit();
  for (const std::string& name : engineNames()) {
    SCOPED_TRACE(name);
    const std::unique_ptr<Engine> engine = makeEngine(name, kQubits);
    engine->metrics().enable();
    for (const Gate& g : c.gates()) engine->applyGate(g);
    engine->injectGate(Gate{GateKind::kX, {0}, {}});
    EXPECT_EQ(engine->runMetrics().metrics.counters.at("gates.applied"),
              c.gateCount());
  }
}

TEST(RunReportSchema, DisabledRegistryStillYieldsPinnedKeys) {
  // --stats off: nothing records, but a report requested anyway is still
  // schema-complete (all pinned keys, zero values) — consumers never
  // branch on key presence.
  const std::unique_ptr<Engine> engine = makeEngine("chp", kQubits);
  engine->run(benchCircuit());
  const metrics::RunReport report = engine->runMetrics();
  EXPECT_EQ(report.metrics.counters.at("gates.applied"), 0u);
  EXPECT_EQ(report.metrics.gauges.at("threads.resolved"), 0.0);
  EXPECT_TRUE(report.metrics.counters.count("cache.hits"));
}

TEST(RunReportSchema, ResolvedThreadsNeverReportsTheAutoSentinel) {
  const std::unique_ptr<Engine> engine = makeEngine("statevector", kQubits);
  engine->metrics().enable();
  EXPECT_EQ(engine->resolvedExecutionThreads(), 1u);  // before any request
  engine->setExecutionThreads(0);  // auto: resolve to detected concurrency
  EXPECT_GE(engine->resolvedExecutionThreads(), 1u);
  engine->run(benchCircuit());
  const metrics::RunReport autoReport = engine->runMetrics();
  EXPECT_EQ(autoReport.metrics.gauges.at("threads.resolved"),
            static_cast<double>(engine->resolvedExecutionThreads()));
  EXPECT_GE(autoReport.metrics.gauges.at("threads.resolved"), 1.0);

  const std::unique_ptr<Engine> explicitEngine =
      makeEngine("statevector", kQubits);
  explicitEngine->metrics().enable();
  explicitEngine->setExecutionThreads(3);
  EXPECT_EQ(explicitEngine->resolvedExecutionThreads(), 3u);
  explicitEngine->run(benchCircuit());
  EXPECT_EQ(explicitEngine->runMetrics().metrics.gauges.at("threads.resolved"),
            3.0);
}

}  // namespace
}  // namespace sliq
