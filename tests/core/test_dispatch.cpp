// Dispatch planner: engine selection on the three canonical workloads
// (pure Clifford → chp, wide Clifford+T → exact, narrow dense → dense
// statevector), feasibility gating, and the dispatch.* metrics encoding.
#include "core/dispatch.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "circuit/circuit.hpp"
#include "support/metrics.hpp"

namespace sliq {
namespace {

QuantumCircuit ghzCircuit(unsigned n) {
  QuantumCircuit c(n, "ghz");
  c.h(0);
  for (unsigned q = 0; q + 1 < n; ++q) c.cx(q, q + 1);
  return c;
}

QuantumCircuit cliffordPlusTCircuit(unsigned n) {
  QuantumCircuit c = ghzCircuit(n);
  for (unsigned q = 0; q < n; ++q) c.t(q);
  return c;
}

QuantumCircuit denseRandomCircuit(unsigned n, unsigned layers) {
  QuantumCircuit c(n, "dense");
  for (unsigned l = 0; l < layers; ++l) {
    for (unsigned q = 0; q < n; ++q) c.h(q);
    for (unsigned q = 0; q < n; ++q) c.t(q);
    for (unsigned q = 0; q + 1 < n; ++q) c.cx(q, q + 1);
  }
  return c;
}

const EngineScore& scoreOf(const EnginePlan& plan, const std::string& name) {
  const auto it = std::find_if(
      plan.scores.begin(), plan.scores.end(),
      [&](const EngineScore& s) { return s.name == name; });
  EXPECT_NE(it, plan.scores.end()) << name;
  return *it;
}

TEST(Dispatch, PureCliffordChoosesChp) {
  const EnginePlan plan = planEngine(ghzCircuit(8));
  EXPECT_EQ(plan.chosen, "chp");
  EXPECT_TRUE(scoreOf(plan, "chp").feasible);
  // Every engine is feasible here, but the tableau is cheapest by orders
  // of magnitude.
  for (const EngineScore& s : plan.scores) {
    EXPECT_TRUE(s.feasible) << s.name;
    if (s.name != "chp") EXPECT_GT(s.cost, scoreOf(plan, "chp").cost);
  }
}

TEST(Dispatch, WideCliffordPlusTChoosesExact) {
  // 28 qubits: 2^28 amplitudes = 4 GiB, over the default 1 GiB budget, so
  // the dense engine is infeasible; the T layer rules out chp; of the two
  // decision-diagram engines the bit-sliced exact node is cheaper.
  const EnginePlan plan = planEngine(cliffordPlusTCircuit(28));
  EXPECT_EQ(plan.chosen, "exact");
  EXPECT_FALSE(scoreOf(plan, "chp").feasible);
  EXPECT_FALSE(scoreOf(plan, "statevector").feasible);
  EXPECT_TRUE(scoreOf(plan, "qmdd").feasible);
  EXPECT_LT(scoreOf(plan, "exact").cost, scoreOf(plan, "qmdd").cost);
}

TEST(Dispatch, NarrowDenseCircuitChoosesStatevector) {
  // 10 qubits of interleaved H/T/CNOT layers: the effective diagram width
  // saturates at the full register, so 2^10 dense amplitudes beat the
  // per-node decision-diagram overhead.
  const EnginePlan plan = planEngine(denseRandomCircuit(10, 3));
  EXPECT_EQ(plan.chosen, "statevector");
  EXPECT_FALSE(scoreOf(plan, "chp").feasible);
  EXPECT_LT(scoreOf(plan, "statevector").cost, scoreOf(plan, "exact").cost);
}

TEST(Dispatch, BudgetParameterMovesTheDenseFeasibilityEdge) {
  const QuantumCircuit c = cliffordPlusTCircuit(12);
  // Default budget: 12 qubits (64 KiB dense) is easily feasible and wins.
  EXPECT_EQ(planEngine(c).chosen, "statevector");
  // A budget below 2^12 amplitudes forces the planner off the dense path.
  const EnginePlan tight = planEngine(c, denseStateBytes(12) - 1);
  EXPECT_FALSE(scoreOf(tight, "statevector").feasible);
  EXPECT_EQ(tight.chosen, "exact");
}

TEST(Dispatch, RecordPlanEmitsTheDispatchGauges) {
  const EnginePlan plan = planEngine(cliffordPlusTCircuit(28));
  metrics::Registry registry;
  registry.enable();
  recordPlan(plan, registry);
  const metrics::Snapshot snap = registry.snapshot();
  // One-hot chosen encoding (numeric-only registry: the name lives in the
  // key, the value is the indicator).
  EXPECT_EQ(snap.gauges.at("dispatch.chosen.exact"), 1.0);
  EXPECT_EQ(snap.gauges.count("dispatch.chosen.chp"), 0u);
  EXPECT_EQ(snap.gauges.at("dispatch.feasible.chp"), 0.0);
  EXPECT_EQ(snap.gauges.at("dispatch.feasible.exact"), 1.0);
  // Infeasible engines report no cost (there is none to compare).
  EXPECT_EQ(snap.gauges.count("dispatch.cost.statevector"), 0u);
  EXPECT_GT(snap.gauges.at("dispatch.cost.exact"), 0.0);
  EXPECT_EQ(snap.gauges.at("dispatch.feature.qubits"), 28.0);
  EXPECT_EQ(snap.gauges.at("dispatch.feature.t_count"), 28.0);
  EXPECT_EQ(snap.gauges.at("dispatch.feature.clifford_prefix"), 28.0);
  // The plan is an engine choice only: no mid-circuit split is recorded.
  EXPECT_EQ(snap.gauges.count("dispatch.handoff"), 0u);
}

TEST(Dispatch, RationaleNamesTheChoiceAndEveryVerdict) {
  const EnginePlan plan = planEngine(cliffordPlusTCircuit(28));
  const std::string text = planRationale(plan);
  EXPECT_NE(text.find("chose 'exact'"), std::string::npos) << text;
  for (const EngineScore& s : plan.scores) {
    EXPECT_NE(text.find(s.name), std::string::npos) << s.name;
  }
  EXPECT_NE(text.find("infeasible"), std::string::npos) << text;
}

}  // namespace
}  // namespace sliq
