#include "core/dispatch.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <sstream>

#include "core/engine_registry.hpp"
#include "support/assert.hpp"

namespace sliq {
namespace {

// Relative per-gate node-touch cost of the two decision-diagram engines.
// The bit-sliced Z[√2] representation packs a node tighter than the
// complex-table QMDD node, so on equal structure exact wins the tie.
constexpr double kExactNodeCost = 64.0;
constexpr double kQmddNodeCost = 80.0;

// Tie-break preference among equal-cost feasible engines: leaner
// representation first.
int preferenceRank(const std::string& name) {
  if (name == "chp") return 0;
  if (name == "exact") return 1;
  if (name == "statevector") return 2;
  if (name == "qmdd") return 3;
  return 4;
}

std::string shortDouble(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.4g", v);
  return buf;
}

// Effective decision-diagram width: pure Clifford circuits keep diagrams
// near-linear, while each T gate and each layer of two-qubit depth can
// roughly double the reachable amplitude set until the full 2^n width is
// hit. A heuristic, not a bound — it only has to rank engines.
unsigned effectiveDiagramWidth(const CircuitFeatures& f) {
  const std::size_t w = 2 + f.tCount + f.twoQubitDepth / 2;
  return static_cast<unsigned>(std::min<std::size_t>(w, f.numQubits));
}

EngineScore scoreEngine(const std::string& name, const CircuitFeatures& f,
                        std::uint64_t denseBudgetBytes) {
  EngineScore s;
  s.name = name;
  const double gates = static_cast<double>(std::max<std::size_t>(f.gateCount, 1));

  if (name == "chp") {
    if (f.nonCliffordGates > 0) {
      s.rationale = "infeasible: " + std::to_string(f.nonCliffordGates) +
                    " non-Clifford gate(s) (" + std::to_string(f.tCount) +
                    " T/T\xE2\x80\xA0) outside the tableau gate set";
      return s;
    }
    s.feasible = true;
    s.cost = gates * static_cast<double>(std::max(f.numQubits, 1u));
    s.rationale = "cost " + shortDouble(s.cost) +
                  " = gates x qubits (Clifford-only tableau)";
    return s;
  }
  if (name == "statevector") {
    const std::uint64_t required = denseStateBytes(f.numQubits);
    if (required > denseBudgetBytes) {
      s.rationale = "infeasible: dense state needs " +
                    std::to_string(required) + " bytes (2^" +
                    std::to_string(f.numQubits) + " amplitudes), over the " +
                    std::to_string(denseBudgetBytes) + "-byte budget";
      return s;
    }
    s.feasible = true;
    s.cost = gates * std::ldexp(1.0, static_cast<int>(f.numQubits));
    s.rationale = "cost " + shortDouble(s.cost) +
                  " = gates x 2^qubits (dense array)";
    return s;
  }
  if (name == "exact" || name == "qmdd") {
    const unsigned width = effectiveDiagramWidth(f);
    const double nodeCost = name == "exact" ? kExactNodeCost : kQmddNodeCost;
    s.feasible = true;
    s.cost = gates * nodeCost * std::ldexp(1.0, static_cast<int>(width));
    s.rationale = "cost " + shortDouble(s.cost) + " = gates x " +
                  shortDouble(nodeCost) + " x 2^" + std::to_string(width) +
                  " (effective diagram width)";
    return s;
  }
  s.rationale = "infeasible: no cost model for this engine";
  return s;
}

}  // namespace

EnginePlan planEngine(const QuantumCircuit& circuit,
                      std::uint64_t denseBudgetBytes) {
  EnginePlan plan;
  plan.features = analyzeCircuit(circuit);
  for (const std::string& name : EngineRegistry::instance().names()) {
    plan.scores.push_back(scoreEngine(name, plan.features, denseBudgetBytes));
  }
  const EngineScore* best = nullptr;
  for (const EngineScore& s : plan.scores) {
    if (!s.feasible) continue;
    if (best == nullptr || s.cost < best->cost ||
        (s.cost == best->cost &&
         preferenceRank(s.name) < preferenceRank(best->name))) {
      best = &s;
    }
  }
  SLIQ_CHECK(best != nullptr,
             "engine auto: no registered engine is feasible for this circuit");
  plan.chosen = best->name;

  // Handoff: a static circuit with a long Clifford prefix runs the prefix
  // on the tableau and converts into the chosen engine at the split. The
  // chp plan itself never splits, and neither do dynamic circuits (the
  // deviate-stream contract pins the whole run to one engine).
  if (!plan.features.dynamic && plan.chosen != "chp" &&
      plan.features.cliffordPrefixGates >= kMinHandoffPrefixGates &&
      plan.features.cliffordPrefixGates < plan.features.gateCount) {
    plan.handoff = true;
    plan.splitIndex = plan.features.cliffordPrefixGates;
  }
  return plan;
}

void recordPlan(const EnginePlan& plan, metrics::Registry& registry) {
  const CircuitFeatures& f = plan.features;
  registry.gaugeSet("dispatch.chosen." + plan.chosen, 1.0);
  for (const EngineScore& s : plan.scores) {
    registry.gaugeSet("dispatch.feasible." + s.name, s.feasible ? 1.0 : 0.0);
    if (s.feasible) registry.gaugeSet("dispatch.cost." + s.name, s.cost);
  }
  registry.gaugeSet("dispatch.feature.qubits", static_cast<double>(f.numQubits));
  registry.gaugeSet("dispatch.feature.gates", static_cast<double>(f.gateCount));
  registry.gaugeSet("dispatch.feature.clifford_fraction", f.cliffordFraction);
  registry.gaugeSet("dispatch.feature.t_count", static_cast<double>(f.tCount));
  registry.gaugeSet("dispatch.feature.dynamic_ops",
                    static_cast<double>(f.dynamicOps));
  registry.gaugeSet("dispatch.feature.two_qubit_gates",
                    static_cast<double>(f.twoQubitGates));
  registry.gaugeSet("dispatch.feature.two_qubit_depth",
                    static_cast<double>(f.twoQubitDepth));
  registry.gaugeSet("dispatch.feature.interaction_width",
                    static_cast<double>(f.interactionWidth));
  registry.gaugeSet("dispatch.feature.clifford_prefix",
                    static_cast<double>(f.cliffordPrefixGates));
  registry.gaugeSet("dispatch.handoff", plan.handoff ? 1.0 : 0.0);
  registry.gaugeSet("dispatch.split_index",
                    static_cast<double>(plan.splitIndex));
}

std::string planRationale(const EnginePlan& plan) {
  const CircuitFeatures& f = plan.features;
  std::ostringstream os;
  os << "engine auto: chose '" << plan.chosen << "'";
  if (plan.handoff) {
    os << " with chp handoff after gate " << plan.splitIndex;
  }
  os << "\n  features: " << f.numQubits << " qubit(s), " << f.gateCount
     << " op(s), clifford fraction " << shortDouble(f.cliffordFraction)
     << ", T count " << f.tCount << ", 2q depth " << f.twoQubitDepth
     << ", interaction width " << f.interactionWidth << ", dynamic ops "
     << f.dynamicOps << ", clifford prefix " << f.cliffordPrefixGates
     << "\n";
  for (const EngineScore& s : plan.scores) {
    os << "  " << s.name << (s.name == plan.chosen ? " [chosen]: " : ": ")
       << s.rationale << "\n";
  }
  return os.str();
}

}  // namespace sliq
