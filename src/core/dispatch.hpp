// Engine dispatch planner (DESIGN.md §13) — the decision half of the
// adaptive portfolio behind `--engine auto`: score every registered engine
// from the analyzer's workload features against its gate set and the
// dense-memory budget, and pick the cheapest feasible one. The CLI then
// runs that engine exactly as if it had been named.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "circuit/circuit.hpp"
#include "core/circuit_analyzer.hpp"
#include "support/memuse.hpp"
#include "support/metrics.hpp"

namespace sliq {

/// One engine's score under the planner's cost model. Costs are relative
/// model units (lower is better), comparable only within one plan.
struct EngineScore {
  std::string name;
  bool feasible = false;
  double cost = 0.0;
  /// One human-facing line: the cost formula instantiated, or why the
  /// engine is infeasible for this circuit.
  std::string rationale;
};

/// The planner's full decision for one circuit: the chosen engine, every
/// engine's score (name-sorted, so rendering is deterministic) and the
/// features that drove the decision.
struct EnginePlan {
  std::string chosen;
  std::vector<EngineScore> scores;
  CircuitFeatures features;
};

/// Scores every registered engine against `circuit` and picks the cheapest
/// feasible one (ties break toward the leaner representation:
/// chp, exact, statevector, qmdd). `denseBudgetBytes` bounds the
/// statevector engine's feasibility the same way it bounds dense
/// extraction. Throws std::logic_error if no registered engine is feasible
/// (cannot happen with the built-in four: the decision-diagram engines are
/// always feasible).
EnginePlan planEngine(const QuantumCircuit& circuit,
                      std::uint64_t denseBudgetBytes = kDefaultDenseBudgetBytes);

/// Emits the plan as dispatch.* gauges: dispatch.chosen.<name>=1 (one-hot),
/// per-engine dispatch.feasible.<name> / dispatch.cost.<name>, and the
/// driving features under dispatch.feature.*.
void recordPlan(const EnginePlan& plan, metrics::Registry& registry);

/// Multi-line human rendering of the plan (the CLI prints it under
/// `--engine auto`): chosen engine, feature summary, per-engine verdicts.
std::string planRationale(const EnginePlan& plan);

}  // namespace sliq
