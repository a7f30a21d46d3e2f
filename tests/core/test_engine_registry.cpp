// Engine registry: name lookup (case handling, unknown-name rejection),
// registration semantics, and a behavioral round-trip of every registered
// engine on a 2-qubit Bell circuit.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "circuit/circuit.hpp"
#include "core/engine_registry.hpp"
#include "support/rng.hpp"

namespace sliq {
namespace {

QuantumCircuit bellCircuit() {
  QuantumCircuit c(2, "bell");
  c.h(0).cx(0, 1);
  return c;
}

TEST(EngineRegistry, BuiltInsRegistered) {
  const std::vector<std::string> names = engineNames();
  EXPECT_EQ(names.size(), 4u);
  for (const char* expected : {"chp", "exact", "qmdd", "statevector"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << expected;
    EXPECT_TRUE(EngineRegistry::instance().contains(expected)) << expected;
    EXPECT_FALSE(EngineRegistry::instance().describe(expected).empty())
        << expected;
  }
}

TEST(EngineRegistry, UnknownNameIsRejectedWithTheRegisteredList) {
  EXPECT_FALSE(EngineRegistry::instance().contains("no-such-engine"));
  try {
    makeEngine("no-such-engine", 2);
    FAIL() << "expected UnknownEngineError";
  } catch (const UnknownEngineError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("no-such-engine"), std::string::npos) << what;
    // The message must teach the valid names.
    for (const char* name : {"chp", "exact", "qmdd", "statevector"}) {
      EXPECT_NE(what.find(name), std::string::npos) << what;
    }
  }
}

TEST(EngineRegistry, TypoWithinDistanceTwoGetsASuggestion) {
  // One edit away from a registered name: the error teaches the fix.
  for (const auto& [typo, want] :
       std::vector<std::pair<std::string, std::string>>{
           {"exat", "exact"},        // deletion
           {"exactt", "exact"},      // insertion
           {"qmde", "qmdd"},         // substitution
           {"chpp", "chp"},          // insertion
           {"statevectr", "statevector"},
           {"CHPP", "chp"},          // suggestion matching is case-folded
       }) {
    SCOPED_TRACE(typo);
    EXPECT_EQ(EngineRegistry::instance().closestName(typo), want);
    try {
      makeEngine(typo, 2);
      FAIL() << "expected UnknownEngineError";
    } catch (const UnknownEngineError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("did you mean '" + want + "'"), std::string::npos)
          << what;
    }
  }
}

TEST(EngineRegistry, FarFromEveryNameGetsNoSuggestion) {
  for (const char* junk : {"no-such-engine", "tensornetwork", "", "x"}) {
    SCOPED_TRACE(junk);
    EXPECT_EQ(EngineRegistry::instance().closestName(junk), "");
    try {
      EngineRegistry::instance().describe(junk);
      FAIL() << "expected UnknownEngineError";
    } catch (const UnknownEngineError& e) {
      const std::string what = e.what();
      EXPECT_EQ(what.find("did you mean"), std::string::npos) << what;
      // The registered list still teaches the valid names.
      EXPECT_NE(what.find("exact"), std::string::npos) << what;
    }
  }
}

TEST(EngineRegistry, AllThreeLookupEntryPointsSuggest) {
  // describe / create share one error path; a typo through either of them
  // carries the suggestion.
  const auto expectSuggests = [](auto&& call) {
    try {
      call();
      FAIL() << "expected UnknownEngineError";
    } catch (const UnknownEngineError& e) {
      EXPECT_NE(std::string(e.what()).find("did you mean 'qmdd'"),
                std::string::npos)
          << e.what();
    }
  };
  const EngineRegistry& registry = EngineRegistry::instance();
  expectSuggests([&] { registry.describe("qmd"); });
  expectSuggests([&] { (void)registry.create("qmd", 2); });
}

TEST(EngineRegistry, LookupIsCaseInsensitive) {
  for (const char* spelling :
       {"exact", "Exact", "EXACT", "QMDD", "Qmdd", "CHP", "StateVector"}) {
    EXPECT_TRUE(EngineRegistry::instance().contains(spelling)) << spelling;
    const std::unique_ptr<Engine> engine = makeEngine(spelling, 2);
    ASSERT_NE(engine, nullptr) << spelling;
    // The facade reports the canonical lower-case name.
    EXPECT_EQ(engine->name(),
              [&] {
                std::string s = spelling;
                std::transform(s.begin(), s.end(), s.begin(), ::tolower);
                return s;
              }())
        << spelling;
  }
}

TEST(EngineRegistry, ReRegisteringReplacesAndNewNamesExtend) {
  EngineRegistry local;
  local.add("Mine", "first",
            [](unsigned n) { return makeEngine("exact", n); });
  EXPECT_TRUE(local.contains("mine"));
  EXPECT_EQ(local.describe("MINE"), "first");
  EXPECT_EQ(local.create("mine", 2)->name(), "exact");
  local.add("mine", "second",
            [](unsigned n) { return makeEngine("qmdd", n); });
  // Re-registration replaces the description and the factory in place.
  EXPECT_EQ(local.names().size(), 1u);
  EXPECT_EQ(local.describe("mine"), "second");
  EXPECT_EQ(local.create("mine", 2)->name(), "qmdd");
}

TEST(EngineRegistry, EveryEngineRoundTripsABellCircuit) {
  const QuantumCircuit bell = bellCircuit();
  for (const std::string& name : engineNames()) {
    SCOPED_TRACE(name);
    std::unique_ptr<Engine> engine = makeEngine(name, 2);
    ASSERT_NE(engine, nullptr);
    EXPECT_EQ(engine->numQubits(), 2u);
    ASSERT_TRUE(engine->supports(bell));
    engine->run(bell);
    EXPECT_NEAR(engine->probabilityOne(0), 0.5, 1e-9);
    EXPECT_NEAR(engine->probabilityOne(1), 0.5, 1e-9);
    EXPECT_NEAR(engine->totalProbability(), 1.0, 1e-9);
    EXPECT_FALSE(engine->numericalError());

    // Collapse: deviate 0.25 < Pr[q0=1] = 0.5 selects outcome 1 on every
    // engine; the Bell correlation then forces q1 to 1 deterministically.
    EXPECT_TRUE(engine->measure(0, 0.25));
    EXPECT_NEAR(engine->probabilityOne(1), 1.0, 1e-9);
    EXPECT_TRUE(engine->measure(1, 0.999));
  }
}

TEST(EngineRegistry, ShotsArePerfectlyCorrelatedOnBell) {
  const QuantumCircuit bell = bellCircuit();
  for (const std::string& name : engineNames()) {
    SCOPED_TRACE(name);
    std::unique_ptr<Engine> engine = makeEngine(name, 2);
    engine->run(bell);
    Rng rng(7);
    for (int shot = 0; shot < 16; ++shot) {
      const std::vector<bool> bits = engine->sampleShot(rng);
      ASSERT_EQ(bits.size(), 2u);
      EXPECT_EQ(bits[0], bits[1]);
    }
  }
}

TEST(EngineRegistry, SampleShotAfterMeasureIsALogicErrorOnEveryEngine) {
  // The facade contract pins shot sampling to the state prepared by run();
  // mixing it with collapses is rejected uniformly across engines.
  const QuantumCircuit bell = bellCircuit();
  for (const std::string& name : engineNames()) {
    SCOPED_TRACE(name);
    std::unique_ptr<Engine> engine = makeEngine(name, 2);
    engine->run(bell);
    (void)engine->measure(0, 0.25);
    Rng rng(3);
    EXPECT_THROW(engine->sampleShot(rng), std::logic_error);
  }
}

TEST(EngineRegistry, OutOfRangeQueriesThrowOnEveryEngine) {
  // Qubit index == width and a deviate outside [0,1) are caller errors on
  // every engine, rejected before any state is read or collapsed.
  for (const std::string& name : engineNames()) {
    SCOPED_TRACE(name);
    const std::unique_ptr<Engine> engine = makeEngine(name, 3);
    EXPECT_THROW(engine->probabilityOne(3), std::invalid_argument);
    EXPECT_THROW(engine->measure(3, 0.5), std::invalid_argument);
    EXPECT_THROW(engine->measure(0, 1.0), std::invalid_argument);
  }
}

TEST(EngineRegistry, CliffordSupportSplitsTheEngines) {
  QuantumCircuit nonClifford(1, "t-gate");
  nonClifford.t(0);
  EXPECT_FALSE(makeEngine("chp", 1)->supports(nonClifford));
  for (const char* name : {"exact", "qmdd", "statevector"}) {
    EXPECT_TRUE(makeEngine(name, 1)->supports(nonClifford)) << name;
  }
}

}  // namespace
}  // namespace sliq
