// Audit-subsystem tests (DESIGN.md §10): clean states across all four
// engines pass their deep structural audits; deliberately corrupted
// structures are detected with diagnostics naming the structure and node;
// the teardown leak accounting sees deliberate leaks.
//
// Corruption is injected through AuditCorruptor, the test-only friend each
// auditable class declares. Every corruption is undone after the expected
// failure so teardown (and the global leak-check environment) stays green.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "bdd/bdd.hpp"
#include "bdd/manager.hpp"
#include "circuit/circuit.hpp"
#include "core/engine_registry.hpp"
#include "core/simulator.hpp"
#include "qmdd/complex_table.hpp"
#include "qmdd/qmdd.hpp"
#include "qmdd/qmdd_sim.hpp"
#include "stabilizer/stabilizer.hpp"
#include "statevector/statevector.hpp"
#include "support/audit.hpp"
#include "support/rng.hpp"

namespace sliq::bdd {

// Test-only corruption hooks (friend of BddManager).
struct AuditCorruptor {
  using Node = BddManager::Node;

  /// Files a copy of e's node into the unique table — a duplicate
  /// (var, then, else) triple, the canonical canonicity violation.
  /// Returns the injected index for removeDuplicate.
  static std::uint32_t injectDuplicate(BddManager& mgr, Edge e) {
    const std::uint32_t src = e.index();
    Node copy = mgr.nodes_[src];
    copy.ref = 1;
    const std::uint32_t idx = static_cast<std::uint32_t>(mgr.nodes_.size());
    auto& st = mgr.subtables_[mgr.varToLevel_[copy.var]];
    auto& head =
        st.buckets[BddManager::nodeHash(copy.var, copy.hi, copy.lo) &
                   (st.buckets.size() - 1)];
    copy.next = head;
    mgr.nodes_.push_back(copy);
    head = idx;
    ++st.count;
    ++mgr.liveNodes_;
    return idx;
  }

  static void removeDuplicate(BddManager& mgr, std::uint32_t idx) {
    const Node n = mgr.nodes_[idx];
    auto& st = mgr.subtables_[mgr.varToLevel_[n.var]];
    auto& head = st.buckets[BddManager::nodeHash(n.var, n.hi, n.lo) &
                            (st.buckets.size() - 1)];
    head = n.next;  // the duplicate was chained in at the head
    mgr.nodes_.pop_back();
    --st.count;
    --mgr.liveNodes_;
  }

  static void dropRef(BddManager& mgr, Edge e) {
    --mgr.nodes_[e.index()].ref;
  }
  static void addRef(BddManager& mgr, Edge e) {
    ++mgr.nodes_[e.index()].ref;
  }
};

namespace {

BddManager::Config twoVarConfig() {
  BddManager::Config cfg;
  cfg.initialVars = 2;
  return cfg;
}

TEST(BddAudit, CleanManagerPasses) {
  BddManager mgr(twoVarConfig());
  const Bdd x0 = makeVar(mgr, 0);
  const Bdd x1 = makeVar(mgr, 1);
  const Bdd f = (x0 & x1) | (~x0 & ~x1);
  EXPECT_NO_THROW(mgr.auditInvariants());
  (void)f;
}

TEST(BddAudit, DetectsDuplicateUniqueTableTriple) {
  BddManager mgr(twoVarConfig());
  Bdd f;
  {
    const Bdd x0 = makeVar(mgr, 0);
    const Bdd x1 = makeVar(mgr, 1);
    f = x0 & x1;
  }
  const std::uint32_t injected =
      AuditCorruptor::injectDuplicate(mgr, f.edge());
  try {
    mgr.auditInvariants();
    FAIL() << "duplicate triple not detected";
  } catch (const audit::AuditError& e) {
    EXPECT_EQ(e.structure(), "bdd-unique-table");
    EXPECT_NE(std::string(e.what()).find("duplicate"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("node"), std::string::npos)
        << e.what();
  }
  AuditCorruptor::removeDuplicate(mgr, injected);
  EXPECT_NO_THROW(mgr.auditInvariants());
}

TEST(BddAudit, DetectsRefcountUnderflow) {
  BddManager mgr(twoVarConfig());
  Bdd f;
  {
    const Bdd x0 = makeVar(mgr, 0);
    const Bdd x1 = makeVar(mgr, 1);
    f = x0 & x1;
  }
  // The root's THEN child (the x1 projection) is referenced only as a
  // parent edge now that the handles above are gone.
  const Edge child = mgr.thenEdge(f.edge());
  ASSERT_FALSE(BddManager::isTerminal(child));
  AuditCorruptor::dropRef(mgr, child);
  try {
    mgr.auditInvariants();
    FAIL() << "refcount underflow not detected";
  } catch (const audit::AuditError& e) {
    EXPECT_EQ(e.structure(), "bdd-unique-table");
    EXPECT_NE(std::string(e.what()).find("underflow"), std::string::npos)
        << e.what();
  }
  AuditCorruptor::addRef(mgr, child);
  EXPECT_NO_THROW(mgr.auditInvariants());
}

TEST(BddAudit, TeardownReportsLeakedExternalReference) {
  ASSERT_EQ(audit::leakedNodeCount(), 0u) << audit::leakReport();
  {
    BddManager mgr(twoVarConfig());
    // An external reference taken and never returned — the class of bug
    // the R1 lint rule and this accounting exist to catch.
    mgr.ref(mgr.varEdge(0));
  }
  EXPECT_EQ(audit::leakedNodeCount(), 1u) << audit::leakReport();
  EXPECT_NE(audit::leakReport().find("bdd"), std::string::npos);
  audit::resetLeakStats();
  EXPECT_EQ(audit::leakedNodeCount(), 0u);
}

}  // namespace
}  // namespace sliq::bdd

namespace sliq::qmdd {

// Test-only corruption hooks (friend of QmddManager / ComplexTable /
// QmddSimulator).
struct AuditCorruptor {
  static std::int32_t bumpRootLevel(QmddSimulator& sim) {
    QmddManager& mgr = sim.mgr_;
    const std::int32_t old = mgr.vNodes_[mgr.root().node].level;
    mgr.vNodes_[mgr.root().node].level = old + 7;
    return old;
  }
  static void setRootLevel(QmddSimulator& sim, std::int32_t level) {
    QmddManager& mgr = sim.mgr_;
    mgr.vNodes_[mgr.root().node].level = level;
  }
  static void pushDuplicateValue(ComplexTable& ct, CIndex of) {
    ct.values_.push_back(ct.values_[of]);
  }
  static void popValue(ComplexTable& ct) { ct.values_.pop_back(); }
};

namespace {

TEST(QmddAudit, CleanSimulatorPasses) {
  QmddSimulator sim(3);
  QuantumCircuit c(3);
  c.h(0).cx(0, 1).t(1).cx(1, 2).h(2);
  sim.run(c);
  EXPECT_NO_THROW(sim.auditInvariants());
}

TEST(QmddAudit, DetectsCorruptedNodeLevel) {
  QmddSimulator sim(1);
  QuantumCircuit c(1);
  c.h(0);
  sim.run(c);
  const std::int32_t old = AuditCorruptor::bumpRootLevel(sim);
  try {
    sim.auditInvariants();
    FAIL() << "corrupted level not detected";
  } catch (const audit::AuditError& e) {
    EXPECT_EQ(e.structure(), "qmdd-vector-table");
  }
  AuditCorruptor::setRootLevel(sim, old);
  EXPECT_NO_THROW(sim.auditInvariants());
}

TEST(QmddAudit, ComplexTableDetectsDuplicateEntry) {
  ComplexTable ct;
  (void)ct.lookup(Complex{0.25, -0.5});
  EXPECT_NO_THROW(ct.auditInvariants());
  // A second copy of an interned value, bypassing lookup's dedup.
  AuditCorruptor::pushDuplicateValue(ct, ct.one());
  try {
    ct.auditInvariants();
    FAIL() << "duplicate complex-table entry not detected";
  } catch (const audit::AuditError& e) {
    EXPECT_EQ(e.structure(), "qmdd-complex-table");
  }
  AuditCorruptor::popValue(ct);
  EXPECT_NO_THROW(ct.auditInvariants());
}

TEST(QmddAudit, SurvivesCollapseAndGc) {
  QmddSimulator sim(4);
  QuantumCircuit c(4);
  c.h(0).cx(0, 1).cx(1, 2).cx(2, 3).t(0).h(3);
  sim.run(c);
  (void)sim.measure(1, 0.3);
  EXPECT_NO_THROW(sim.auditInvariants());
}

}  // namespace
}  // namespace sliq::qmdd

namespace sliq {

// Test-only corruption hooks (friend of StabilizerSimulator /
// StatevectorSimulator / SliqSimulator).
struct AuditCorruptor {
  static void flipStabilizerBit(StabilizerSimulator& sim) {
    sim.rows_[sim.n_].x[0] ^= 1u;  // stabilizer 0, qubit 0 X bit
  }
  static void corruptAmplitude(StatevectorSimulator& sim) {
    sim.state_[0] = std::numeric_limits<double>::quiet_NaN();
  }
  static void restoreAmplitude(StatevectorSimulator& sim,
                               StatevectorSimulator::Amplitude a) {
    sim.state_[0] = a;
  }
  static std::int64_t corruptKScalar(SliqSimulator& sim) {
    const std::int64_t old = sim.k_;
    sim.k_ = -1;
    return old;
  }
  static void restoreKScalar(SliqSimulator& sim, std::int64_t k) {
    sim.k_ = k;
  }
};

namespace {

TEST(TableauAudit, CleanTableauPassesThroughCliffordsAndMeasurement) {
  StabilizerSimulator sim(5);
  QuantumCircuit c(5);
  c.h(0).cx(0, 1).s(1).cx(1, 2).cz(2, 3).h(3).swap(3, 4).x(4);
  sim.run(c);
  EXPECT_NO_THROW(sim.auditInvariants());
  (void)sim.measure(2, 0.7);
  (void)sim.reset(0, 0.2);
  EXPECT_NO_THROW(sim.auditInvariants());
}

TEST(TableauAudit, DetectsBrokenSymplecticPairing) {
  StabilizerSimulator sim(2);
  QuantumCircuit c(2);
  c.h(0).cx(0, 1);
  sim.run(c);
  AuditCorruptor::flipStabilizerBit(sim);
  try {
    sim.auditInvariants();
    FAIL() << "broken symplectic pairing not detected";
  } catch (const audit::AuditError& e) {
    EXPECT_EQ(e.structure(), "chp-tableau");
    EXPECT_NE(std::string(e.what()).find("stabilizer"), std::string::npos)
        << e.what();
  }
  AuditCorruptor::flipStabilizerBit(sim);
  EXPECT_NO_THROW(sim.auditInvariants());
}

TEST(StatevectorAudit, DetectsNaNAmplitude) {
  StatevectorSimulator sim(2);
  QuantumCircuit c(2);
  c.h(0).cx(0, 1);
  sim.run(c);
  EXPECT_NO_THROW(sim.auditInvariants());
  const auto saved = sim.amplitude(0);
  AuditCorruptor::corruptAmplitude(sim);
  try {
    sim.auditInvariants();
    FAIL() << "NaN amplitude not detected";
  } catch (const audit::AuditError& e) {
    EXPECT_EQ(e.structure(), "statevector");
  }
  AuditCorruptor::restoreAmplitude(sim, saved);
  EXPECT_NO_THROW(sim.auditInvariants());
}

TEST(SliqAudit, CleanStatePassesThroughGatesAndMeasurement) {
  SliqSimulator sim(4);
  QuantumCircuit c(4);
  c.h(0).cx(0, 1).t(1).h(2).ccx(0, 2, 3).s(3);
  sim.run(c);
  EXPECT_NO_THROW(sim.auditInvariants());
  (void)sim.measure(1, 0.4);
  EXPECT_NO_THROW(sim.auditInvariants());
}

TEST(SliqAudit, DetectsKScalarOutOfRange) {
  SliqSimulator sim(2);
  QuantumCircuit c(2);
  c.h(0).cx(0, 1);
  sim.run(c);
  const std::int64_t old = AuditCorruptor::corruptKScalar(sim);
  try {
    sim.auditInvariants();
    FAIL() << "k-scalar corruption not detected";
  } catch (const audit::AuditError& e) {
    EXPECT_EQ(e.structure(), "sliq-bitsliced-state");
    EXPECT_NE(std::string(e.what()).find("k-scalar"), std::string::npos)
        << e.what();
  }
  AuditCorruptor::restoreKScalar(sim, old);
  EXPECT_NO_THROW(sim.auditInvariants());
}

TEST(EngineAudit, AllEnginesAdvertiseAndPassAudits) {
  for (const std::string& name : engineNames()) {
    auto engine = makeEngine(name, 3);
    ASSERT_NE(engine, nullptr) << name;
    QuantumCircuit c(3);
    c.h(0).cx(0, 1).cx(1, 2);
    engine->run(c);
    EXPECT_NO_THROW(engine->auditInvariants()) << name;
  }
}

TEST(EngineAudit, AuditsPassAfterDynamicRun) {
  QuantumCircuit c(3);
  c.declareClassicalRegister(2);
  c.h(0).cx(0, 1).measure(1, 0).reset(0);
  c.onlyIf(1, Gate{GateKind::kX, {2}, {}});
  for (const std::string& name : engineNames()) {
    auto engine = makeEngine(name, 3);
    Rng rng(12345);
    engine->runDynamic(c, rng);
    EXPECT_NO_THROW(engine->auditInvariants()) << name;
  }
}

TEST(WithAudit, RunsAuditAndForwardsResult) {
  SliqSimulator sim(2);
  const double p = audit::withAudit(sim, [&] {
    QuantumCircuit c(2);
    c.h(0).cx(0, 1);
    sim.run(c);
    return sim.totalProbability();
  });
  EXPECT_NEAR(p, 1.0, 1e-12);
  // Void-returning callables audit too.
  audit::withAudit(sim, [&] { (void)sim.measure(0, 0.9); });
}

TEST(WithAudit, PropagatesAuditErrorFromCorruptedState) {
  SliqSimulator sim(2);
  QuantumCircuit c(2);
  c.h(0);
  sim.run(c);
  const std::int64_t old = AuditCorruptor::corruptKScalar(sim);
  EXPECT_THROW(audit::withAudit(sim, [] {}), audit::AuditError);
  AuditCorruptor::restoreKScalar(sim, old);
}

TEST(AuditApi, ErrorCarriesStructureAndDetail) {
  try {
    audit::fail("demo-structure", "node 42 misfiled");
    FAIL();
  } catch (const audit::AuditError& e) {
    EXPECT_EQ(e.structure(), "demo-structure");
    EXPECT_NE(std::string(e.what()).find("node 42"), std::string::npos);
  }
}

TEST(AuditApi, LiveStructureCountTracksManagers) {
  const std::size_t before = audit::liveStructureCount();
  {
    SliqSimulator exact(2);
    qmdd::QmddSimulator dd(2);
    EXPECT_EQ(audit::liveStructureCount(), before + 2);
  }
  EXPECT_EQ(audit::liveStructureCount(), before);
}

}  // namespace
}  // namespace sliq
