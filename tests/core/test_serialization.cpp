// Engine state snapshots (Engine::saveState / Engine::loadState): for every
// registered engine, save→load round-trips must reproduce the state
// bit-identically (probabilities, expectations, seeded sample streams, and
// the re-saved bytes themselves), and every corrupted or truncated snapshot
// must be rejected with a diagnostic — leaving the receiving engine's state
// untouched. The committed golden fixtures pin cross-build format
// compatibility (regenerate with SLIQ_REGEN_GOLDEN=1).
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "circuit/circuit.hpp"
#include "core/engine_registry.hpp"
#include "core/observable.hpp"
#include "support/rng.hpp"
#include "support/serialize.hpp"

namespace sliq {
namespace {

bool isClifford(const std::string& engine) { return engine == "chp"; }

/// GHZ-4 dressed with extra Cliffords — valid on every engine; non-Clifford
/// engines get T-layer dressing on top so their payloads exercise
/// non-stabilizer amplitudes.
QuantumCircuit fixtureCircuit(const std::string& engine) {
  QuantumCircuit c(4);
  c.h(0).cx(0, 1).cx(1, 2).cx(2, 3).s(1).cz(0, 2).sdg(3);
  if (!isClifford(engine)) c.t(0).t(1).tdg(2);
  return c;
}

QuantumCircuit bellCircuit(const std::string& engine) {
  QuantumCircuit c(2);
  c.h(0).cx(0, 1);
  if (!isClifford(engine)) c.t(1);
  return c;
}

std::string saveToString(Engine& engine) {
  std::ostringstream out;
  engine.saveState(out);
  return out.str();
}

void loadFromString(Engine& engine, const std::string& bytes) {
  std::istringstream in(bytes);
  engine.loadState(in);
}

std::vector<double> allProbabilities(Engine& engine) {
  std::vector<double> probs;
  for (unsigned q = 0; q < engine.numQubits(); ++q)
    probs.push_back(engine.probabilityOne(q));
  return probs;
}

PauliObservable probeObservable(unsigned numQubits) {
  PauliObservable obs;
  std::vector<PauliFactor> factors;
  for (unsigned q = 0; q < numQubits; ++q)
    factors.push_back({q, q % 2 == 0 ? Pauli::kZ : Pauli::kX});
  obs.addTerm(1.0, std::move(factors));
  return obs;
}

TEST(Serialization, RoundTripIsBitIdentical) {
  for (const std::string& name : engineNames()) {
    const QuantumCircuit circuit = fixtureCircuit(name);
    const std::unique_ptr<Engine> original =
        makeEngine(name, circuit.numQubits());
    original->run(circuit);
    const std::string bytes = saveToString(*original);

    const std::unique_ptr<Engine> restored =
        makeEngine(name, circuit.numQubits());
    loadFromString(*restored, bytes);
    restored->auditInvariants();

    // Canonical re-serialization: saving the restored state reproduces the
    // original bytes exactly (the loaders rebuild through the managers'
    // canonicalizing constructors, so nothing drifts).
    EXPECT_EQ(saveToString(*restored), bytes) << name;

    // Bit-identical queries: probabilities, expectations, and the seeded
    // sample stream — EXPECT_EQ on doubles deliberately, not EXPECT_NEAR.
    EXPECT_EQ(allProbabilities(*original), allProbabilities(*restored))
        << name;
    const PauliObservable obs = probeObservable(circuit.numQubits());
    EXPECT_EQ(original->expectation(obs), restored->expectation(obs)) << name;
    Rng rngA(42), rngB(42);
    EXPECT_EQ(original->sampleShots(16, rngA),
              restored->sampleShots(16, rngB))
        << name;

    // Queries are read-only: after probabilities, expectations and
    // sampling, both states still serialize to the original bytes.
    EXPECT_EQ(saveToString(*original), bytes) << name;
    EXPECT_EQ(saveToString(*restored), bytes) << name;
  }
}

TEST(Serialization, ResumeSemanticsMatchStraightThroughRun) {
  // loadState then run(rest) == run(whole): the CLI's --save-state /
  // --load-state checkpoint-resume contract, at the library level.
  for (const std::string& name : engineNames()) {
    const QuantumCircuit whole = fixtureCircuit(name);
    const std::size_t cut = whole.gateCount() / 2;
    QuantumCircuit prefix(whole.numQubits()), rest(whole.numQubits());
    for (std::size_t i = 0; i < whole.gateCount(); ++i)
      (i < cut ? prefix : rest).append(whole.gate(i));

    const std::unique_ptr<Engine> straight =
        makeEngine(name, whole.numQubits());
    straight->run(whole);

    const std::unique_ptr<Engine> first = makeEngine(name, whole.numQubits());
    first->run(prefix);
    const std::string checkpoint = saveToString(*first);
    const std::unique_ptr<Engine> resumed =
        makeEngine(name, whole.numQubits());
    loadFromString(*resumed, checkpoint);
    resumed->run(rest);

    EXPECT_EQ(allProbabilities(*straight), allProbabilities(*resumed))
        << name;
    Rng rngA(7), rngB(7);
    EXPECT_EQ(straight->sampleShots(8, rngA), resumed->sampleShots(8, rngB))
        << name;
  }
}

TEST(Serialization, WrongRepresentationTagIsRejected) {
  const std::unique_ptr<Engine> exact = makeEngine("exact", 2);
  exact->run(bellCircuit("exact"));
  const std::string bytes = saveToString(*exact);
  const std::unique_ptr<Engine> chp = makeEngine("chp", 2);
  try {
    loadFromString(*chp, bytes);
    FAIL() << "expected SerializationError";
  } catch (const serialize::SerializationError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("exact"), std::string::npos) << what;
    EXPECT_NE(what.find("chp"), std::string::npos) << what;
    EXPECT_NE(what.find("representation"), std::string::npos) << what;
  }
}

TEST(Serialization, WrongQubitCountIsRejected) {
  const std::unique_ptr<Engine> three = makeEngine("statevector", 3);
  const std::string bytes = saveToString(*three);
  const std::unique_ptr<Engine> two = makeEngine("statevector", 2);
  try {
    loadFromString(*two, bytes);
    FAIL() << "expected SerializationError";
  } catch (const serialize::SerializationError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("3"), std::string::npos) << what;
    EXPECT_NE(what.find("2"), std::string::npos) << what;
  }
}

TEST(Serialization, EveryByteFlipIsRejectedAndStateSurvives) {
  // Byte-level corruption injection: no single-byte flip may load, and a
  // failed load must leave the receiving engine exactly as it was (the
  // never-partial-state rule) — pinned by comparing its queries before and
  // after every rejected attempt.
  for (const std::string& name : engineNames()) {
    const QuantumCircuit circuit = bellCircuit(name);
    const std::unique_ptr<Engine> source =
        makeEngine(name, circuit.numQubits());
    source->run(circuit);
    const std::string good = saveToString(*source);

    const std::unique_ptr<Engine> target =
        makeEngine(name, circuit.numQubits());
    target->run(circuit);
    const std::vector<double> before = allProbabilities(*target);

    for (std::size_t i = 0; i < good.size(); ++i) {
      std::string corrupt = good;
      corrupt[i] = static_cast<char>(corrupt[i] ^ 0x5a);
      EXPECT_THROW(loadFromString(*target, corrupt),
                   serialize::SerializationError)
          << name << " byte " << i;
      ASSERT_EQ(allProbabilities(*target), before) << name << " byte " << i;
    }
    // And the target still accepts the intact snapshot afterwards.
    EXPECT_NO_THROW(loadFromString(*target, good)) << name;
  }
}

TEST(Serialization, EveryTruncationIsRejected) {
  for (const std::string& name : engineNames()) {
    const QuantumCircuit circuit = bellCircuit(name);
    const std::unique_ptr<Engine> source =
        makeEngine(name, circuit.numQubits());
    source->run(circuit);
    const std::string good = saveToString(*source);
    const std::unique_ptr<Engine> target =
        makeEngine(name, circuit.numQubits());
    for (std::size_t len = 0; len < good.size(); ++len) {
      EXPECT_THROW(loadFromString(*target, good.substr(0, len)),
                   serialize::SerializationError)
          << name << " length " << len;
    }
  }
}

// ---- payload-level validation (valid envelope, hostile payload) -----------

std::string envelopeAround(const std::string& repr, std::uint32_t numQubits,
                           const serialize::Writer& payload) {
  std::ostringstream out;
  serialize::writeSnapshot(out, repr, numQubits, payload.data());
  return out.str();
}

TEST(Serialization, PayloadWidthMismatchIsRejected) {
  // Envelope says 2 qubits (matching the engine) but the payload's own
  // width field says 3 — the loader cross-checks both.
  serialize::Writer payload;
  payload.u32(3);
  const std::unique_ptr<Engine> engine = makeEngine("statevector", 2);
  EXPECT_THROW(
      loadFromString(*engine, envelopeAround("statevector", 2, payload)),
      serialize::SerializationError);
}

TEST(Serialization, TrailingPayloadBytesAreRejected) {
  for (const std::string& name : engineNames()) {
    const QuantumCircuit circuit = bellCircuit(name);
    const std::unique_ptr<Engine> source =
        makeEngine(name, circuit.numQubits());
    source->run(circuit);
    // Re-wrap the valid payload with one extra byte appended: the envelope
    // (sizes, checksum) is coherent, so only requireExhausted can object.
    std::istringstream in(saveToString(*source));
    const serialize::Snapshot snap = serialize::readSnapshot(in);
    serialize::Writer padded;
    padded.bytes(snap.payload.data(), snap.payload.size());
    padded.u8(0);
    const std::unique_ptr<Engine> target =
        makeEngine(name, circuit.numQubits());
    try {
      loadFromString(*target,
                     envelopeAround(name, circuit.numQubits(), padded));
      FAIL() << name << ": expected SerializationError";
    } catch (const serialize::SerializationError& e) {
      EXPECT_NE(std::string(e.what()).find("trailing"), std::string::npos)
          << name << ": " << e.what();
    }
  }
}

TEST(Serialization, ChpStrayBitsBeyondRegisterAreRejected) {
  // A 2-qubit tableau travels as full 64-bit words; bits 2..63 must be
  // zero. Take a valid snapshot and set a stray bit in the first row's
  // x-word (payload layout: u32 n, u32 words, then rows of x/z words).
  const std::unique_ptr<Engine> source = makeEngine("chp", 2);
  source->run(bellCircuit("chp"));
  std::istringstream in(saveToString(*source));
  const serialize::Snapshot snap = serialize::readSnapshot(in);
  std::vector<std::uint8_t> payload = snap.payload;
  payload[8] |= 0x04;  // qubit-2 bit of row 0's first x-word
  serialize::Writer hostile;
  hostile.bytes(payload.data(), payload.size());
  const std::unique_ptr<Engine> target = makeEngine("chp", 2);
  try {
    loadFromString(*target, envelopeAround("chp", 2, hostile));
    FAIL() << "expected SerializationError";
  } catch (const serialize::SerializationError& e) {
    EXPECT_NE(std::string(e.what()).find("stray"), std::string::npos)
        << e.what();
  }
}

TEST(Serialization, QmddForwardReferenceIsRejected) {
  // Node record 0 referencing record 5 violates children-before-parents.
  serialize::Writer payload;
  payload.u32(2);  // numQubits
  payload.u64(1);  // nodeCount
  payload.u32(0);  // node 0: level 0
  payload.u32(5);  // e0 ref: forward reference
  payload.f64(1.0);
  payload.f64(0.0);
  payload.u32(0xffffffffu);  // e1: terminal
  payload.f64(0.0);
  payload.f64(0.0);
  const std::unique_ptr<Engine> engine = makeEngine("qmdd", 2);
  try {
    loadFromString(*engine, envelopeAround("qmdd", 2, payload));
    FAIL() << "expected SerializationError";
  } catch (const serialize::SerializationError& e) {
    EXPECT_NE(std::string(e.what()).find("precede"), std::string::npos)
        << e.what();
  }
}

TEST(Serialization, FuzzRoundTripsRandomCircuits) {
  // Differential-fuzz-style: fixed-seed random circuits per engine, each
  // saved, restored, and compared bit-identically on every query surface.
  Rng rng(20260808);
  for (const std::string& name : engineNames()) {
    for (int trial = 0; trial < 8; ++trial) {
      const unsigned n = 2 + static_cast<unsigned>(rng.uniform() * 4);  // 2..5
      QuantumCircuit circuit(n);
      const int gates = 4 + static_cast<int>(rng.uniform() * 20);
      for (int g = 0; g < gates; ++g) {
        const unsigned q = static_cast<unsigned>(rng.uniform() * n);
        unsigned p = static_cast<unsigned>(rng.uniform() * n);
        if (p == q) p = (q + 1) % n;
        const int kinds = isClifford(name) ? 8 : 10;
        switch (static_cast<int>(rng.uniform() * kinds)) {
          case 0: circuit.h(q); break;
          case 1: circuit.s(q); break;
          case 2: circuit.sdg(q); break;
          case 3: circuit.x(q); break;
          case 4: circuit.y(q); break;
          case 5: circuit.z(q); break;
          case 6: circuit.cx(q, p); break;
          case 7: circuit.cz(q, p); break;
          case 8: circuit.t(q); break;
          default: circuit.tdg(q); break;
        }
      }
      const std::unique_ptr<Engine> original = makeEngine(name, n);
      original->run(circuit);
      const std::string bytes = saveToString(*original);
      const std::unique_ptr<Engine> restored = makeEngine(name, n);
      loadFromString(*restored, bytes);
      restored->auditInvariants();
      EXPECT_EQ(saveToString(*restored), bytes) << name << " trial " << trial;
      EXPECT_EQ(allProbabilities(*original), allProbabilities(*restored))
          << name << " trial " << trial;
      const PauliObservable obs = probeObservable(n);
      EXPECT_EQ(original->expectation(obs), restored->expectation(obs))
          << name << " trial " << trial;
      Rng rngA(trial), rngB(trial);
      EXPECT_EQ(original->sampleShots(8, rngA),
                restored->sampleShots(8, rngB))
          << name << " trial " << trial;
    }
  }
}

// ---- golden fixtures -------------------------------------------------------

std::string goldenPath(const std::string& engine) {
  return std::string(SLIQ_SERIALIZATION_GOLDEN_DIR) + "/golden-" + engine +
         serialize::kFileExtension;
}

TEST(Serialization, GoldenFixturesLoadOnEveryBuild) {
  // Format-compatibility pin: the committed .sliqstate fixtures were
  // written by an earlier build; every current build must load them and
  // reproduce the fixture circuit's state exactly. Regenerate (only after
  // a deliberate, version-bumped format change) with:
  //   SLIQ_REGEN_GOLDEN=1 ./test_serialization
  for (const std::string& name : engineNames()) {
    const QuantumCircuit circuit = fixtureCircuit(name);
    const std::unique_ptr<Engine> reference =
        makeEngine(name, circuit.numQubits());
    reference->run(circuit);

    if (std::getenv("SLIQ_REGEN_GOLDEN") != nullptr) {
      std::ofstream out(goldenPath(name), std::ios::binary);
      ASSERT_TRUE(out) << goldenPath(name);
      reference->saveState(out);
      continue;
    }

    std::ifstream in(goldenPath(name), std::ios::binary);
    ASSERT_TRUE(in) << "missing golden fixture " << goldenPath(name)
                    << " — regenerate with SLIQ_REGEN_GOLDEN=1";
    const std::unique_ptr<Engine> restored =
        makeEngine(name, circuit.numQubits());
    restored->loadState(in);
    restored->auditInvariants();
    EXPECT_EQ(allProbabilities(*reference), allProbabilities(*restored))
        << name;
    const PauliObservable obs = probeObservable(circuit.numQubits());
    EXPECT_EQ(reference->expectation(obs), restored->expectation(obs))
        << name;
    Rng rngA(11), rngB(11);
    EXPECT_EQ(reference->sampleShots(16, rngA),
              restored->sampleShots(16, rngB))
        << name;
  }
}

}  // namespace
}  // namespace sliq
