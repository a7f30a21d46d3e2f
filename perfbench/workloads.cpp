#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <functional>
#include <iterator>
#include <stdexcept>

#include "circuit/generators.hpp"
#include "support/serialize.hpp"
#include "support/timer.hpp"

namespace perfbench {

using sliq::Engine;
using sliq::GateKind;
using sliq::Pauli;
using sliq::PauliFactor;
using sliq::PauliObservable;
using sliq::QuantumCircuit;
using sliq::Rng;

namespace {

// ---- workload sizes ---------------------------------------------------------
// One pass takes about 3.5 s (random_t3), 0.7 s (wide_reversible), 3.5 s
// (query_mix) and 1.3 s (dynamic_shots) on a 4-core x86-64 host. Sized so a
// 30 s run times every op in at least six passes (main.cpp keeps each op's
// fastest), while a pass still holds enough inputs that seed-to-seed cost
// differences average out.

// random_t3: Table III circuits (H layer + 1.5n gates of the paper's mix;
// with 2n gates a few circuits per seed cost up to 25 times the median).
constexpr unsigned kRandomQubits = 20;
constexpr unsigned kGatesPerKind = 3;  // 10 kinds: 1.5n gates
constexpr unsigned kRandomCircuits = 100;
// wide_reversible: one GHZ and kBvCircuits Bernstein–Vazirani circuits.
constexpr unsigned kWideQubits = 200;
constexpr unsigned kBvCircuits = 6;
// query_mix: kGrids supremacy grids, each queried kQueryRounds × (all
// probabilities, a shot batch, one expectation).
constexpr unsigned kGridRows = 3;
constexpr unsigned kGridCols = 4;
constexpr unsigned kGridDepth = 5;
constexpr unsigned kQueryRounds = 4;
constexpr unsigned kGrids = 10;
constexpr unsigned kShotsPerQuery = 80000;
constexpr unsigned kTermsPerObservable = 1;
constexpr unsigned kPauliWeight = 2;
// dynamic_shots: teleportation of a kPayloadGates-gate Clifford+T payload.
constexpr unsigned kPayloadGates = 12;
constexpr unsigned kShotsPerPass = 50;

constexpr double kProbTol = 1e-9;      // exact vs qmdd, closed forms
constexpr double kDenseTol = 1e-10;    // exact vs statevector

// ---- helpers ----------------------------------------------------------------

/// Accumulates wall time only between start() and stop(), so oracle work
/// done in the middle of an op stays out of its time.
class Stopwatch {
 public:
  void start() { segment_.reset(); }
  void stop() { seconds_ += segment_.seconds(); }
  double seconds() const { return seconds_; }

 private:
  sliq::WallTimer segment_;
  double seconds_ = 0;
};

/// FNV-1a over the values fed to it.
class Digest {
 public:
  void add(std::uint64_t v) { fnv_.update(&v, sizeof v); }
  /// Rounded to 1e-9 so the digest names the value, not its last bits.
  void add(double v) { add(static_cast<std::uint64_t>(std::llround(v * 1e9))); }
  void add(const QuantumCircuit& c) {
    add(std::uint64_t{c.numQubits()});
    for (const sliq::Gate& g : c.gates()) {
      add(static_cast<std::uint64_t>(g.kind));
      for (unsigned q : g.targets) add(std::uint64_t{q});
      for (unsigned q : g.controls)
        add(std::uint64_t{q} | (std::uint64_t{1} << 32));
      add(std::uint64_t{g.conditioned} << 40 | g.conditionValue);
    }
  }
  std::uint64_t value() const { return fnv_.digest(); }

 private:
  sliq::serialize::Fnv1a fnv_;
};

/// Runs `body` as one op: exceptions from the engine (NodeLimitError,
/// bad_alloc, MemoryBudgetError, ...) mark the op failed instead of ending
/// the run.
OpOutput runOp(const std::function<void(OpOutput&, Stopwatch&)>& body) {
  OpOutput out;
  Stopwatch watch;
  try {
    body(out, watch);
  } catch (const std::exception& e) {
    out.threw = true;
    out.error = e.what();
  }
  out.seconds = watch.seconds();
  return out;
}

/// The paper's Table III recipe — an H on every qubit, then random gates
/// from {X, Y, Z, H, S, T, CNOT, CZ, Toffoli, Fredkin} on random distinct
/// qubits — with the gate mix fixed: exactly `perKind` gates of each kind,
/// in a random order, instead of a multinomial draw. Circuit cost depends
/// strongly on the mix (the H count above all), so fixing it keeps the cost
/// of a seed's circuit set close to every other seed's.
QuantumCircuit table3Circuit(unsigned n, unsigned perKind, Rng& rng) {
  QuantumCircuit c(n, "table3");
  for (unsigned q = 0; q < n; ++q) c.h(q);
  std::vector<unsigned> kinds;
  for (unsigned k = 0; k < 10; ++k) kinds.insert(kinds.end(), perKind, k);
  for (std::size_t i = kinds.size(); i > 1; --i)
    std::swap(kinds[i - 1], kinds[rng.below(i)]);
  auto distinct = [&](unsigned count) {
    std::vector<unsigned> qs;
    while (qs.size() < count) {
      const unsigned q = static_cast<unsigned>(rng.below(n));
      bool dup = false;
      for (unsigned seen : qs) dup |= seen == q;
      if (!dup) qs.push_back(q);
    }
    return qs;
  };
  static const GateKind kSingle[] = {GateKind::kX, GateKind::kY, GateKind::kZ,
                                     GateKind::kH, GateKind::kS, GateKind::kT};
  for (unsigned k : kinds) {
    if (k < 6) {
      c.append(sliq::Gate{kSingle[k], {distinct(1)[0]}, {}});
    } else if (k == 6) {
      const auto qs = distinct(2);
      c.cx(qs[0], qs[1]);
    } else if (k == 7) {
      const auto qs = distinct(2);
      c.cz(qs[0], qs[1]);
    } else if (k == 8) {
      const auto qs = distinct(3);
      c.ccx(qs[0], qs[1], qs[2]);
    } else {
      const auto qs = distinct(3);
      c.cswap(qs[0], qs[1], qs[2]);
    }
  }
  return c;
}

bool near(double a, double b, double tol) { return std::fabs(a - b) <= tol; }

// ---- random_t3 --------------------------------------------------------------

class RandomT3 final : public Workload {
 public:
  void generate(std::uint64_t seed) override {
    circuits_.clear();
    Rng rng(seed);
    for (unsigned i = 0; i < kRandomCircuits; ++i)
      circuits_.push_back(table3Circuit(kRandomQubits, kGatesPerKind, rng));
  }
  unsigned width() const override { return kRandomQubits; }

  PassOutput runPass(Probe& probe) override {
    PassOutput pass;
    for (const QuantumCircuit& c : circuits_) {
      const sliq::metrics::ScopedSpan span(probe.registry(), "bench.op");
      pass.ops.push_back(runOp([&](OpOutput& out, Stopwatch& watch) {
        watch.start();
        auto engine = probe.create("exact", c.numQubits());
        probe.applyCircuit(*engine, c);
        for (unsigned q = 0; q < c.numQubits(); ++q)
          out.values.push_back(probe.probabilityOne(*engine, q));
        watch.stop();
        out.values.push_back(engine->totalProbability());  // oracle only
        watch.start();
        probe.destroy(engine);
        watch.stop();
      }));
      pass.seconds += pass.ops.back().seconds;
    }
    return pass;
  }

  std::vector<bool> checkOracle(const PassOutput& pass,
                                bool injectFault) override {
    Digest digest;
    std::vector<bool> ok;
    for (std::size_t i = 0; i < circuits_.size(); ++i) {
      const QuantumCircuit& c = circuits_[i];
      auto qmdd = sliq::makeEngine("qmdd", c.numQubits());
      qmdd->run(c);
      std::vector<double> ref;
      for (unsigned q = 0; q < c.numQubits(); ++q)
        ref.push_back(qmdd->probabilityOne(q));
      ref.push_back(1.0);  // Σ|α|²
      if (injectFault && i == 0) ref[0] += 0.5;
      for (double v : ref) digest.add(v);
      const std::vector<double>& got = pass.ops[i].values;
      bool good = got.size() == ref.size();
      for (std::size_t k = 0; good && k < ref.size(); ++k)
        good = near(got[k], ref[k], kProbTol);
      ok.push_back(good);
    }
    oracleDigest_ = digest.value();
    return ok;
  }

  std::uint64_t inputDigest() const override {
    Digest d;
    for (const QuantumCircuit& c : circuits_) d.add(c);
    return d.value();
  }

 private:
  std::vector<QuantumCircuit> circuits_;
};

// ---- wide_reversible --------------------------------------------------------

class WideReversible final : public Workload {
 public:
  void generate(std::uint64_t seed) override {
    circuits_.clear();
    secrets_.clear();
    Rng rng(seed);
    circuits_.push_back(sliq::entanglementCircuit(kWideQubits + 1));
    secrets_.emplace_back();
    for (unsigned b = 0; b < kBvCircuits; ++b) {
      // Exactly half the bits set, at random places: the CNOT count, and so
      // the cost, is the same for every seed.
      std::vector<bool> secret(kWideQubits);
      std::fill(secret.begin(), secret.begin() + kWideQubits / 2, true);
      for (std::size_t i = secret.size(); i > 1; --i)
        std::vector<bool>::swap(secret[i - 1], secret[rng.below(i)]);
      circuits_.push_back(sliq::bernsteinVazirani(kWideQubits, secret));
      secrets_.push_back(std::move(secret));
    }
    probes_.clear();
    for (std::size_t i = 0; i < circuits_.size(); ++i)
      probes_.push_back(static_cast<unsigned>(rng.below(kWideQubits)));
  }
  unsigned width() const override { return kWideQubits + 1; }

  PassOutput runPass(Probe& probe) override {
    PassOutput pass;
    for (std::size_t i = 0; i < circuits_.size(); ++i) {
      const QuantumCircuit& c = circuits_[i];
      const sliq::metrics::ScopedSpan span(probe.registry(), "bench.op");
      pass.ops.push_back(runOp([&](OpOutput& out, Stopwatch& watch) {
        watch.start();
        auto engine = probe.create("exact", c.numQubits());
        probe.applyCircuit(*engine, c);
        out.values.push_back(probe.probabilityOne(*engine, probes_[i]));
        watch.stop();
        // Oracle only: every qubit, against the closed form.
        for (unsigned q = 0; q < c.numQubits(); ++q)
          out.values.push_back(engine->probabilityOne(q));
        watch.start();
        probe.destroy(engine);
        watch.stop();
      }));
      pass.seconds += pass.ops.back().seconds;
    }
    return pass;
  }

  std::vector<bool> checkOracle(const PassOutput& pass,
                                bool injectFault) override {
    Digest digest;
    std::vector<bool> ok;
    for (std::size_t i = 0; i < circuits_.size(); ++i) {
      const unsigned n = circuits_[i].numQubits();
      // GHZ: every qubit is ½. BV: data qubit q reads secret[q] with
      // certainty; the |−⟩ ancilla reads ½.
      std::vector<double> perQubit(n, 0.5);
      if (!secrets_[i].empty()) {
        for (unsigned q = 0; q < kWideQubits; ++q)
          perQubit[q] = secrets_[i][q] ? 1.0 : 0.0;
      }
      std::vector<double> ref{perQubit[probes_[i]]};
      ref.insert(ref.end(), perQubit.begin(), perQubit.end());
      if (injectFault && i == 0) ref[0] += 0.5;
      for (double v : ref) digest.add(v);
      const std::vector<double>& got = pass.ops[i].values;
      bool good = got.size() == ref.size();
      for (std::size_t k = 0; good && k < ref.size(); ++k)
        good = got[k] == ref[k] || near(got[k], ref[k], kProbTol);
      ok.push_back(good);
    }
    oracleDigest_ = digest.value();
    return ok;
  }

  std::uint64_t inputDigest() const override {
    Digest d;
    for (const QuantumCircuit& c : circuits_) d.add(c);
    for (unsigned q : probes_) d.add(std::uint64_t{q});
    return d.value();
  }

 private:
  std::vector<QuantumCircuit> circuits_;
  std::vector<std::vector<bool>> secrets_;  // empty for the GHZ circuit
  std::vector<unsigned> probes_;            // probed qubit per circuit
};

// ---- query_mix --------------------------------------------------------------

class QueryMix final : public Workload {
 public:
  void generate(std::uint64_t seed) override {
    Rng rng(seed);
    grids_.clear();
    for (unsigned g = 0; g < kGrids; ++g) {
      Grid grid{sliq::supremacyGrid(kGridRows, kGridCols, kGridDepth,
                                    rng.next()),
                {}, {}};
      const unsigned n = grid.circuit.numQubits();
      for (unsigned r = 0; r < kQueryRounds; ++r) {
        PauliObservable obs;
        for (unsigned t = 0; t < kTermsPerObservable; ++t) {
          // Weight-2 strings (a fixed weight keeps the rotation count, and
          // so the cost, the same for every seed); the first factor is X or
          // Y so every term rotates the state (and invalidates the memo).
          std::vector<PauliFactor> factors;
          while (factors.size() < kPauliWeight) {
            const unsigned q = static_cast<unsigned>(rng.below(n));
            bool dup = false;
            for (const PauliFactor& f : factors) dup |= f.qubit == q;
            if (dup) continue;
            const Pauli op = factors.empty()
                                 ? (rng.flip() ? Pauli::kX : Pauli::kY)
                                 : static_cast<Pauli>(1 + rng.below(3));
            factors.push_back(PauliFactor{q, op});
          }
          const double coefficient =
              static_cast<double>(1 + rng.below(8)) / 8.0 *
              (rng.flip() ? 1.0 : -1.0);
          obs.addTerm(coefficient, std::move(factors));
        }
        grid.observables.push_back(std::move(obs));
        grid.shotSeeds.push_back(rng.next());
      }
      grids_.push_back(std::move(grid));
    }
  }
  unsigned width() const override { return kGridRows * kGridCols; }

  PassOutput runPass(Probe& probe) override {
    PassOutput pass;
    for (const Grid& grid : grids_) {
      Stopwatch frame;  // create + grid build + destroy, outside the ops
      const unsigned n = grid.circuit.numQubits();
      frame.start();
      auto engine = probe.create("exact", n);
      probe.applyCircuit(*engine, grid.circuit);
      frame.stop();
      // One op per round: every probability, a shot batch, then the
      // expectation whose rotations invalidate the memo the reads filled.
      for (unsigned r = 0; r < kQueryRounds; ++r) {
        const sliq::metrics::ScopedSpan span(probe.registry(), "bench.op");
        pass.ops.push_back(runOp([&](OpOutput& out, Stopwatch& watch) {
          Rng rng(grid.shotSeeds[r]);
          watch.start();
          for (unsigned q = 0; q < n; ++q)
            out.values.push_back(probe.probabilityOne(*engine, q));
          const auto shots = probe.sampleShots(*engine, kShotsPerQuery, rng);
          const double value =
              probe.expectation(*engine, grid.observables[r]);
          watch.stop();
          std::vector<double> ones(n, 0.0);
          for (const std::vector<bool>& shot : shots) {
            for (unsigned q = 0; q < n; ++q) ones[q] += shot[q] ? 1.0 : 0.0;
          }
          for (double c : ones) out.values.push_back(c / kShotsPerQuery);
          out.values.push_back(value);
        }));
      }
      frame.start();
      probe.destroy(engine);
      frame.stop();
      pass.frames.push_back(frame.seconds());
    }
    for (double f : pass.frames) pass.seconds += f;
    for (const OpOutput& op : pass.ops) pass.seconds += op.seconds;
    return pass;
  }

  std::vector<bool> checkOracle(const PassOutput& pass,
                                bool injectFault) override {
    Digest digest;
    std::vector<bool> ok;
    std::size_t op = 0;
    for (const Grid& grid : grids_) {
      const unsigned n = grid.circuit.numQubits();
      auto dense = sliq::makeEngine("statevector", n);
      dense->run(grid.circuit);
      std::vector<double> probs;
      for (unsigned q = 0; q < n; ++q)
        probs.push_back(dense->probabilityOne(q));
      if (injectFault && op == 0) probs[0] += 0.5;
      for (double p : probs) digest.add(p);
      for (unsigned r = 0; r < kQueryRounds; ++r) {
        const double ref = dense->expectation(grid.observables[r]);
        digest.add(ref);
        // Values: n probabilities, n shot marginals, the expectation.
        const std::vector<double>& got = pass.ops[op++].values;
        bool good = got.size() == 2 * n + 1;
        for (unsigned q = 0; good && q < n; ++q) {
          // Marginals: within 5σ of the exact probability.
          const double sigma =
              std::sqrt(probs[q] * (1.0 - probs[q]) / kShotsPerQuery);
          good = near(got[q], probs[q], kDenseTol) &&
                 std::fabs(got[n + q] - probs[q]) <= 5.0 * sigma + 1e-12;
        }
        ok.push_back(good && near(got[2 * n], ref, kDenseTol));
      }
    }
    oracleDigest_ = digest.value();
    return ok;
  }

  std::uint64_t inputDigest() const override {
    Digest d;
    for (const Grid& grid : grids_) {
      d.add(grid.circuit);
      for (const PauliObservable& obs : grid.observables) {
        for (const sliq::PauliString& t : obs.terms()) {
          d.add(t.coefficient);
          for (const PauliFactor& f : t.factors)
            d.add(std::uint64_t{f.qubit} << 8 | static_cast<unsigned>(f.op));
        }
      }
      for (std::uint64_t s : grid.shotSeeds) d.add(s);
    }
    return d.value();
  }

 private:
  struct Grid {
    QuantumCircuit circuit;
    std::vector<PauliObservable> observables;  // one per round
    std::vector<std::uint64_t> shotSeeds;      // one per round
  };
  std::vector<Grid> grids_;
};

// ---- dynamic_shots ----------------------------------------------------------

class DynamicShots final : public Workload {
 public:
  DynamicShots() : payload_(1), circuit_(3) {}

  void generate(std::uint64_t seed) override {
    Rng rng(seed);
    payload_ = QuantumCircuit(1, "payload");
    static const GateKind kPalette[] = {GateKind::kH,   GateKind::kS,
                                        GateKind::kSdg, GateKind::kT,
                                        GateKind::kTdg, GateKind::kX,
                                        GateKind::kZ};
    // Start with H so the payload leaves the Z axis.
    payload_.h(0);
    for (unsigned g = 1; g < kPayloadGates; ++g) {
      payload_.append(
          sliq::Gate{kPalette[rng.below(std::size(kPalette))], {0}, {}});
    }
    // Teleport q0 to q2 (examples/circuits/teleport.qasm with the payload
    // in place of its H·S).
    circuit_ = QuantumCircuit(3, "teleport");
    circuit_.declareClassicalRegister(2);
    for (const sliq::Gate& g : payload_.gates()) circuit_.append(g);
    circuit_.h(1).cx(1, 2).cx(0, 1).h(0);
    circuit_.measure(0, 0).measure(1, 1);
    circuit_.onlyIf(2, sliq::Gate{GateKind::kX, {2}, {}});
    circuit_.onlyIf(3, sliq::Gate{GateKind::kX, {2}, {}});
    circuit_.onlyIf(1, sliq::Gate{GateKind::kZ, {2}, {}});
    circuit_.onlyIf(3, sliq::Gate{GateKind::kZ, {2}, {}});
    shotSeeds_.clear();
    for (unsigned s = 0; s < kShotsPerPass; ++s)
      shotSeeds_.push_back(rng.next());
  }
  unsigned width() const override { return 3; }

  PassOutput runPass(Probe& probe) override {
    PassOutput pass;
    for (unsigned s = 0; s < kShotsPerPass; ++s) {
      const sliq::metrics::ScopedSpan span(probe.registry(), "bench.op");
      pass.ops.push_back(runOp([&](OpOutput& out, Stopwatch& watch) {
        watch.start();
        auto engine = probe.create("exact", 3);
        Rng rng(shotSeeds_[s]);
        const sliq::DynamicRun run = probe.runDynamic(*engine, circuit_, rng);
        watch.stop();
        // Oracle only: the Bloch vector of the teleported qubit.
        for (Pauli p : {Pauli::kX, Pauli::kY, Pauli::kZ})
          out.values.push_back(engine->expectation(blochAxis(p)));
        out.values.push_back(static_cast<double>(run.cregValue()));
        watch.start();
        probe.destroy(engine);
        watch.stop();
      }));
      pass.seconds += pass.ops.back().seconds;
    }
    return pass;
  }

  std::vector<bool> checkOracle(const PassOutput& pass,
                                bool injectFault) override {
    auto dense = sliq::makeEngine("statevector", 1);
    dense->run(payload_);
    std::vector<double> bloch;
    for (Pauli p : {Pauli::kX, Pauli::kY, Pauli::kZ}) {
      PauliObservable axis;
      axis.addTerm(1.0, {PauliFactor{0, p}});
      bloch.push_back(dense->expectation(axis));
    }
    if (injectFault) bloch[0] += 0.5;
    Digest digest;
    for (double v : bloch) digest.add(v);
    oracleDigest_ = digest.value();
    std::vector<bool> ok;
    for (const OpOutput& op : pass.ops) {
      bool good = op.values.size() == 4;
      for (std::size_t k = 0; good && k < 3; ++k)
        good = near(op.values[k], bloch[k], kProbTol);
      ok.push_back(good);
    }
    return ok;
  }

  std::uint64_t inputDigest() const override {
    Digest d;
    d.add(circuit_);
    for (std::uint64_t s : shotSeeds_) d.add(s);
    return d.value();
  }

 private:
  static PauliObservable blochAxis(Pauli p) {
    PauliObservable axis;
    axis.addTerm(1.0, {PauliFactor{2, p}});
    return axis;
  }

  QuantumCircuit payload_;
  QuantumCircuit circuit_;
  std::vector<std::uint64_t> shotSeeds_;
};

}  // namespace

std::unique_ptr<Workload> makeWorkload(const std::string& name) {
  if (name == "random_t3") return std::make_unique<RandomT3>();
  if (name == "wide_reversible") return std::make_unique<WideReversible>();
  if (name == "query_mix") return std::make_unique<QueryMix>();
  if (name == "dynamic_shots") return std::make_unique<DynamicShots>();
  throw std::invalid_argument("unknown workload '" + name + "'");
}

}  // namespace perfbench
