#include "statevector/statevector.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include <utility>

#include "circuit/optimizer.hpp"
#include "statevector/dense_kernels.hpp"
#include "support/assert.hpp"
#include "support/audit.hpp"
#include "support/serialize.hpp"
#include "support/thread_pool.hpp"

namespace sliq {

namespace {
const std::complex<double> kI{0.0, 1.0};
}  // namespace

StatevectorSimulator::StatevectorSimulator(unsigned numQubits,
                                           std::uint64_t basisState)
    : numQubits_(numQubits) {
  SLIQ_REQUIRE(numQubits >= 1 && numQubits <= 28,
               "dense simulation limited to 28 qubits");
  SLIQ_REQUIRE(basisState < (std::uint64_t{1} << numQubits),
               "basis state out of range");
  state_.assign(std::uint64_t{1} << numQubits, Amplitude{0.0, 0.0});
  state_[basisState] = 1.0;
}

StatevectorSimulator::~StatevectorSimulator() = default;
StatevectorSimulator::StatevectorSimulator(StatevectorSimulator&&) noexcept =
    default;
StatevectorSimulator& StatevectorSimulator::operator=(
    StatevectorSimulator&&) noexcept = default;

void StatevectorSimulator::setThreads(unsigned threads) {
  if (threads == 0) threads = ThreadPool::hardwareConcurrency();
  threads_ = threads;
  if (threads_ <= 1) {
    pool_.reset();
  } else if (!pool_ || pool_->size() != threads_) {
    pool_ = std::make_unique<ThreadPool>(threads_);
  }
}

namespace {
dense::ExecContext execContext(ThreadPool* pool, unsigned threads) {
  dense::ExecContext ctx;
  ctx.pool = threads > 1 ? pool : nullptr;
  ctx.threads = threads;
  return ctx;
}
}  // namespace

void StatevectorSimulator::apply1(unsigned target, const Amplitude m[4]) {
  dense::apply1(state_.data(), state_.size(), target, m,
                execContext(pool_.get(), threads_));
}

void StatevectorSimulator::applyControlled1(
    const std::vector<unsigned>& controls, unsigned target,
    const Amplitude m[4]) {
  std::uint64_t controlMask = 0;
  for (unsigned c : controls) controlMask |= std::uint64_t{1} << c;
  dense::applyControlled1(state_.data(), state_.size(), controlMask, target,
                          m, execContext(pool_.get(), threads_));
}

void StatevectorSimulator::applySwap(const std::vector<unsigned>& controls,
                                     unsigned q0, unsigned q1) {
  std::uint64_t controlMask = 0;
  for (unsigned c : controls) controlMask |= std::uint64_t{1} << c;
  dense::applySwap(state_.data(), state_.size(), controlMask, q0, q1,
                   execContext(pool_.get(), threads_));
}

void StatevectorSimulator::applyGate(const Gate& gate) {
  validateGate(gate, numQubits_);
  switch (gate.kind) {
    case GateKind::kSwap:
      applySwap(gate.controls, gate.targets[0], gate.targets[1]);
      return;
    case GateKind::kMeasure:
    case GateKind::kReset:
      SLIQ_REQUIRE(false,
                   "measure/reset are not unitary gates — dynamic circuits "
                   "execute through Engine::runDynamic");
      return;
    default: {
      Amplitude m[4];
      gateUnitary2x2(gate.kind, m);
      applyControlled1(gate.controls, gate.target(), m);
      return;
    }
  }
}

void StatevectorSimulator::applyFused(const FusedOp& op) {
  const auto ctx = execContext(pool_.get(), threads_);
  switch (op.kind) {
    case FusedOp::Kind::kGate:
      applyGate(op.gate);
      return;
    case FusedOp::Kind::k1q:
      dense::apply1(state_.data(), state_.size(), op.q0, op.m1.data(), ctx);
      return;
    case FusedOp::Kind::k2q:
      dense::apply2(state_.data(), state_.size(), op.q0, op.q1,
                    op.m2.data(), op.diagonal, ctx);
      return;
  }
}

void StatevectorSimulator::run(const QuantumCircuit& circuit) {
  SLIQ_REQUIRE(circuit.numQubits() == numQubits_, "circuit width mismatch");
  for (const Gate& g : circuit.gates()) applyGate(g);
}

void StatevectorSimulator::runFused(const FusedCircuit& circuit) {
  SLIQ_REQUIRE(circuit.numQubits() == numQubits_, "circuit width mismatch");
  for (const FusedOp& op : circuit.ops()) applyFused(op);
}

double StatevectorSimulator::probabilityOne(unsigned qubit) const {
  SLIQ_REQUIRE(qubit < numQubits_, "qubit out of range");
  const std::uint64_t bit = std::uint64_t{1} << qubit;
  double p = 0;
  for (std::uint64_t i = 0; i < state_.size(); ++i) {
    if (i & bit) p += std::norm(state_[i]);
  }
  return p;
}

double StatevectorSimulator::totalProbability() const {
  double p = 0;
  for (const Amplitude& a : state_) p += std::norm(a);
  return p;
}

void StatevectorSimulator::auditInvariants(double normTolerance) const {
  static const std::string kStructure = "statevector";
  if (state_.size() != std::uint64_t{1} << numQubits_) {
    audit::fail(kStructure, "state holds " + std::to_string(state_.size()) +
                                " amplitudes, expected 2^" +
                                std::to_string(numQubits_));
  }
  double norm = 0;
  for (std::uint64_t i = 0; i < state_.size(); ++i) {
    const Amplitude& a = state_[i];
    if (!std::isfinite(a.real()) || !std::isfinite(a.imag())) {
      audit::fail(kStructure, "amplitude " + std::to_string(i) +
                                  " is not finite (NaN/Inf)");
    }
    norm += std::norm(a);
  }
  if (std::abs(norm - 1.0) > normTolerance) {
    audit::fail(kStructure,
                "norm drifted to " + std::to_string(norm) +
                    " (|Σ|α|² − 1| > " + std::to_string(normTolerance) + ")");
  }
}

double StatevectorSimulator::expectationPauli(std::uint64_t xmask,
                                              std::uint64_t ymask,
                                              std::uint64_t zmask) const {
  SLIQ_REQUIRE((xmask & ymask) == 0 && (xmask & zmask) == 0 &&
                   (ymask & zmask) == 0,
               "pauli supports must be disjoint");
  const std::uint64_t width =
      numQubits_ < 64 ? (std::uint64_t{1} << numQubits_) - 1 : ~std::uint64_t{0};
  SLIQ_REQUIRE(((xmask | ymask | zmask) & ~width) == 0,
               "pauli support exceeds register width");
  const std::uint64_t flip = xmask | ymask;      // X and Y flip the bit
  const std::uint64_t zlike = zmask | ymask;     // Z and Y carry (−1)^bit
  // i^|Y|: Hermitian strings have an even contribution overall, but the
  // per-basis-state phase carries it explicitly.
  Amplitude prefactor{1.0, 0.0};
  for (unsigned k = 0; k < (__builtin_popcountll(ymask) & 3u); ++k)
    prefactor *= kI;
  Amplitude sum{0.0, 0.0};
  double norm = 0;
  for (std::uint64_t i = 0; i < state_.size(); ++i) {
    norm += std::norm(state_[i]);
    if (state_[i] == Amplitude{0.0, 0.0}) continue;
    const double sign = __builtin_parityll(i & zlike) ? -1.0 : 1.0;
    sum += std::conj(state_[i ^ flip]) * (sign * state_[i]);
  }
  SLIQ_CHECK(norm > 0, "zero state has no expectation values");
  return (prefactor * sum).real() / norm;
}

bool StatevectorSimulator::measure(unsigned qubit, double random) {
  SLIQ_REQUIRE(qubit < numQubits_, "qubit out of range");
  SLIQ_REQUIRE(random >= 0.0 && random < 1.0, "random must be in [0,1)");
  const double p1 = probabilityOne(qubit);
  const bool outcome = random < p1;
  const double keep = outcome ? p1 : 1.0 - p1;
  const double scale = keep > 0 ? 1.0 / std::sqrt(keep) : 0.0;
  const std::uint64_t bit = std::uint64_t{1} << qubit;
  for (std::uint64_t i = 0; i < state_.size(); ++i) {
    const bool isOne = (i & bit) != 0;
    state_[i] = isOne == outcome ? state_[i] * scale : Amplitude{0, 0};
  }
  return outcome;
}

std::uint64_t StatevectorSimulator::sampleAll(double random) const {
  double acc = 0;
  for (std::uint64_t i = 0; i < state_.size(); ++i) {
    acc += std::norm(state_[i]);
    if (random < acc) return i;
  }
  return state_.size() - 1;
}

std::vector<std::uint64_t> StatevectorSimulator::sampleShots(unsigned count,
                                                             Rng& rng) const {
  std::vector<std::uint64_t> shots;
  shots.reserve(count);
  if (count == 0) return shots;
  // Sequential prefix sums: cdf[i] equals sampleAll's running `acc` after
  // index i, so upper_bound picks the same state sampleAll would.
  std::vector<double> cdf(state_.size());
  double acc = 0;
  for (std::uint64_t i = 0; i < state_.size(); ++i) {
    acc += std::norm(state_[i]);
    cdf[i] = acc;
  }
  for (unsigned s = 0; s < count; ++s) {
    const double random = rng.uniform();
    const auto it = std::upper_bound(cdf.begin(), cdf.end(), random);
    shots.push_back(it == cdf.end()
                        ? state_.size() - 1
                        : static_cast<std::uint64_t>(it - cdf.begin()));
  }
  return shots;
}

// ---- snapshots (DESIGN.md §12) ---------------------------------------------
//
// Payload layout (`sliq.state.v1`, representation "statevector"):
//
//   u32 numQubits        must match the receiving simulator
//   2ⁿ × (f64 re, f64 im)   amplitudes, basis index ascending

void StatevectorSimulator::saveStatePayload(serialize::Writer& out) {
  out.u32(numQubits_);
  for (const Amplitude& amp : state_) {
    out.f64(amp.real());
    out.f64(amp.imag());
  }
}

void StatevectorSimulator::loadStatePayload(serialize::Reader& in) {
  const std::uint32_t n = in.u32("statevector.numQubits");
  if (n != numQubits_) {
    throw serialize::SerializationError(
        "snapshot field 'statevector.numQubits': payload says " +
        std::to_string(n) + " qubit(s) but the simulator has " +
        std::to_string(numQubits_));
  }
  std::vector<Amplitude> state;
  state.reserve(state_.size());
  for (std::size_t i = 0; i < state_.size(); ++i) {
    const double re = in.f64("statevector.amplitude");
    const double im = in.f64("statevector.amplitude");
    state.emplace_back(re, im);
  }
  state_ = std::move(state);  // all parsed — commit atomically
}

void StatevectorSimulator::setState(std::vector<Amplitude> amplitudes) {
  SLIQ_REQUIRE(amplitudes.size() ==
                   (std::uint64_t{1} << numQubits_),
               "dense amplitude array size must be 2^numQubits");
  state_ = std::move(amplitudes);
}

}  // namespace sliq
