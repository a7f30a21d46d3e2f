// The four seeded workloads of the repository benchmark. Each one generates
// its inputs from the seed alone, runs them as one fixed "pass" of work
// through the Probe, and checks the pass's outputs against an oracle that
// runs outside every timed region. See README.md for why each exists.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "probe.hpp"

namespace perfbench {

/// What one op returned. An op is one circuit (random_t3, wide_reversible),
/// one round of queries (query_mix) or one shot (dynamic_shots).
struct OpOutput {
  std::vector<double> values;  // outputs the oracle checks
  double seconds = 0;          // the op's timed work
  bool threw = false;
  std::string error;
};

struct PassOutput {
  double seconds = 0;  // the pass's timed region (every op plus set-up work
                       // the pass does around them), oracle work excluded
  std::vector<OpOutput> ops;
  /// Timed set-up work the pass does around its ops, one entry per unit
  /// (query_mix: per grid, create + build + destroy); empty elsewhere.
  std::vector<double> frames;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds every input from `seed`; no engine work.
  virtual void generate(std::uint64_t seed) = 0;
  /// Width of the exact engine the workload constructs.
  virtual unsigned width() const = 0;
  /// Runs one pass over the generated inputs.
  virtual PassOutput runPass(Probe& probe) = 0;
  /// Per op of `pass`: true when its outputs agree with the oracle. With
  /// `injectFault` the first reference value is deliberately wrong.
  virtual std::vector<bool> checkOracle(const PassOutput& pass,
                                        bool injectFault) = 0;
  /// Digest of the generated inputs.
  virtual std::uint64_t inputDigest() const = 0;
  /// Digest of the oracle's reference values (valid after checkOracle).
  std::uint64_t oracleDigest() const { return oracleDigest_; }

 protected:
  std::uint64_t oracleDigest_ = 0;
};

/// The workload named as in BENCHMARK.json; throws std::invalid_argument
/// for an unknown name.
std::unique_ptr<Workload> makeWorkload(const std::string& name);

}  // namespace perfbench
