// perfbench — the repository benchmark's binary.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <file>] [--inject-oracle-fault]
//
// One single-threaded process, one caller, closed loop: each op starts when
// the previous one has returned. The workload runs whole passes over its
// inputs until --seconds have elapsed, each pass preceded by
// kSetupRepsPerPass set-ups (input generation from the seed plus one
// exact-engine construction); set-up is reported as its median, and every
// op's time as the fastest of its passes. Outputs are checked against the
// workload's oracle afterwards. The last stdout line is the result object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics
// derived from the traced run's registry (--trace 1, which also writes the
// Chrome trace to --trace-out). Exit status 0 only when every op passed.
#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <numeric>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "probe.hpp"
#include "support/memuse.hpp"
#include "support/metrics.hpp"
#include "support/timer.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr int kSetupRepsPerPass = 3;
/// An op that takes longer than this counts as failed.
constexpr double kOpLimitSeconds = 60.0;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string traceOut = "perfbench_trace.json";
  bool injectFault = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--trace-out <file>] [--inject-oracle-fault]\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + arg);
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        o.workload = value();
      } else if (arg == "--seed") {
        o.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        o.seconds = std::stod(value());
      } else if (arg == "--trace") {
        o.trace = std::stoi(value()) != 0;
      } else if (arg == "--trace-out") {
        o.traceOut = value();
      } else if (arg == "--inject-oracle-fault") {
        o.injectFault = true;
      } else {
        usage("unknown argument " + arg);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + arg);
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  if (!(o.seconds > 0)) usage("--seconds must be positive");
  return o;
}

/// Linear-interpolated quantile (q in [0, 1]) of a non-empty sample.
double quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

/// Per position, the least of `rows[p][i]` over the rows (all the same size).
std::vector<double> fastest(const std::vector<std::vector<double>>& rows) {
  std::vector<double> best = rows.front();
  for (const std::vector<double>& row : rows) {
    for (std::size_t i = 0; i < best.size(); ++i)
      best[i] = std::min(best[i], row[i]);
  }
  return best;
}

std::string hex(std::uint64_t v) {
  std::ostringstream os;
  os << std::hex << v;
  return os.str();
}

/// (name, (value, unit)) in print order.
using MetricList =
    std::vector<std::pair<std::string, std::pair<double, std::string>>>;

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

/// Counts every op of every pass: it fails when it threw, ran over the time
/// limit, disagreed with the oracle (checked on `passes[0]`), or returned
/// anything but exactly what the same op returned in the first pass.
Tally tally(const std::vector<PassOutput>& passes,
            const std::vector<bool>& ok) {
  Tally t;
  const PassOutput& first = passes.front();
  for (const PassOutput& pass : passes) {
    for (std::size_t i = 0; i < pass.ops.size(); ++i) {
      const OpOutput& op = pass.ops[i];
      ++t.attempted;
      const bool bad = op.threw || op.seconds > kOpLimitSeconds ||
                       i >= ok.size() || !ok[i] ||
                       op.values != first.ops[i].values;
      if (bad) {
        ++t.failed;
        if (op.threw) std::cerr << "perfbench: op " << i << " threw: "
                                << op.error << "\n";
      }
    }
  }
  if (t.failed > 0) {
    std::cerr << "perfbench: " << t.failed << " of " << t.attempted
              << " ops failed\n";
  }
  return t;
}

void printResult(bool correct, const Tally& t, const MetricList& metrics) {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << t.attempted << ", \"failed\": " << t.failed
     << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, vu] : metrics) {
    if (!first) os << ", ";
    first = false;
    os << "\"" << name << "\": {\"value\": "
       << sliq::metrics::formatDouble(vu.first) << ", \"unit\": \""
       << vu.second << "\"}";
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

int run(const Options& o) {
  std::unique_ptr<Workload> workload = makeWorkload(o.workload);

  // Set-up: generate the inputs (the same ones every time), construct and
  // destroy one exact engine of the workload's width. It runs
  // kSetupRepsPerPass times before every pass, so its median samples the
  // host over the whole run rather than over its first second.
  std::vector<double> setup, build;
  auto setUp = [&] {
    for (int rep = 0; rep < kSetupRepsPerPass; ++rep) {
      const sliq::WallTimer timer;
      workload->generate(o.seed);
      build.push_back(timer.seconds());
      Probe quiet(false);
      auto engine = quiet.create("exact", workload->width());
      quiet.destroy(engine);
      setup.push_back(timer.seconds());
    }
  };
  setUp();

  std::vector<PassOutput> passes;
  MetricList metrics;
  Probe probe(o.trace);
  double untracedPass = 0;
  if (o.trace) {
    // One untraced pass on the same inputs: the tracing overhead reference.
    Probe quiet(false);
    passes.push_back(workload->runPass(quiet));
    untracedPass = passes.back().seconds;
  }
  const std::size_t firstMeasured = passes.size();
  const sliq::WallTimer elapsed;
  // Whole passes only: another one starts while it is expected (from the
  // slowest so far, set-up included) to end within --seconds.
  double slowest = 0;
  do {
    const sliq::WallTimer iteration;
    if (passes.size() > firstMeasured) setUp();
    {
      const sliq::metrics::ScopedSpan span(probe.registry(), "bench.pass");
      passes.push_back(workload->runPass(probe));
    }
    slowest = std::max(slowest, iteration.seconds());
  } while (elapsed.seconds() + slowest < o.seconds);
  const double peakRssMb = sliq::toMiB(sliq::peakRssBytes());

  const std::vector<bool> ok =
      workload->checkOracle(passes.front(), o.injectFault);
  const Tally t = tally(passes, ok);
  bool correct = t.failed == 0;

  // Every pass does the same work on the same inputs, so each op and frame
  // is timed once per pass; its cost is the fastest of those times. The
  // host's noise only adds time and comes in bursts of seconds, so the
  // minimum over passes is far steadier than a median of whole passes.
  std::vector<std::vector<double>> opRows, frameRows;
  double timed = 0;
  std::size_t opsRun = 0;
  for (std::size_t p = firstMeasured; p < passes.size(); ++p) {
    timed += passes[p].seconds;
    opRows.emplace_back();
    for (const OpOutput& op : passes[p].ops)
      opRows.back().push_back(op.seconds);
    opsRun += passes[p].ops.size();
    frameRows.push_back(passes[p].frames);
  }
  const std::size_t measured = opRows.size();
  const std::vector<double> opBest = fastest(opRows);
  const std::vector<double> frameBest = fastest(frameRows);
  const double opTotal = std::accumulate(opBest.begin(), opBest.end(), 0.0);
  const double frameTotal =
      std::accumulate(frameBest.begin(), frameBest.end(), 0.0);
  std::cout << "{\"workload\": \"" << o.workload << "\", \"seed\": " << o.seed
            << ", \"trace\": " << (o.trace ? 1 : 0)
            << ", \"passes\": " << measured << ", \"ops\": " << opsRun
            << ", \"inputs_digest\": \"" << hex(workload->inputDigest())
            << "\", \"oracle_digest\": \"" << hex(workload->oracleDigest())
            << "\"}\n";

  if (!o.trace) {
    metrics = {
        {"wall_s", {opTotal + frameTotal, "s"}},
        {"setup_s", {quantile(setup, 0.5), "s"}},
        {"peak_rss_mb", {peakRssMb, "MB"}},
        {"ops_per_s", {static_cast<double>(opBest.size()) / opTotal, "1/s"}},
        {"op_p50_ms", {1e3 * quantile(opBest, 0.5), "ms"}},
    };
  } else {
    const double traced = static_cast<double>(measured);
    const PerLayer layers = derivePerLayer(probe, traced);
    if (!layers.gateCountsMatch) {
      std::cerr << "perfbench: kernel spans in the trace do not sum to the "
                   "circuits' gate counts\n";
      correct = false;
    }
    for (const auto& [name, vu] : layers.values) metrics.push_back({name, vu});
    metrics.push_back({"circuit.build_s", {quantile(build, 0.5), "s"}});
    metrics.push_back(
        {"trace.overhead_s", {timed / traced - untracedPass, "s"}});
    std::ofstream out(o.traceOut);
    probe.registry().writeChromeTrace(out);
    if (!out) {
      std::cerr << "perfbench: cannot write " << o.traceOut << "\n";
      correct = false;
    }
  }
  printResult(correct, t, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Options options = perfbench::parse(argc, argv);
  try {
    return perfbench::run(options);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
