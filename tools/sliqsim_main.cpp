// sliqsim — command-line front door to the simulation engines.
//
// Usage:
//   sliqsim [options] <circuit.qasm | circuit.real>
//   sliqsim [options] --load-state FILE            (query a snapshot)
//   sliqsim --merge-counts <shard.txt>...          (merge shard histograms)
//
// Options:
//   --engine NAME              any registered engine (default: exact);
//                              built-ins: exact, qmdd, chp, statevector.
//                              NAME may also be "auto": the dispatcher
//                              scores every engine from the circuit's
//                              features (Clifford fraction, T count,
//                              two-qubit depth, width) and runs the
//                              cheapest feasible one exactly as if it
//                              had been named, printing its rationale
//                              (DESIGN.md §13)
//   --shots N                  sample N basis states (default: 0). On a
//                              dynamic circuit (mid-circuit measure/reset/
//                              if), each shot re-executes the circuit and
//                              prints the final classical register instead
//   --probs                    print per-qubit Pr[q=1]
//   --amps K                   print the first K nonzero amplitudes
//   --modify-h                 apply the paper's H-modification (.real only)
//   --optimize                 run the peephole optimizer before simulating
//   --seed S                   RNG seed (default: 1)
//   --stats[=text|json]        print the per-run telemetry report (counters,
//                              gauges, phase timings — the
//                              sliq.run_report.v1 schema when json).
//                              Telemetry never perturbs simulation: output
//                              is bit-identical with or without it
//   --trace FILE               write a Chrome trace-event JSON timeline
//                              (spans + GC/memo instant events) to FILE;
//                              load in chrome://tracing or Perfetto
//   --observable FILE          Pauli-observable spec: print exact per-term
//                              and total expectation values ⟨O⟩; with
//                              --noise, print the trajectory-mean noisy
//                              expectation instead of the shot histogram
//   --noise FILE               noise spec: run stochastic trajectories and
//                              print the shot histogram (or, with
//                              --observable, the noisy expectation) instead
//                              of the ideal-state queries
//   --trajectories N           Monte-Carlo trajectories (default: 1000;
//                              only with --noise)
//   --traj-offset N            global index of the first trajectory
//                              (default: 0; only with --noise). Shard runs
//                              covering disjoint offset ranges under one
//                              --seed reproduce the corresponding slice of
//                              a monolithic run's trajectory substreams, so
//                              their histograms --merge-counts to the
//                              monolithic result bit for bit
//   --threads N                worker threads; 0 auto-detects hardware
//                              concurrency (default: 1). With --noise this
//                              fans trajectories across workers; otherwise
//                              it partitions the single-circuit dense
//                              kernels (statevector engine). Results are
//                              thread-count independent under a fixed
//                              --seed either way.
//   --save-state FILE          after the run, write the engine state as a
//                              sliq.state.v1 snapshot (support/
//                              serialize.hpp; DESIGN.md §12)
//   --load-state FILE          restore a snapshot before the run; with no
//                              circuit argument, query the snapshot
//                              directly (--probs/--amps/--shots/
//                              --observable compose as usual)
//   --warm-cache DIR           snapshot cache keyed by circuit-prefix
//                              digest: a cached prefix of the (optimized)
//                              circuit is restored instead of re-simulated
//                              — a full hit skips the gate loop entirely
//                              (counter warm_cache.hit) — and misses fill
//                              the cache for the next run
//   --merge-counts             merge the positional shard histogram dumps
//                              (produced with --noise + --traj-offset)
//                              additively; histogram to stdout, summary to
//                              stderr
//   --list-engines             list registered engines (name — description)
//                              and exit
#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <string>

#include "circuit/optimizer.hpp"
#include "circuit/qasm.hpp"
#include "circuit/real_format.hpp"
#include "cli_options.hpp"
#include "core/dispatch.hpp"
#include "core/engine_registry.hpp"
#include "core/observable.hpp"
#include "noise/noise_model.hpp"
#include "noise/trajectory.hpp"
#include "support/bits.hpp"
#include "support/memuse.hpp"
#include "support/metrics.hpp"
#include "support/rng.hpp"
#include "support/serialize.hpp"
#include "support/timer.hpp"
#include "warm_cache.hpp"

namespace {

using sliq::cli::Options;
using sliq::cli::circuitPrefixDigest;
using sliq::cli::warmCachePath;

int usage() {
  std::cerr << "usage: sliqsim [--engine auto|"
            << sliq::EngineRegistry::instance().namesJoined()
            << "] [--shots N] "
               "[--probs] [--amps K] [--modify-h] [--optimize] [--seed S] "
               "[--stats[=text|json]] [--trace FILE] [--observable FILE] "
               "[--noise FILE] [--trajectories N] [--traj-offset N] "
               "[--threads N] [--save-state FILE] [--load-state FILE] "
               "[--warm-cache DIR] [--list-engines] "
               "<circuit.qasm|circuit.real>\n"
               "       sliqsim --merge-counts <shard.txt>...\n";
  return 2;
}

int listEngines() {
  const sliq::EngineRegistry& registry = sliq::EngineRegistry::instance();
  for (const std::string& name : sliq::engineNames())
    std::cout << name << " — " << registry.describe(name) << "\n";
  return 0;
}

bool endsWith(const std::string& s, const char* suffix) {
  const std::size_t len = std::strlen(suffix);
  return s.size() >= len && s.compare(s.size() - len, len, suffix) == 0;
}

/// CLI adapter over the pure parser in cli_options.hpp (which the unit
/// tests exercise directly): prints the error and reports success.
bool parseUnsigned(const char* flag, const char* text, std::uint64_t maxValue,
                   std::uint64_t* out) {
  const std::string error = sliq::cli::parseUnsigned(flag, text, maxValue, out);
  if (error.empty()) return true;
  std::cerr << "error: " << error << "\n";
  return false;
}

bool parseUnsigned(const char* flag, const char* text, unsigned* out) {
  std::uint64_t value = 0;
  if (!parseUnsigned(flag, text, std::numeric_limits<unsigned>::max(),
                     &value)) {
    return false;
  }
  *out = static_cast<unsigned>(value);
  return true;
}

/// Renders the requested telemetry: the --stats report to stdout and/or the
/// --trace Chrome timeline to its file. Returns false only on a trace I/O
/// failure (the caller exits nonzero).
bool emitTelemetry(const Options& opt, const sliq::metrics::RunReport& report,
                   const sliq::metrics::Registry& registry) {
  if (opt.stats) {
    if (opt.statsFormat == "json") {
      std::cout << report.toJson() << "\n";
    } else {
      std::cout << report.toText();
    }
  }
  if (!opt.tracePath.empty()) {
    std::ofstream out(opt.tracePath);
    if (!out) {
      std::cerr << "error: cannot open --trace file '" << opt.tracePath
                << "'\n";
      return false;
    }
    registry.writeChromeTrace(out);
    if (!out) {
      std::cerr << "error: failed writing --trace file '" << opt.tracePath
                << "'\n";
      return false;
    }
  }
  return true;
}

/// The run report of a CLI engine that never ran itself but absorbed the
/// registries of the engines that did (per-shot dynamic re-execution, noise
/// trajectories). Its own runMetrics() would overwrite the aggregated
/// counters with its native (zero) totals, so the report is assembled from
/// the merged registry instead.
sliq::metrics::RunReport aggregatedReport(sliq::Engine& engine) {
  engine.metrics().gaugeSet(
      "threads.resolved",
      static_cast<double>(engine.resolvedExecutionThreads()));
  engine.metrics().gaugeMax("rss.high_water_bytes",
                            static_cast<double>(sliq::peakRssBytes()));
  sliq::metrics::RunReport report;
  report.engine = engine.name();
  report.qubits = engine.numQubits();
  report.metrics = engine.metrics().snapshot();
  sliq::metrics::pinCommonSchemaKeys(report.metrics);
  return report;
}

/// Stage 2, the pipeline's one engine: with telemetry on, the engine's
/// registry is enabled and absorbs the pre-engine CLI phases
/// (parse, optimize, dispatch); --threads partitions single-circuit
/// execution unless --noise claims it for trajectory fan-out.
std::unique_ptr<sliq::Engine> makeCliEngine(
    const std::string& name, unsigned numQubits, const Options& opt,
    const sliq::metrics::Registry& cliMetrics, bool telemetry) {
  std::unique_ptr<sliq::Engine> engine = sliq::makeEngine(name, numQubits);
  if (telemetry) {
    engine->metrics().enable();
    engine->metrics().merge(cliMetrics);
  }
  if (opt.threadsGiven && opt.noisePath.empty()) {
    engine->setExecutionThreads(opt.threads);
  }
  return engine;
}

// ---- state snapshots -------------------------------------------------------

void saveEngineState(sliq::Engine& engine, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    throw std::runtime_error("cannot open snapshot file '" + path +
                             "' for writing");
  }
  engine.saveState(out);
  out.flush();
  if (!out) {
    throw std::runtime_error("failed writing snapshot file '" + path + "'");
  }
}

std::ifstream openSnapshot(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("cannot open snapshot file '" + path + "'");
  }
  return in;
}

void loadEngineState(sliq::Engine& engine, const std::string& path) {
  std::ifstream in = openSnapshot(path);
  engine.loadState(in);
}

// ---- warm-start cache ------------------------------------------------------
// Key helpers (circuitPrefixDigest / warmCachePath) live in warm_cache.hpp
// so the key contract — including the resolved-engine-only rule under
// --engine auto — is unit-tested directly.

/// Prepares the post-circuit state through the --warm-cache DIR snapshot
/// cache: the longest cached prefix of `circuit` is restored instead of
/// re-simulated (a full-circuit hit skips the gate loop entirely —
/// counter warm_cache.hit), the remaining gates are applied on top, and
/// the full-circuit state is written back so the next run hits. Restored
/// states pass the same snapshot validation as --load-state, so a corrupt
/// cache entry is a hard error, never a wrong state.
void runWithWarmCache(sliq::Engine& engine, const sliq::QuantumCircuit& circuit,
                      const Options& opt) {
  namespace fs = std::filesystem;
  using sliq::metrics::ScopedSpan;
  fs::create_directories(opt.warmCacheDir);

  const std::size_t gateCount = circuit.gateCount();
  std::size_t hitGates = 0;
  std::string hitPath;
  for (std::size_t len = gateCount; len >= 1; --len) {
    const std::string path =
        warmCachePath(opt.warmCacheDir, engine.name(), circuit.numQubits(),
                      circuitPrefixDigest(circuit, len));
    if (fs::exists(path)) {
      hitGates = len;
      hitPath = path;
      break;
    }
  }

  if (hitGates == gateCount && gateCount > 0) {
    loadEngineState(engine, hitPath);
    engine.metrics().add("warm_cache.hit");
    std::cout << "warm-cache: hit (" << gateCount << "/" << gateCount
              << " gates) — restored " << hitPath << "\n";
    return;
  }
  if (hitGates > 0) {
    loadEngineState(engine, hitPath);
    engine.metrics().add("warm_cache.partial");
    std::cout << "warm-cache: partial hit (" << hitGates << "/" << gateCount
              << " gates) — restored " << hitPath << "\n";
    const ScopedSpan span(engine.metrics(), "gate_loop");
    for (std::size_t i = hitGates; i < gateCount; ++i) {
      engine.applyGate(circuit.gate(i));
    }
  } else {
    engine.metrics().add("warm_cache.miss");
    engine.run(circuit);
  }
  const std::string fullPath =
      warmCachePath(opt.warmCacheDir, engine.name(), circuit.numQubits(),
                    circuitPrefixDigest(circuit, gateCount));
  saveEngineState(engine, fullPath);
  std::cout << "warm-cache: stored " << fullPath << "\n";
}

// ---- shard-histogram merging -----------------------------------------------

/// --merge-counts: sums the "<bits>  <count>" rows of every input file
/// (narration lines are passed over; malformed rows and mixed register
/// widths are hard errors). Pure text processing — no engine, no circuit.
/// The merged histogram goes to stdout in sorted order (the trajectory
/// runner's own order), the summary line to stderr, so stdout diffs
/// bit-identically against a monolithic run's histogram rows.
int mergeCountsMain(const Options& opt) {
  std::map<std::string, std::uint64_t> merged;
  std::size_t width = 0;
  std::string widthFile;
  std::uint64_t total = 0;
  for (const std::string& file : opt.inputs) {
    std::ifstream in(file);
    if (!in) {
      std::cerr << "error: cannot open counts file '" << file << "'\n";
      return 1;
    }
    std::string line;
    std::size_t lineNo = 0;
    while (std::getline(in, line)) {
      ++lineNo;
      std::string bits;
      std::uint64_t count = 0;
      bool isCountsLine = false;
      const std::string error =
          sliq::cli::parseCountsLine(line, &bits, &count, &isCountsLine);
      if (!error.empty()) {
        std::cerr << "error: " << file << ":" << lineNo << ": " << error
                  << "\n";
        return 1;
      }
      if (!isCountsLine) continue;
      if (width == 0) {
        width = bits.size();
        widthFile = file;
      } else if (bits.size() != width) {
        std::cerr << "error: " << file << ":" << lineNo
                  << ": bitstring width " << bits.size()
                  << " does not match width " << width << " from '"
                  << widthFile << "' (shards of one run share one register)\n";
        return 1;
      }
      merged[bits] += count;
      total += count;
    }
    if (in.bad()) {
      std::cerr << "error: I/O error reading '" << file << "'\n";
      return 1;
    }
  }
  for (const auto& [bits, count] : merged)
    std::cout << bits << "  " << count << "\n";
  std::cerr << "merged " << total << " count(s) from " << opt.inputs.size()
            << " file(s)\n";
  return 0;
}

// ---- pipeline stages -------------------------------------------------------

/// Stage 1 for a circuit run: parses the .real or OpenQASM 2.0 file under
/// the "parse" span.
sliq::QuantumCircuit parseCircuit(const Options& opt,
                                  sliq::metrics::Registry& cliMetrics) {
  using namespace sliq;
  const metrics::ScopedSpan span(cliMetrics, "parse");
  if (!endsWith(opt.path, ".real")) return parseQasmFile(opt.path);
  const RealProgram program = parseRealFile(opt.path);
  return opt.modifyH ? modifyWithHadamards(program)
                     : instantiateOriginal(program, opt.seed);
}

/// Stage 4 under --noise: Monte-Carlo trajectories on worker engines whose
/// registries `engine` absorbs. Prints the trajectory-mean <O> under
/// --observable, the shot histogram otherwise.
void runNoise(const Options& opt, const sliq::QuantumCircuit& circuit,
              const sliq::PauliObservable& observable, sliq::Engine& engine) {
  using namespace sliq;
  const noise::NoiseModel model = noise::NoiseModel::parseFile(opt.noisePath);
  std::cout << "noise: " << model.summary() << "\n";
  noise::TrajectoryOptions traj;
  traj.trajectories = opt.trajectories;
  traj.firstTrajectory = opt.trajOffset;
  traj.threads = opt.threads;
  traj.seed = opt.seed;
  traj.metrics = engine.metrics().enabled() ? &engine.metrics() : nullptr;
  // The closing line, shared by the expectation and the histogram result.
  const auto finish = [&](const auto& result) {
    std::cout << "ran " << result.trajectories << " trajectories in "
              << result.seconds << " s ("
              << static_cast<std::uint64_t>(result.trajectoriesPerSecond())
              << " traj/s, " << result.threadsUsed << " thread"
              << (result.threadsUsed == 1 ? "" : "s") << ", "
              << (result.usedPauliFrameFastPath ? "pauli-frame fast path"
                                                : "generic path")
              << ", " << engine.name() << ")\n";
  };
  if (!opt.observablePath.empty()) {
    // Noisy expectation: the trajectory-mean of engine-exact <O>,
    // bit-identical for every --threads under a fixed --seed (printed with
    // full precision so determinism diffs would catch any drift).
    const noise::ExpectationResult result = noise::runTrajectoryExpectation(
        engine, circuit, model, observable, traj);
    std::cout << "<O> = " << std::setprecision(17) << result.mean
              << std::setprecision(6) << "  (stat. error "
              << result.standardError << " over " << result.trajectories
              << " trajectories)\n";
    finish(result);
    return;
  }
  const noise::TrajectoryResult result =
      noise::runTrajectories(engine, circuit, model, traj);
  for (const auto& [bits, count] : result.counts)
    std::cout << bits << "  " << count << "\n";
  finish(result);
}

/// Stage 4: executes `circuit` — noise trajectories, or the pre-run state
/// (|0...0> or a resumed --load-state snapshot) followed by the per-shot
/// dynamic, single dynamic, warm-cache or static run. Returns true when
/// the work ran on other engines whose registries `engine` absorbed (noise
/// trajectories, per-shot dynamic re-execution): `engine` then holds no
/// result state to snapshot or query, and its report is the aggregate.
bool execute(const Options& opt, const sliq::QuantumCircuit& circuit,
             const sliq::PauliObservable& observable, sliq::Engine& engine,
             sliq::Rng& rng) {
  using namespace sliq;
  if (!opt.noisePath.empty()) {
    runNoise(opt, circuit, observable, engine);
    return true;
  }
  // Resume semantics: the restored snapshot replaces |0...0> as the pre-run
  // state, and the circuit (if any gates follow) applies on top.
  if (!opt.loadStatePath.empty()) {
    loadEngineState(engine, opt.loadStatePath);
    std::cout << "resumed: " << engine.name() << " state from "
              << opt.loadStatePath << "\n";
  }
  WallTimer timer;
  if (circuit.isDynamic() && opt.shots > 0) {
    // Per-shot re-execution: mid-circuit collapse makes each shot a fresh
    // run of the whole circuit; the shared Rng advances across shots (one
    // deviate per executed measure/reset), so the shot stream is a pure
    // function of --seed — and identical across engines, the property the
    // determinism smoke diffs.
    for (unsigned s = 0; s < opt.shots; ++s) {
      const std::unique_ptr<Engine> shotEngine =
          makeEngine(engine.name(), circuit.numQubits());
      if (engine.metrics().enabled()) shotEngine->metrics().enable();
      const DynamicRun run = shotEngine->runDynamic(circuit, rng);
      std::cout << "shot " << s << ": " << bitsToString(run.creg) << "\n";
      if (engine.metrics().enabled()) {
        // Fold the shot engine's native totals into its registry, then
        // aggregate: counters sum across shots, gauges high-water.
        shotEngine->runMetrics();
        engine.metrics().merge(shotEngine->metrics());
      }
    }
    std::cout << "executed " << opt.shots
              << " dynamic shots (classical register bits, per-shot "
                 "re-execution) in "
              << timer.seconds() << " s (" << engine.name() << ")\n";
    return true;
  }
  if (circuit.isDynamic()) {
    const DynamicRun run = engine.runDynamic(circuit, rng);
    std::cout << "simulated in " << timer.seconds() << " s (" << engine.name()
              << ", dynamic)\n";
    std::cout << "creg: " << bitsToString(run.creg) << "\n";
  } else {
    if (opt.warmCacheDir.empty()) {
      engine.run(circuit);
    } else {
      runWithWarmCache(engine, circuit, opt);
    }
    std::cout << "simulated in " << timer.seconds() << " s (" << engine.name()
              << ")\n";
  }
  const std::string summary = engine.runSummary();
  if (!summary.empty()) std::cout << summary << "\n";
  return false;
}

/// Stage 6: the ideal-state queries (--observable/--probs/--amps/--shots),
/// in that order, against the engine's single state.
void runStateQueries(const Options& opt, sliq::Engine& engine,
                     const sliq::PauliObservable& observable, sliq::Rng& rng) {
  using namespace sliq;
  if (!opt.observablePath.empty()) {
    // Exact expectations, one native contraction per string — the state
    // is never collapsed, so the queries below still see the same state.
    WallTimer obsTimer;
    double total = 0;
    for (const PauliString& term : observable.terms()) {
      const double value = engine.expectation(singleStringObservable(term));
      total += term.coefficient * value;
      std::cout << "<" << term.pauliText() << "> = " << std::setprecision(12)
                << value << " (coefficient " << term.coefficient << ")\n";
    }
    std::cout << "<O> = " << std::setprecision(12) << total << " in "
              << std::setprecision(6) << obsTimer.seconds() << " s\n";
  }
  if (opt.probs) {
    for (unsigned q = 0; q < engine.numQubits(); ++q)
      std::cout << "Pr[q" << q << "=1] = " << engine.probabilityOne(q)
                << "\n";
  }
  if (opt.amps > 0) {
    for (const auto& [index, value] : engine.nonzeroAmplitudes(opt.amps))
      std::cout << "amp[" << index << "] = " << value << "\n";
  }
  if (opt.shots > 0) {
    // Batched path: per-state setup (weight traversal, cumulative
    // distribution, ...) amortized across each chunk. Chunking keeps
    // memory bounded and the output streaming for huge shot counts.
    constexpr unsigned kChunk = 1u << 16;
    const metrics::ScopedSpan span(engine.metrics(), "sampling");
    double sampleSeconds = 0;
    for (unsigned done = 0; done < opt.shots;) {
      const unsigned batch = std::min(kChunk, opt.shots - done);
      WallTimer batchTimer;
      const std::vector<std::vector<bool>> shots =
          engine.sampleShots(batch, rng);
      sampleSeconds += batchTimer.seconds();
      for (std::size_t s = 0; s < shots.size(); ++s)
        std::cout << "shot " << done + s << ": " << bitsToString(shots[s])
                  << "\n";
      done += batch;
    }
    std::cout << "sampled " << opt.shots << " shots in " << sampleSeconds
              << " s\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sliq;
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    auto nextPath = [&](const char* flag, std::string* out,
                        const char* what) -> bool {
      const char* v = next();
      if (v == nullptr || *v == '\0') {
        std::cerr << "error: " << flag << " requires " << what << "\n";
        return false;
      }
      *out = v;
      return true;
    };
    if (arg == "--engine") {
      const char* v = next();
      if (v == nullptr) return usage();
      opt.engine = v;
      opt.engineGiven = true;
    } else if (arg == "--shots") {
      if (!parseUnsigned("--shots", next(), &opt.shots)) return 2;
    } else if (arg == "--probs") {
      opt.probs = true;
    } else if (arg == "--amps") {
      if (!parseUnsigned("--amps", next(), &opt.amps)) return 2;
    } else if (arg == "--modify-h") {
      opt.modifyH = true;
    } else if (arg == "--optimize") {
      opt.optimize = true;
    } else if (arg == "--seed") {
      if (!parseUnsigned("--seed", next(),
                         std::numeric_limits<std::uint64_t>::max(),
                         &opt.seed)) {
        return 2;
      }
    } else if (arg == "--stats") {
      opt.stats = true;
    } else if (arg.rfind("--stats=", 0) == 0) {
      opt.stats = true;
      opt.statsFormat = arg.substr(std::strlen("--stats="));
    } else if (arg == "--trace") {
      if (!nextPath("--trace", &opt.tracePath, "an output file path"))
        return 2;
    } else if (arg == "--noise") {
      if (!nextPath("--noise", &opt.noisePath, "a spec file path")) return 2;
    } else if (arg == "--observable") {
      if (!nextPath("--observable", &opt.observablePath, "a spec file path"))
        return 2;
    } else if (arg == "--trajectories") {
      if (!parseUnsigned("--trajectories", next(), &opt.trajectories))
        return 2;
      opt.trajectoriesGiven = true;
    } else if (arg == "--traj-offset") {
      if (!parseUnsigned("--traj-offset", next(), &opt.trajOffset)) return 2;
      opt.trajOffsetGiven = true;
    } else if (arg == "--threads") {
      // 0 is the auto-detect sentinel; cap the explicit count well below
      // anything spawnable so a typo cannot fork-bomb the host.
      std::uint64_t threads = 0;
      if (!parseUnsigned("--threads", next(), 1024, &threads)) return 2;
      opt.threads = static_cast<unsigned>(threads);
      opt.threadsGiven = true;
    } else if (arg == "--save-state") {
      if (!nextPath("--save-state", &opt.saveStatePath,
                    "a snapshot file path")) {
        return 2;
      }
    } else if (arg == "--load-state") {
      if (!nextPath("--load-state", &opt.loadStatePath,
                    "a snapshot file path")) {
        return 2;
      }
    } else if (arg == "--warm-cache") {
      if (!nextPath("--warm-cache", &opt.warmCacheDir,
                    "a cache directory path")) {
        return 2;
      }
    } else if (arg == "--merge-counts") {
      opt.mergeCounts = true;
    } else if (arg == "--list-engines") {
      return listEngines();
    } else if (!arg.empty() && arg[0] == '-') {
      return usage();
    } else {
      opt.inputs.push_back(arg);
    }
  }
  if (!opt.mergeCounts) {
    if (opt.inputs.size() > 1) {
      std::cerr << "error: expected one circuit file, got "
                << opt.inputs.size()
                << " positional arguments (multiple inputs are only for "
                   "--merge-counts)\n";
      return 2;
    }
    if (!opt.inputs.empty()) opt.path = opt.inputs.front();
    if (opt.path.empty() && opt.loadStatePath.empty()) return usage();
  }
  // Flag-combination rules live in cli_options.hpp (unit-tested directly).
  if (const std::string error = sliq::cli::validateOptions(opt);
      !error.empty()) {
    std::cerr << "error: " << error << "\n";
    return 2;
  }
  if (opt.mergeCounts) return mergeCountsMain(opt);

  // Telemetry recorded before the engine exists (parse, optimize) lands in
  // a CLI-local registry and is merged into the engine's afterwards — all
  // registries share the process-global epoch, so the phases line up on one
  // timeline.
  const bool telemetry = opt.stats || !opt.tracePath.empty();
  metrics::Registry cliMetrics;
  if (telemetry) cliMetrics.enable();

  // One pipeline for every mode: source -> engine -> observable ->
  // execute -> snapshot -> queries -> telemetry. With no circuit argument
  // the --load-state snapshot is the source and nothing executes.
  try {
    // 1. Source: the (optimized, planned) circuit, or the snapshot header.
    std::optional<QuantumCircuit> circuit;
    std::string engineName = opt.engine;
    unsigned numQubits = 0;
    if (opt.path.empty()) {
      std::ifstream in = openSnapshot(opt.loadStatePath);
      const serialize::SnapshotInfo info = serialize::readSnapshotInfo(in);
      // --engine overrides the header's representation (loadState then
      // rejects the mismatch with a clear diagnostic rather than silently
      // ignoring the user's flag).
      if (!opt.engineGiven) engineName = info.representation;
      numQubits = info.numQubits;
    } else {
      circuit = parseCircuit(opt, cliMetrics);
      std::cout << "loaded: " << circuit->summary() << "\n";
      // Rules that depend on whether the circuit is dynamic (mid-circuit
      // measure/reset/classical control) — checkable only after parsing.
      if (const std::string error =
              sliq::cli::validateDynamic(opt, circuit->isDynamic());
          !error.empty()) {
        std::cerr << "error: " << error << "\n";
        return 2;
      }
      if (opt.optimize) {
        const metrics::ScopedSpan span(cliMetrics, "optimize");
        OptimizerReport report;
        circuit = optimizeCircuit(*circuit, &report);
        std::cout << "optimized: " << report.gatesBefore << " -> "
                  << report.gatesAfter << " gates\n";
      }
      // --engine auto: score every registered engine against the circuit's
      // features and run the cheapest feasible one exactly as if it had
      // been named (DESIGN.md §13). The plan's dispatch.* gauges land in
      // the CLI registry, so --stats reports them; the rationale prints
      // always.
      if (sliq::cli::isAutoEngine(opt)) {
        const metrics::ScopedSpan span(cliMetrics, "dispatch");
        const EnginePlan plan = planEngine(*circuit);
        recordPlan(plan, cliMetrics);
        engineName = plan.chosen;
        std::cout << planRationale(plan);
      }
      numQubits = circuit->numQubits();
    }

    // 2. Engine: the one code path for every mode, name -> registry ->
    // facade. In query mode the snapshot body becomes its state.
    const std::unique_ptr<Engine> engine =
        makeCliEngine(engineName, numQubits, opt, cliMetrics, telemetry);
    if (!circuit) {
      loadEngineState(*engine, opt.loadStatePath);
      std::cout << "loaded state: " << engine->name() << ", "
                << engine->numQubits() << " qubits (" << opt.loadStatePath
                << ")\n";
    } else if (!engine->supports(*circuit)) {
      std::cerr << "error: engine '" << engine->name()
                << "' does not support this circuit ("
                << EngineRegistry::instance().describe(engine->name())
                << ")\n";
      return 1;
    }

    // 3. Observable, validated against the engine's width.
    PauliObservable observable;
    if (!opt.observablePath.empty()) {
      observable = PauliObservable::parseFile(opt.observablePath);
      observable.validateForWidth(engine->numQubits());
      std::cout << "observable: " << observable.summary() << "\n";
    }

    // 4. Execute.
    Rng rng(opt.seed);
    const bool absorbed =
        circuit && execute(opt, *circuit, observable, *engine, rng);

    if (!absorbed) {
      // 5. Snapshot the single final state.
      if (!opt.saveStatePath.empty()) {
        saveEngineState(*engine, opt.saveStatePath);
        std::cout << "saved state: " << opt.saveStatePath << "\n";
      }
      // 6. Query it.
      runStateQueries(opt, *engine, observable, rng);
    }

    // 7. Telemetry.
    if (telemetry &&
        !emitTelemetry(opt,
                       absorbed ? aggregatedReport(*engine)
                                : engine->runMetrics(),
                       engine->metrics())) {
      return 1;
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
