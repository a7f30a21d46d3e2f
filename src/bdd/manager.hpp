// The BDD node manager: unique tables, computed cache, garbage collection,
// dynamic variable creation and explicit sifting-based reordering
// (reorderSift; a simulator's manager is sifted through
// SliqSimulator::reorder(), which first unpins the measurement caches).
//
// This is the paper's "off-the-shelf BDD package" dependency (CUDD in the
// original), rebuilt from scratch. Design notes:
//
//  * Nodes are stored in one flat array and referenced by 32-bit indices;
//    edges carry a complement bit in the LSB (see types.hpp).
//  * One unique subtable per *level* (not per variable) so that adjacent-
//    level swaps during sifting and the level-ordered GC sweep are cheap.
//  * Reference counting: a node's count covers references from parent nodes
//    and from external `Bdd` handles. GC runs only at public-API boundaries,
//    so recursive operations never observe reclamation.
//  * The computed cache is direct-mapped and lossy; it is flushed on GC and
//    on reordering.
#pragma once

#include <cstdint>
#include <vector>

#include "bdd/types.hpp"

namespace sliq::metrics {
class Registry;
}

namespace sliq::bdd {

/// Cumulative event counters, each incremented at exactly one site:
/// createdNodes/peakLiveNodes in makeNode, gcRuns/gcReclaimed in
/// garbageCollect, cacheLookups/cacheHits in cacheLookup (hits strictly
/// after lookups, so hits <= lookups always), reorderings in reorderSift.
/// resetStats() zeroes them between runs.
struct ManagerStats {
  std::uint64_t createdNodes = 0;   // total makeNode insertions
  std::uint64_t gcRuns = 0;
  std::uint64_t gcReclaimed = 0;
  std::uint64_t cacheLookups = 0;
  std::uint64_t cacheHits = 0;
  std::uint64_t reorderings = 0;
  std::size_t peakLiveNodes = 0;
};

/// A (variable, phase) pair; phase true means the positive literal.
struct Literal {
  unsigned var = 0;
  bool positive = true;
};

class BddManager {
 public:
  struct Config {
    unsigned initialVars = 0;
    /// Hard cap on simultaneously live nodes; NodeLimitError beyond this.
    std::size_t maxLiveNodes = 80u << 20;
    /// log2 of computed-cache slots.
    unsigned cacheLog2 = 21;
    /// Run GC when live node count exceeds this (adapted upward after GC).
    std::size_t gcThreshold = 1u << 21;
  };

  BddManager();  // default Config
  explicit BddManager(const Config& config);
  BddManager(const BddManager&) = delete;
  BddManager& operator=(const BddManager&) = delete;
  ~BddManager();

  // ---- variables -------------------------------------------------------
  unsigned varCount() const { return static_cast<unsigned>(varToLevel_.size()); }
  /// Creates a fresh variable at the bottom of the order; returns its id.
  unsigned newVar();
  /// Projection function for variable v (must exist).
  Edge varEdge(unsigned v) const;
  unsigned levelOfVar(unsigned v) const { return varToLevel_[v]; }
  unsigned varAtLevel(unsigned level) const { return levelToVar_[level]; }

  // ---- structural accessors (read-only; valid while nodes are live) -----
  static bool isTerminal(Edge e) { return isConstant(e); }
  unsigned edgeVar(Edge e) const { return nodes_[e.index()].var; }
  unsigned edgeLevel(Edge e) const {
    return isConstant(e) ? kTerminalLevel : varToLevel_[nodes_[e.index()].var];
  }
  /// THEN/ELSE cofactor edges with the complement bit pushed through.
  Edge thenEdge(Edge e) const {
    const Node& n = nodes_[e.index()];
    return e.complemented() ? !n.hi : n.hi;
  }
  Edge elseEdge(Edge e) const {
    const Node& n = nodes_[e.index()];
    return e.complemented() ? !n.lo : n.lo;
  }

  // ---- reference counting (used by the Bdd handle) ----------------------
  void ref(Edge e);
  void deref(Edge e);

  // ---- Boolean operations ------------------------------------------------
  Edge ite(Edge f, Edge g, Edge h);
  Edge andE(Edge f, Edge g) { return ite(f, g, kFalseEdge); }
  Edge orE(Edge f, Edge g) { return ite(f, kTrueEdge, g); }
  Edge xorE(Edge f, Edge g) { return ite(f, !g, g); }
  Edge xnorE(Edge f, Edge g) { return ite(f, g, !g); }
  static Edge notE(Edge f) { return !f; }

  /// Cofactor with respect to a single literal (Shannon restriction).
  Edge restrict1(Edge f, unsigned var, bool value);
  /// Conjunction of literals as a BDD.
  Edge cubeEdge(const std::vector<Literal>& cube);

  /// Evaluate f under a complete assignment indexed by variable id.
  bool evalPoint(Edge f, const std::vector<bool>& assignment) const;

  // ---- analysis ----------------------------------------------------------
  /// Number of distinct decision nodes reachable from e (terminal excluded).
  std::size_t nodeCount(Edge e) const;
  /// Shared node count of a set of functions (terminal excluded).
  std::size_t nodeCountMulti(const std::vector<Edge>& roots) const;
  /// Fraction of assignments (over all current variables) satisfying f.
  double satFraction(Edge f) const;
  /// Variables in the true support of f, ascending by id.
  std::vector<unsigned> supportVars(Edge f) const;

  // ---- maintenance -------------------------------------------------------
  /// Reclaims all dead nodes now. Safe only between operations (public API).
  void garbageCollect();
  /// Sifting-based dynamic reordering (Rudell). Returns live-node delta.
  long reorderSift();

  std::size_t liveNodeCount() const { return liveNodes_; }
  const ManagerStats& stats() const { return stats_; }
  /// Zeroes the cumulative counters and re-seeds peakLiveNodes from the
  /// current live count, so per-run deltas start from a clean baseline.
  void resetStats();
  /// Approximate bytes held by node storage and caches.
  std::size_t memoryBytes() const;

  /// Observability hook (DESIGN.md §11): when set, GC runs emit "bdd.gc"
  /// spans into the engine's registry. Never owns the registry; nullptr
  /// (the default) disables tracing entirely.
  void setMetrics(metrics::Registry* registry) { metricsRegistry_ = registry; }

  /// Verifies unique-table canonicity and refcount consistency (tests).
  void checkConsistency() const;

  /// Deep structural audit (DESIGN.md §10): everything checkConsistency
  /// covers plus duplicate (var, then, else) triple detection, hash-bucket
  /// placement, freelist integrity, a full parent-reference recount
  /// (stored refcount must cover every parent edge; the surplus is the
  /// external Bdd-handle count, verified to reach zero at teardown), and
  /// computed-cache entry validity. Throws audit::AuditError naming the
  /// offending node on the first violation. O(allocated nodes).
  void auditInvariants() const;

 private:
  friend class Reorderer;
  friend struct AuditCorruptor;  // test-only deliberate corruption hooks

  struct Node {
    std::uint32_t var;
    std::uint32_t next;  // unique-table chain or freelist link
    Edge hi, lo;
    std::uint32_t ref;
  };

  struct Subtable {
    std::vector<std::uint32_t> buckets;  // heads; kNil for empty
    std::uint32_t count = 0;
  };

  struct CacheEntry {
    std::uint64_t key1 = ~0ULL;
    std::uint64_t key2 = ~0ULL;
    std::uint32_t result = 0;
    std::uint32_t valid = 0;
  };

  static constexpr std::uint32_t kNil = 0xffffffffu;
  static constexpr unsigned kTerminalLevel = 0x7fffffffu;

  Edge makeNode(std::uint32_t var, Edge hi, Edge lo);
  std::uint32_t allocNode();
  void maybeGc();
  void growSubtable(Subtable& st);
  static std::uint64_t nodeHash(std::uint32_t var, Edge hi, Edge lo);

  Edge iteRec(Edge f, Edge g, Edge h);
  Edge restrict1Rec(Edge f, unsigned var, unsigned level, bool value);

  bool cacheLookup(std::uint64_t key1, std::uint64_t key2, Edge* out);
  void cacheInsert(std::uint64_t key1, std::uint64_t key2, Edge value);
  void cacheClear();

  // Reordering internals (reorder.cpp).
  std::size_t swapLevels(unsigned level);  // swaps level and level+1
  void siftVar(unsigned var, std::size_t limitGrowth);

  Config config_;
  std::vector<Node> nodes_;
  std::vector<Subtable> subtables_;       // indexed by level
  std::vector<unsigned> varToLevel_;
  std::vector<unsigned> levelToVar_;
  std::vector<CacheEntry> cache_;
  std::uint64_t cacheMask_ = 0;
  std::uint32_t freeList_ = kNil;
  std::size_t liveNodes_ = 0;
  std::size_t gcThreshold_ = 0;
  bool gcPending_ = false;
  bool inOperation_ = false;
  ManagerStats stats_;
  metrics::Registry* metricsRegistry_ = nullptr;
};

}  // namespace sliq::bdd
