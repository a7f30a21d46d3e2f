// Boolean function manipulation: ITE, restriction (cofactors), cubes, eval.
#include <algorithm>

#include "bdd/manager.hpp"
#include "support/assert.hpp"
#include "support/hash.hpp"

namespace sliq::bdd {

namespace {

// Operation tags for computed-cache keys. Packed into the low byte of key2's
// upper half so that distinct operations never collide.
enum class Op : std::uint64_t {
  kIte = 1,
  kRestrict0 = 2,
  kRestrict1 = 3,
};

std::uint64_t packKey1(Edge f, Edge g) {
  return (static_cast<std::uint64_t>(f.raw) << 32) | g.raw;
}
std::uint64_t packKey2(Op op, std::uint64_t extra) {
  return (extra << 8) | static_cast<std::uint64_t>(op);
}

/// RAII guard marking an operation in flight (blocks GC re-entry).
class OpGuard {
 public:
  explicit OpGuard(bool& flag) : flag_(flag) {
    SLIQ_ASSERT(!flag_);
    flag_ = true;
  }
  ~OpGuard() { flag_ = false; }

 private:
  bool& flag_;
};

}  // namespace

Edge BddManager::ite(Edge f, Edge g, Edge h) {
  maybeGc();
  OpGuard guard(inOperation_);
  return iteRec(f, g, h);
}

Edge BddManager::iteRec(Edge f, Edge g, Edge h) {
  // Terminal and absorption cases.
  if (f == kTrueEdge) return g;
  if (f == kFalseEdge) return h;
  if (g == h) return g;
  if (g == kTrueEdge && h == kFalseEdge) return f;
  if (g == kFalseEdge && h == kTrueEdge) return !f;
  if (g == f) g = kTrueEdge;
  else if (g == !f) g = kFalseEdge;
  if (h == f) h = kFalseEdge;
  else if (h == !f) h = kTrueEdge;
  if (g == h) return g;
  if (g == kTrueEdge && h == kFalseEdge) return f;
  if (g == kFalseEdge && h == kTrueEdge) return !f;

  // Canonicalize commutative forms to improve cache hit rates.
  if (g == kTrueEdge) {  // OR(f, h)
    if (edgeLevel(h) < edgeLevel(f)) std::swap(f, h);
  } else if (h == kFalseEdge) {  // AND(f, g)
    if (edgeLevel(g) < edgeLevel(f)) std::swap(f, g);
  } else if (h == !g) {  // XNOR(f, g) is symmetric in f and g
    if (edgeLevel(g) < edgeLevel(f)) {
      std::swap(f, g);
      h = !g;
    }
  }
  // Complement canonicalization: the first argument is regular...
  if (f.complemented()) {
    std::swap(g, h);
    f = !f;
  }
  // ...and so is the second, with the complement moved to the output.
  bool outputComplement = false;
  if (g.complemented()) {
    g = !g;
    h = !h;
    outputComplement = true;
  }

  const std::uint64_t key1 = packKey1(f, g);
  const std::uint64_t key2 = packKey2(Op::kIte, h.raw);
  Edge cached;
  if (cacheLookup(key1, key2, &cached))
    return outputComplement ? !cached : cached;

  const unsigned level =
      std::min({edgeLevel(f), edgeLevel(g), edgeLevel(h)});
  const unsigned var = levelToVar_[level];
  auto cof = [&](Edge e, bool positive) {
    if (edgeLevel(e) != level) return e;
    return positive ? thenEdge(e) : elseEdge(e);
  };
  const Edge hi = iteRec(cof(f, true), cof(g, true), cof(h, true));
  const Edge lo = iteRec(cof(f, false), cof(g, false), cof(h, false));
  const Edge result = makeNode(var, hi, lo);
  cacheInsert(key1, key2, result);
  return outputComplement ? !result : result;
}

Edge BddManager::restrict1(Edge f, unsigned var, bool value) {
  SLIQ_REQUIRE(var < varCount(), "restrict1: unknown variable");
  maybeGc();
  OpGuard guard(inOperation_);
  return restrict1Rec(f, var, varToLevel_[var], value);
}

Edge BddManager::restrict1Rec(Edge f, unsigned var, unsigned level,
                              bool value) {
  if (edgeLevel(f) > level) return f;  // var not in f's cone
  if (edgeLevel(f) == level) return value ? thenEdge(f) : elseEdge(f);

  // Keep the cached result canonical for complemented edges: restriction
  // commutes with negation, so cache on the regular edge only.
  const bool outputComplement = f.complemented();
  const Edge fr = outputComplement ? !f : f;
  const std::uint64_t key1 = packKey1(fr, Edge{var});
  const std::uint64_t key2 =
      packKey2(value ? Op::kRestrict1 : Op::kRestrict0, 0);
  Edge cached;
  if (cacheLookup(key1, key2, &cached))
    return outputComplement ? !cached : cached;

  const Edge hi = restrict1Rec(thenEdge(fr), var, level, value);
  const Edge lo = restrict1Rec(elseEdge(fr), var, level, value);
  const Edge result = makeNode(edgeVar(fr), hi, lo);
  cacheInsert(key1, key2, result);
  return outputComplement ? !result : result;
}

Edge BddManager::cubeEdge(const std::vector<Literal>& cube) {
  // Build bottom-up in descending level order so each makeNode call sees
  // children strictly below it.
  std::vector<Literal> sorted = cube;
  std::sort(sorted.begin(), sorted.end(), [&](const Literal& a, const Literal& b) {
    return varToLevel_[a.var] > varToLevel_[b.var];
  });
  maybeGc();
  OpGuard guard(inOperation_);
  Edge acc = kTrueEdge;
  for (const Literal& lit : sorted) {
    acc = lit.positive ? makeNode(lit.var, acc, kFalseEdge)
                       : makeNode(lit.var, kFalseEdge, acc);
  }
  return acc;
}

bool BddManager::evalPoint(Edge f, const std::vector<bool>& assignment) const {
  bool parity = false;
  while (!isConstant(f)) {
    const Node& n = nodes_[f.index()];
    parity ^= f.complemented();
    SLIQ_ASSERT(n.var < assignment.size());
    f = assignment[n.var] ? n.hi : n.lo;
  }
  parity ^= f.complemented();
  return !parity;  // the terminal is ONE; an even complement count keeps it
}

}  // namespace sliq::bdd
