// BDD kernel edge cases: constant handling, deep chains (recursion depth),
// ref-count saturation, cache correctness across GC, and cube corner cases.
#include <gtest/gtest.h>

#include "bdd/bdd.hpp"
#include "bdd/manager.hpp"
#include "support/rng.hpp"

namespace sliq::bdd {
namespace {

TEST(BddEdge, IteConstantArguments) {
  BddManager mgr(BddManager::Config{.initialVars = 2});
  Bdd a = makeVar(mgr, 0), b = makeVar(mgr, 1);
  Bdd one(&mgr, kTrueEdge), zero(&mgr, kFalseEdge);
  EXPECT_EQ(one.ite(a, b), a);
  EXPECT_EQ(zero.ite(a, b), b);
  EXPECT_EQ(a.ite(one, zero), a);
  EXPECT_EQ(a.ite(zero, one), ~a);
  EXPECT_EQ(a.ite(a, b), a | b);
  EXPECT_EQ(a.ite(~a, b), ~a & b);
  EXPECT_EQ(a.ite(b, a), a & b);
  EXPECT_EQ(a.ite(b, ~a), a.ite(b, kTrueEdge == kTrueEdge ? ~a : a));
}

TEST(BddEdge, DeepChainNoStackOverflow) {
  // 20000 variables: the recursion in ITE/cofactor follows one chain.
  // Both chains are built bottom-up, so each step is a constant-depth ITE
  // and construction stays linear; the full-depth recursions come after.
  constexpr unsigned kVars = 20000;
  BddManager mgr(BddManager::Config{.initialVars = kVars});
  Bdd acc(&mgr, kTrueEdge);
  for (unsigned v = kVars; v-- > 0;) acc = makeVar(mgr, v) & acc;
  EXPECT_EQ(acc.nodeCount(), kVars);
  // Conjoining the bottom variable again recurses ITE through every level.
  EXPECT_EQ(acc & makeVar(mgr, kVars - 1), acc);
  // Cofactor at the bottom forces a full-depth traversal.
  Bdd cof = acc.cofactor(kVars - 1, true);
  EXPECT_EQ(cof.nodeCount(), kVars - 1);
  // XOR chain (complement-edge heavy) at the same depth.
  Bdd x(&mgr, kFalseEdge);
  for (unsigned v = kVars; v-- > 0;) x = makeVar(mgr, v) ^ x;
  std::vector<bool> point(kVars, true);
  EXPECT_EQ(x.eval(point), kVars % 2 == 1);
}

TEST(BddEdge, CofactorOfConstant) {
  BddManager mgr(BddManager::Config{.initialVars = 2});
  Bdd one(&mgr, kTrueEdge);
  EXPECT_EQ(one.cofactor(0, true), one);
  EXPECT_EQ((~one).cofactor(1, false), ~one);
}

TEST(BddEdge, CubeWithSingleLiteral) {
  BddManager mgr(BddManager::Config{.initialVars = 3});
  Bdd cube(&mgr, mgr.cubeEdge({{2, false}}));
  EXPECT_EQ(cube, ~makeVar(mgr, 2));
}

TEST(BddEdge, RestrictCubeOverridesToConstant) {
  BddManager mgr(BddManager::Config{.initialVars = 3});
  Bdd a = makeVar(mgr, 0), b = makeVar(mgr, 1), c = makeVar(mgr, 2);
  Bdd f = (a & b) | (~a & c);
  EXPECT_EQ(f.cofactorCube({{0, true}, {1, true}}),
            Bdd(&mgr, kTrueEdge));
  EXPECT_EQ(f.cofactorCube({{0, true}, {1, false}}),
            Bdd(&mgr, kFalseEdge));
}

TEST(BddEdge, SharedSubgraphsAcrossManyFunctions) {
  BddManager mgr(BddManager::Config{.initialVars = 10});
  Rng rng(6);
  std::vector<Bdd> funcs;
  Bdd base = makeVar(mgr, 8) & makeVar(mgr, 9);
  for (int i = 0; i < 50; ++i) {
    Bdd f = base;
    for (int d = 0; d < 4; ++d)
      f = f ^ makeVar(mgr, static_cast<unsigned>(rng.below(8)));
    funcs.push_back(f);
  }
  std::vector<Edge> roots;
  for (const Bdd& f : funcs) roots.push_back(f.edge());
  // Shared count is far below the sum of individual counts.
  std::size_t individual = 0;
  for (const Bdd& f : funcs) individual += f.nodeCount();
  EXPECT_LT(mgr.nodeCountMulti(roots) * 2, individual);
}

TEST(BddEdge, GcBetweenCachedOperations) {
  BddManager::Config cfg;
  cfg.initialVars = 8;
  cfg.gcThreshold = 64;  // extremely aggressive
  BddManager mgr(cfg);
  Rng rng(12);
  // Interleave computation and implicit GC; results must stay correct.
  for (int round = 0; round < 200; ++round) {
    Bdd f = makeVar(mgr, static_cast<unsigned>(rng.below(8)));
    Bdd g = makeVar(mgr, static_cast<unsigned>(rng.below(8)));
    Bdd h = (f & g) | (~f & ~g);
    // XNOR truth check at two points.
    std::vector<bool> p1(8, false), p2(8, false);
    p2[mgr.edgeVar(f.edge())] = true;
    EXPECT_TRUE(h.eval(p1));
    if (f != g) {
      EXPECT_FALSE(h.eval(p2));
    }
  }
  mgr.checkConsistency();
}

TEST(BddEdge, VarEdgeSurvivesGc) {
  BddManager mgr(BddManager::Config{.initialVars = 4});
  const Edge before = mgr.varEdge(2);
  mgr.garbageCollect();  // projection had no handle: may be reclaimed
  const Edge after = mgr.varEdge(2);  // must be recreated canonically
  Bdd v(&mgr, after);
  EXPECT_TRUE(v.eval({false, false, true, false}));
  (void)before;
  mgr.checkConsistency();
}

TEST(BddEdge, SupportOfConstantsEmpty) {
  BddManager mgr(BddManager::Config{.initialVars = 4});
  EXPECT_TRUE(mgr.supportVars(kTrueEdge).empty());
  EXPECT_TRUE(mgr.supportVars(kFalseEdge).empty());
  EXPECT_EQ(mgr.nodeCount(kTrueEdge), 0u);
  EXPECT_DOUBLE_EQ(mgr.satFraction(kFalseEdge), 0.0);
}

TEST(BddEdge, EvalRespectsComplementParity) {
  BddManager mgr(BddManager::Config{.initialVars = 3});
  Bdd a = makeVar(mgr, 0), b = makeVar(mgr, 1), c = makeVar(mgr, 2);
  Bdd f = ~((a ^ ~b) & ~(b | ~c));
  for (unsigned row = 0; row < 8; ++row) {
    const bool va = row & 1, vb = row & 2, vc = row & 4;
    const bool expected = !(((va != !vb)) && !(vb || !vc));
    EXPECT_EQ(f.eval({va, vb, vc}), expected) << row;
  }
}

}  // namespace
}  // namespace sliq::bdd
