#include <gtest/gtest.h>

#include "bdd/bdd.hpp"
#include "bdd/manager.hpp"
#include "support/rng.hpp"

namespace sliq::bdd {
namespace {

TEST(BddGc, ReclaimsDroppedFunctions) {
  BddManager mgr(BddManager::Config{.initialVars = 16});
  const std::size_t baseline = mgr.liveNodeCount();
  {
    Bdd acc(&mgr, kTrueEdge);
    for (unsigned v = 0; v < 16; ++v) acc = acc ^ makeVar(mgr, v);
    EXPECT_GT(mgr.liveNodeCount(), baseline);
  }
  mgr.garbageCollect();
  // Only projection nodes (if any were created) may survive; the XOR chain
  // itself is gone.
  EXPECT_LE(mgr.liveNodeCount(), baseline + 16);
  mgr.checkConsistency();
}

TEST(BddGc, LiveHandlesSurviveGc) {
  BddManager mgr(BddManager::Config{.initialVars = 8});
  Bdd a = makeVar(mgr, 0), b = makeVar(mgr, 1), c = makeVar(mgr, 2);
  Bdd f = (a & b) | (~b & c);
  mgr.garbageCollect();
  mgr.checkConsistency();
  // f still evaluates correctly after GC.
  EXPECT_TRUE(f.eval({true, true, false, false, false, false, false, false}));
  EXPECT_TRUE(f.eval({false, false, true, false, false, false, false, false}));
  EXPECT_FALSE(f.eval({false, true, false, false, false, false, false, false}));
}

TEST(BddGc, RebuildAfterGcIsCanonical) {
  BddManager mgr(BddManager::Config{.initialVars = 4});
  Edge before;
  {
    Bdd f = (makeVar(mgr, 0) & makeVar(mgr, 1)) ^ makeVar(mgr, 2);
    before = f.edge();
  }
  mgr.garbageCollect();
  Bdd g = (makeVar(mgr, 0) & makeVar(mgr, 1)) ^ makeVar(mgr, 2);
  // The function was reclaimed and rebuilt; it may or may not reuse the same
  // index, but it must be self-consistent and semantically right.
  EXPECT_TRUE(g.eval({true, true, false, false}));
  EXPECT_FALSE(g.eval({true, true, true, false}));
  mgr.checkConsistency();
  (void)before;
}

TEST(BddGc, StressRandomChurn) {
  BddManager::Config cfg;
  cfg.initialVars = 12;
  cfg.gcThreshold = 2000;  // force frequent collections
  BddManager mgr(cfg);
  Rng rng(99);
  std::vector<Bdd> pool;
  for (unsigned v = 0; v < 12; ++v) pool.push_back(makeVar(mgr, v));
  for (int iter = 0; iter < 3000; ++iter) {
    const std::size_t i = rng.below(pool.size());
    const std::size_t j = rng.below(pool.size());
    Bdd combined;
    switch (rng.below(3)) {
      case 0: combined = pool[i] & pool[j]; break;
      case 1: combined = pool[i] | ~pool[j]; break;
      default: combined = pool[i] ^ pool[j]; break;
    }
    if (pool.size() > 40) {
      pool[rng.below(pool.size())] = combined;  // drop one, keep churn
    } else {
      pool.push_back(combined);
    }
  }
  mgr.garbageCollect();
  mgr.checkConsistency();
  EXPECT_GT(mgr.stats().gcRuns, 0u);
}

TEST(BddGc, CofactorCubeResultSurvivesGc) {
  // Every restrict1 step of a cube cofactor is a GC point, so each
  // intermediate and the result must be owned by a handle before the next.
  BddManager mgr(BddManager::Config{.initialVars = 8});
  // f = v0 ⊕ (v1 ∧ v2) ⊕ v3. Restricting the *middle* variable v1 yields
  // v0 ⊕ v2 ⊕ v3, and then v3 = 0 yields v0 ⊕ v2: both roots are freshly
  // built nodes outside f's cone, alive only through the handles.
  Bdd f = makeVar(mgr, 0) ^ (makeVar(mgr, 1) & makeVar(mgr, 2)) ^
          makeVar(mgr, 3);
  const Bdd g = f.cofactorCube({{1, true}, {3, false}});
  // Force a GC, then churn the manager so that a wrongly reclaimed slot
  // would have been reused by now.
  mgr.garbageCollect();
  {
    Bdd churn(&mgr, kTrueEdge);
    for (unsigned v = 0; v < 8; ++v) churn = churn ^ makeVar(mgr, v);
  }
  mgr.garbageCollect();
  mgr.checkConsistency();
  // g must still be v0 ⊕ v2.
  for (unsigned assignment = 0; assignment < 16; ++assignment) {
    std::vector<bool> point(8, false);
    for (unsigned v = 0; v < 4; ++v) point[v] = ((assignment >> v) & 1) != 0;
    EXPECT_EQ(g.eval(point), point[0] ^ point[2]) << assignment;
  }
  mgr.checkConsistency();
}

TEST(BddGc, HandleCopySemantics) {
  BddManager mgr(BddManager::Config{.initialVars = 4});
  Bdd f = makeVar(mgr, 0) & makeVar(mgr, 1);
  Bdd copy = f;
  Bdd moved = std::move(f);
  EXPECT_EQ(copy, moved);
  copy = copy;  // self-assignment must be safe
  EXPECT_EQ(copy, moved);
  {
    Bdd tmp = copy;
    tmp = ~tmp;
    EXPECT_NE(tmp, copy);
  }
  mgr.garbageCollect();
  EXPECT_TRUE(moved.eval({true, true, false, false}));
  mgr.checkConsistency();
}

}  // namespace
}  // namespace sliq::bdd
