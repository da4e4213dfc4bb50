//===- tests/SolverTest.cpp - SMT-lite solver unit tests -------*- C++ -*-===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "smt/Solver.h"

#include "smt/Cooper.h"
#include "smt/Linear.h"
#include "smt/Simplify.h"

#include "BruteForce.h"

#include <gtest/gtest.h>

using namespace exo;
using namespace exo::smt;

namespace {

class SolverTest : public ::testing::Test {
protected:
  Solver S;
  TermVar X = freshVar("x", Sort::Int);
  TermVar Y = freshVar("y", Sort::Int);
  TermVar Z = freshVar("z", Sort::Int);
  TermRef Vx = mkVar(X);
  TermRef Vy = mkVar(Y);
  TermRef Vz = mkVar(Z);
};

TEST_F(SolverTest, GroundArithmeticFolds) {
  EXPECT_EQ(add(intConst(2), intConst(3))->intValue(), 5);
  EXPECT_EQ(mul(4, intConst(-2))->intValue(), -8);
  EXPECT_EQ(div(intConst(-1), 2)->intValue(), -1) << "floor division";
  EXPECT_EQ(mod(intConst(-1), 2)->intValue(), 1) << "floor modulo";
  EXPECT_TRUE(le(intConst(1), intConst(1))->boolValue());
  EXPECT_FALSE(lt(intConst(1), intConst(1))->boolValue());
}

TEST_F(SolverTest, GroundValidity) {
  EXPECT_EQ(S.checkValid(mkTrue()), SolverResult::Yes);
  EXPECT_EQ(S.checkValid(mkFalse()), SolverResult::No);
  EXPECT_EQ(S.checkValid(eq(intConst(2), intConst(2))), SolverResult::Yes);
}

TEST_F(SolverTest, ReflexiveAndSimpleFacts) {
  // x == x is valid.
  EXPECT_EQ(S.checkValid(eq(Vx, Vx)), SolverResult::Yes);
  // x <= x + 1 is valid.
  EXPECT_EQ(S.checkValid(le(Vx, add(Vx, intConst(1)))), SolverResult::Yes);
  // x < x is invalid.
  EXPECT_EQ(S.checkValid(lt(Vx, Vx)), SolverResult::No);
  // x == 0 is not valid (free var universally closed).
  EXPECT_EQ(S.checkValid(eq(Vx, intConst(0))), SolverResult::No);
  // but satisfiable.
  EXPECT_EQ(S.checkSat(eq(Vx, intConst(0))), SolverResult::Yes);
}

TEST_F(SolverTest, TransitivityOfLe) {
  TermRef F = implies(mkAnd(le(Vx, Vy), le(Vy, Vz)), le(Vx, Vz));
  EXPECT_EQ(S.checkValid(F), SolverResult::Yes);
}

TEST_F(SolverTest, QuantifiedSimple) {
  // forall x. exists y. y > x.
  TermRef F = forall(X, exists(Y, gt(Vy, Vx)));
  EXPECT_EQ(S.checkValid(F), SolverResult::Yes);
  // exists y. forall x. y > x  -- false over integers.
  TermRef G = exists(Y, forall(X, gt(Vy, Vx)));
  EXPECT_EQ(S.checkValid(G), SolverResult::No);
}

TEST_F(SolverTest, EvenOddDichotomy) {
  // forall x. (2 | x) or (2 | x + 1).
  TermRef F = forall(
      X, mkOr(eq(mod(Vx, 2), intConst(0)), eq(mod(add(Vx, intConst(1)), 2),
                                              intConst(0))));
  EXPECT_EQ(S.checkValid(F), SolverResult::Yes);
  // forall x. (2 | x) -- false.
  TermRef G = forall(X, eq(mod(Vx, 2), intConst(0)));
  EXPECT_EQ(S.checkValid(G), SolverResult::No);
}

TEST_F(SolverTest, DivisionFloorSemantics) {
  // forall x. x - (x / 3) * 3 == x mod 3.
  TermRef F = forall(
      X, eq(sub(Vx, mul(3, div(Vx, 3))), mod(Vx, 3)));
  EXPECT_EQ(S.checkValid(F), SolverResult::Yes);
  // forall x. 0 <= x mod 3 < 3.
  TermRef G = forall(X, mkAnd(le(intConst(0), mod(Vx, 3)),
                              lt(mod(Vx, 3), intConst(3))));
  EXPECT_EQ(S.checkValid(G), SolverResult::Yes);
}

TEST_F(SolverTest, SplitLoopIndexIdentity) {
  // The split() scheduling identity: if 0 <= i < 128 then
  // 16 * (i / 16) + (i mod 16) == i.
  TermRef InRange = mkAnd(le(intConst(0), Vx), lt(Vx, intConst(128)));
  TermRef Identity =
      eq(add(mul(16, div(Vx, 16)), mod(Vx, 16)), Vx);
  EXPECT_EQ(S.checkValid(implies(InRange, Identity)), SolverResult::Yes);
}

TEST_F(SolverTest, TileDisjointness) {
  // Two distinct 16-wide tiles never overlap:
  // io != io' => 16*io + ii != 16*io' + ii'  given 0 <= ii, ii' < 16.
  TermVar Io = freshVar("io", Sort::Int), Io2 = freshVar("io2", Sort::Int);
  TermVar Ii = freshVar("ii", Sort::Int), Ii2 = freshVar("ii2", Sort::Int);
  TermRef Bounds =
      mkAnd({le(intConst(0), mkVar(Ii)), lt(mkVar(Ii), intConst(16)),
             le(intConst(0), mkVar(Ii2)), lt(mkVar(Ii2), intConst(16)),
             ne(mkVar(Io), mkVar(Io2))});
  TermRef Distinct = ne(add(mul(16, mkVar(Io)), mkVar(Ii)),
                        add(mul(16, mkVar(Io2)), mkVar(Ii2)));
  EXPECT_EQ(S.checkValid(implies(Bounds, Distinct)), SolverResult::Yes);
}

TEST_F(SolverTest, IteLowering) {
  // forall x. ite(x > 0, x, -x) >= 0.
  TermRef Abs = ite(gt(Vx, intConst(0)), Vx, neg(Vx));
  EXPECT_EQ(S.checkValid(forall(X, ge(Abs, intConst(0)))),
            SolverResult::Yes);
  // forall x. ite(x > 0, x, -x) > 0 is false (x = 0).
  EXPECT_EQ(S.checkValid(forall(X, gt(Abs, intConst(0)))),
            SolverResult::No);
}

TEST_F(SolverTest, BooleanVariables) {
  TermVar B1 = freshVar("b1", Sort::Bool);
  TermVar B2 = freshVar("b2", Sort::Bool);
  TermRef Vb1 = mkVar(B1), Vb2 = mkVar(B2);
  // b or not b.
  EXPECT_EQ(S.checkValid(mkOr(Vb1, mkNot(Vb1))), SolverResult::Yes);
  // b1 -> (b2 -> b1).
  EXPECT_EQ(S.checkValid(implies(Vb1, implies(Vb2, Vb1))),
            SolverResult::Yes);
  // b1 -> b2 is not valid.
  EXPECT_EQ(S.checkValid(implies(Vb1, Vb2)), SolverResult::No);
}

TEST_F(SolverTest, UnsatConjunction) {
  TermRef F = mkAnd(lt(Vx, intConst(0)), gt(Vx, intConst(0)));
  EXPECT_EQ(S.checkSat(F), SolverResult::No);
}

TEST_F(SolverTest, LinearDiophantine) {
  // exists x, y. 3x + 5y == 1 (gcd(3,5)=1 so solvable).
  TermRef F = eq(add(mul(3, Vx), mul(5, Vy)), intConst(1));
  EXPECT_EQ(S.checkSat(F), SolverResult::Yes);
  // exists x, y. 2x + 4y == 1 (even = odd, unsolvable).
  TermRef G = eq(add(mul(2, Vx), mul(4, Vy)), intConst(1));
  EXPECT_EQ(S.checkSat(G), SolverResult::No);
}

TEST_F(SolverTest, BudgetYieldsUnknown) {
  Solver Tiny(SolverOptions{/*MaxLiterals=*/4});
  // A formula whose elimination needs more than 4 literals.
  TermRef F = forall(
      X, implies(mkAnd(le(intConst(0), Vx), lt(Vx, intConst(100))),
                 eq(add(mul(16, div(Vx, 16)), mod(Vx, 16)), Vx)));
  EXPECT_EQ(Tiny.checkValid(F), SolverResult::Unknown);
  EXPECT_EQ(Tiny.stats().NumUnknown, 1u);
}

TEST_F(SolverTest, LinearFormExtraction) {
  auto L = linearFromTerm(add(mul(2, Vx), sub(Vy, intConst(3))));
  ASSERT_TRUE(L.has_value());
  EXPECT_EQ(L->coeff(X.Id), 2);
  EXPECT_EQ(L->coeff(Y.Id), 1);
  EXPECT_EQ(L->constant(), -3);
  // Division is not linear.
  EXPECT_FALSE(linearFromTerm(div(Vx, 2)).has_value());
}

TEST_F(SolverTest, SubstVar) {
  TermRef F = le(add(Vx, Vy), intConst(10));
  TermRef G = substVar(F, X, intConst(4));
  EXPECT_EQ(S.checkValid(iff(G, le(Vy, intConst(6)))), SolverResult::Yes);
}

//===----------------------------------------------------------------------===//
// Regression pins for scoped quantifier elimination (Prenex.h): query
// shapes the scheduler poses on which a whole-query prenex form ran out
// of the default budget or spent far more literals.
//===----------------------------------------------------------------------===//

/// lo <= v <= hi.
TermRef inRange(TermRef V, int64_t Lo, int64_t Hi) {
  return mkAnd(le(intConst(Lo), V), le(V, intConst(Hi)));
}

/// Decides \p F with the default budget, checks the verdict against
/// brute-force enumeration over [\p Lo, \p Hi] and the literal spend
/// against \p MaxLiterals.
void expectPinned(const TermRef &F, int64_t Lo, int64_t Hi,
                  uint64_t MaxLiterals) {
  Solver S;
  SolverResult R = S.checkValid(F);
  ASSERT_NE(R, SolverResult::Unknown) << "not decided within the budget";
  bruteforce::Evaluator E{Lo, Hi, {}};
  EXPECT_EQ(R == SolverResult::Yes, E.formula(F));
  EXPECT_LE(S.stats().NumLiterals, MaxLiterals);
}

/// The loop-interchange commutativity query of a fuzz-generated program:
/// forall x1 < x2 in [0,2), y2 < y1 in [0,4), four disjointness
/// conditions, each a forall over access points pt0, pt1 of exists-i6
/// windows (i6 in [0,5)) with mod terms. The prenex form ran out of the
/// 2M-literal budget on it.
TEST_F(SolverTest, PinLoopInterchangeWindows) {
  TermVar X1 = freshVar("x1", Sort::Int), X2 = freshVar("x2", Sort::Int);
  TermVar Y1 = freshVar("y1", Sort::Int), Y2 = freshVar("y2", Sort::Int);
  TermVar Pt0 = freshVar("pt0", Sort::Int), Pt1 = freshVar("pt1", Sort::Int);
  TermVar I6 = freshVar("i6", Sort::Int);
  TermRef P0 = mkVar(Pt0), P1 = mkVar(Pt1), I = mkVar(I6);
  auto Window = [&](TermRef Body) {
    return exists(I6, mkAnd(inRange(I, 0, 4), Body));
  };
  // One iteration writes (4 - a, 3a + 2); the other reads (b + yb, 2b + 2)
  // or (yb, 3 i6 mod 6).
  auto Points = [&](TermVar A, TermVar B, TermVar YB) {
    TermRef Va = mkVar(A), Vb = mkVar(B), Vyb = mkVar(YB);
    TermRef Write = Window(mkAnd(eq(add(Va, P0), intConst(4)),
                                 eq(add(mul(3, Va), intConst(2)), P1)));
    TermRef Read = mkOr(
        mkAnd(eq(add(Vb, Vyb), P0), eq(add(mul(2, Vb), intConst(2)), P1)),
        Window(mkAnd(eq(Vyb, P0), eq(P1, mod(mul(3, I), 6)))));
    return forall(Pt0, forall(Pt1, mkNot(mkAnd(Write, Read))));
  };
  // pt0 is 2 or (a + ya) mod 3 on one side, i6 mod 3, 2b or b + 1 on the
  // other.
  auto Scalars = [&](TermVar A, TermVar YA, TermVar B) {
    TermRef Vb = mkVar(B);
    TermRef Left = mkOr(eq(P0, intConst(2)),
                        Window(eq(P0, mod(add(mkVar(A), mkVar(YA)), 3))));
    TermRef Right =
        mkOr(Window(mkOr(eq(P0, mod(I, 3)), eq(mul(2, Vb), P0))),
             eq(add(Vb, intConst(1)), P0));
    return forall(Pt0, mkNot(mkAnd(Left, Right)));
  };
  TermRef Iters = mkAnd({inRange(mkVar(X1), 0, 1), inRange(mkVar(X2), 0, 1),
                         inRange(mkVar(Y1), 0, 3), inRange(mkVar(Y2), 0, 3),
                         lt(mkVar(X1), mkVar(X2)), lt(mkVar(Y2), mkVar(Y1))});
  TermRef Disjoint = mkAnd({Points(X1, X2, Y2), Scalars(X1, Y1, X2),
                            Points(X2, X1, Y1), Scalars(X2, Y2, X1)});
  TermRef F = forall(
      X1, forall(X2, forall(Y1, forall(Y2, implies(Iters, Disjoint)))));
  // Every witness of a violated condition has pt0, pt1 in [0, 5] (they
  // are pinned to small affine and mod terms), and every other variable
  // is guarded inside that window, so enumerating [0, 5] is exact.
  expectPinned(F, 0, 5, /*MaxLiterals=*/250'000);
}

/// Two iterations x1 < x2 of a loop over [0, n div 2) against an exists-i
/// window over the same half trip count: the `x < n div 2` shape, with one
/// quotient per occurrence of n div 2. The prenex form decided it with
/// 88,744 literals; scoped elimination needs 3,568.
TEST_F(SolverTest, PinHalfTripCountWindow) {
  TermVar N = freshVar("n", Sort::Int), X1 = freshVar("x1", Sort::Int);
  TermVar X2 = freshVar("x2", Sort::Int), Pt = freshVar("pt0", Sort::Int);
  TermVar I = freshVar("i", Sort::Int);
  TermRef Vn = mkVar(N), V1 = mkVar(X1), V2 = mkVar(X2), Vp = mkVar(Pt);
  TermRef Vi = mkVar(I), Half = div(Vn, 2);
  auto Below = [&](TermRef V, TermRef Hi) {
    return mkAnd(le(intConst(0), V), lt(V, Hi));
  };
  TermRef Iters = mkAnd({inRange(Vn, 1, 8), Below(V1, Half), Below(V2, Half),
                         lt(V1, V2)});
  TermRef Window = exists(I, mkAnd(Below(Vi, Half), eq(Vp, add(V2, Vi))));
  TermRef Disjoint =
      forall(Pt, mkNot(mkAnd({eq(Vp, add(V1, Half)), Window, lt(Vp, Vn)})));
  TermRef F = forall(N, forall(X1, forall(X2, implies(Iters, Disjoint))));
  // n, x1, x2, i and pt0 (pinned to x1 + n div 2) all lie in [0, 8].
  expectPinned(F, 0, 8, /*MaxLiterals=*/20'000);
}

//===----------------------------------------------------------------------===//
// Preprocessing pipeline (Simplify.cpp) unit tests.
//===----------------------------------------------------------------------===//

class SimplifyTest : public SolverTest {
protected:
  /// simplifyQuery expects a closed term; universally close over x, y.
  TermRef closedOf(TermRef F) { return forall(X, forall(Y, F)); }
};

TEST_F(SimplifyTest, ConstFoldDecidesGroundQuery) {
  // forall x in [0,8). x*0 + 3 <= 5 — canonicalization grounds the atom.
  TermRef F = forall(X, implies(mkAnd(le(intConst(0), Vx),
                                      lt(Vx, intConst(8))),
                                le(intConst(3), intConst(5))));
  SimplifyOutcome O = simplifyQuery(F);
  EXPECT_TRUE(O.decided());
  EXPECT_TRUE(O.Simplified->boolValue());
}

TEST_F(SimplifyTest, EqSubstOnePointRule) {
  // forall x,y. y == x+1 -> y <= x+1: the one-point rule removes y.
  TermRef Body =
      implies(eq(Vy, add(Vx, intConst(1))), le(Vy, add(Vx, intConst(1))));
  SimplifyOutcome O = simplifyQuery(closedOf(Body));
  EXPECT_TRUE(O.EqSubstHit);
  EXPECT_TRUE(O.decided());
  EXPECT_TRUE(O.Simplified->boolValue());
}

TEST_F(SimplifyTest, IntervalPropDecidesBoundedQuery) {
  // forall x. 0 <= x < 16 -> x <= 20: pure interval reasoning.
  TermRef Body = implies(
      mkAnd(le(intConst(0), Vx), lt(Vx, intConst(16))), le(Vx, intConst(20)));
  SimplifyOutcome O = simplifyQuery(closedOf(Body));
  EXPECT_TRUE(O.decided());
  EXPECT_TRUE(O.Simplified->boolValue());
}

TEST_F(SimplifyTest, IntervalPropRespectsDuplicatedConjuncts) {
  // Regression: duplicated conjuncts must not justify each other away.
  // After the one-point substitution y := x the bounds conjunction holds
  // the x-bounds twice; simultaneous sibling rewriting would fold the
  // whole premise to true and flip this valid query to No.
  TermRef Div6 = le(intConst(6), div(add(Vx, intConst(1)), 3));
  TermRef Body = mkNot(mkAnd(
      {Div6, eq(Vy, Vx), mkOr(lt(Vy, intConst(1)), le(intConst(4), Vy))}));
  TermRef Bounds = mkAnd({le(intConst(-3), Vx), le(Vx, intConst(3)),
                          le(intConst(-3), Vy), le(Vy, intConst(3))});
  EXPECT_EQ(S.checkValid(implies(Bounds, Body)), SolverResult::Yes);
}

TEST_F(SimplifyTest, SimplifyIsVerdictPreservingOnContradiction) {
  // Contradictory interval premise: x <= 0 and x >= 1 -> anything.
  TermRef Body = implies(mkAnd(le(Vx, intConst(0)), le(intConst(1), Vx)),
                         eq(Vy, intConst(42)));
  SimplifyOutcome O = simplifyQuery(closedOf(Body));
  EXPECT_TRUE(O.decided());
  EXPECT_TRUE(O.Simplified->boolValue());
}

TEST_F(SimplifyTest, StageTogglesAreHonored) {
  SimplifyConfig Saved = simplifyConfig();
  setSimplifyEnabled(false);
  TermRef Body = implies(
      mkAnd(le(intConst(0), Vx), lt(Vx, intConst(16))), le(Vx, intConst(20)));
  SimplifyOutcome O = simplifyQuery(closedOf(Body));
  EXPECT_FALSE(O.decided());
  EXPECT_EQ(O.Simplified, closedOf(Body));
  setSimplifyConfig(Saved);
}

TEST_F(SimplifyTest, DecidedQueriesSpendNoLiterals) {
  // A pipeline-decided query consumes no Cooper literal budget at all:
  // even a one-literal solver proves it.
  Solver Tiny(SolverOptions{/*MaxLiterals=*/1});
  TermRef F = forall(X, implies(mkAnd(le(intConst(0), Vx),
                                      lt(Vx, intConst(16))),
                                le(Vx, intConst(20))));
  EXPECT_EQ(Tiny.checkValid(F), SolverResult::Yes);
  EXPECT_EQ(Tiny.stats().SimplifyDecided, 1u);
  EXPECT_EQ(Tiny.stats().NumLiterals, 0u);
}

// Property-style sweep: the split identity holds for many tile widths.
class SplitIdentityTest : public ::testing::TestWithParam<int> {};

TEST_P(SplitIdentityTest, HoldsForAllTileWidths) {
  int W = GetParam();
  Solver S;
  TermVar X = freshVar("x", Sort::Int);
  TermRef Vx = mkVar(X);
  TermRef F = forall(
      X, eq(add(mul(W, div(Vx, W)), mod(Vx, W)), Vx));
  EXPECT_EQ(S.checkValid(F), SolverResult::Yes) << "width " << W;
}

INSTANTIATE_TEST_SUITE_P(Widths, SplitIdentityTest,
                         ::testing::Values(2, 3, 4, 5, 7, 8, 16, 32));

} // namespace
