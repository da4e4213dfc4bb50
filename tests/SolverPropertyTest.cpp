//===- tests/SolverPropertyTest.cpp - Brute-force cross-checks -*- C++ -*-===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Property tests for the Presburger solver: random formulas over a
/// *bounded* variable domain (the bounds are part of the formula, so the
/// unbounded-integer semantics coincide with the bounded one) are
/// decided both by Cooper elimination and by brute-force enumeration;
/// the answers must agree. This is the strongest correctness evidence we
/// have for the machinery every safety check rests on.
///
//===----------------------------------------------------------------------===//

#include "smt/Simplify.h"
#include "smt/Solver.h"

#include "BruteForce.h"

#include <gtest/gtest.h>

#include <atomic>
#include <random>
#include <thread>

using namespace exo;
using namespace exo::smt;

namespace {

constexpr int64_t Lo = -3, Hi = 3; // inclusive domain per variable

/// A random quasi-affine formula generator over a fixed variable set.
class FormulaGen {
public:
  FormulaGen(unsigned Seed, const std::vector<TermVar> &Vars)
      : Rng(Seed), Vars(Vars) {}

  TermRef randTerm(int Depth) {
    switch (Rng() % (Depth > 0 ? 5 : 2)) {
    case 0:
      return intConst(static_cast<int64_t>(Rng() % 7) - 3);
    case 1:
      return mkVar(Vars[Rng() % Vars.size()]);
    case 2:
      return add(randTerm(Depth - 1), randTerm(Depth - 1));
    case 3:
      return mul(static_cast<int64_t>(Rng() % 3) + 1, randTerm(Depth - 1));
    default: {
      int64_t D = static_cast<int64_t>(Rng() % 3) + 2;
      return Rng() % 2 ? div(randTerm(Depth - 1), D)
                       : mod(randTerm(Depth - 1), D);
    }
    }
  }

  TermRef randAtom(int Depth) {
    TermRef A = randTerm(Depth), B = randTerm(Depth);
    switch (Rng() % 3) {
    case 0:
      return eq(A, B);
    case 1:
      return le(A, B);
    default:
      return lt(A, B);
    }
  }

  TermRef randFormula(int Depth) {
    if (Depth == 0)
      return randAtom(2);
    switch (Rng() % 4) {
    case 0:
      return mkAnd(randFormula(Depth - 1), randFormula(Depth - 1));
    case 1:
      return mkOr(randFormula(Depth - 1), randFormula(Depth - 1));
    case 2:
      return mkNot(randFormula(Depth - 1));
    default:
      return randAtom(2);
    }
  }

private:
  std::mt19937 Rng;
  const std::vector<TermVar> &Vars;
};

/// Brute-force evaluation of a quantifier-free formula under an
/// assignment of its free variables.
bool evalFormula(const TermRef &F, const std::map<unsigned, int64_t> &Env) {
  bruteforce::Evaluator E{Lo, Hi, Env};
  return E.formula(F);
}

class RandomFormulaTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(RandomFormulaTest, CooperAgreesWithBruteForce) {
  std::vector<TermVar> Vars = {freshVar("x", Sort::Int),
                               freshVar("y", Sort::Int)};
  FormulaGen Gen(GetParam(), Vars);
  TermRef Body = Gen.randFormula(3);

  // Bound the domain inside the formula so unbounded semantics agree
  // with enumeration: valid(bounds -> body) and sat(bounds and body).
  std::vector<TermRef> BoundParts;
  for (const TermVar &V : Vars) {
    BoundParts.push_back(le(intConst(Lo), mkVar(V)));
    BoundParts.push_back(le(mkVar(V), intConst(Hi)));
  }
  TermRef Bounds = mkAnd(BoundParts);

  bool AllTrue = true, AnyTrue = false;
  std::map<unsigned, int64_t> Env;
  for (int64_t X = Lo; X <= Hi; ++X)
    for (int64_t Y = Lo; Y <= Hi; ++Y) {
      Env[Vars[0].Id] = X;
      Env[Vars[1].Id] = Y;
      bool V = evalFormula(Body, Env);
      AllTrue &= V;
      AnyTrue |= V;
    }

  Solver S;
  auto Valid = S.checkValid(implies(Bounds, Body));
  auto Sat = S.checkSat(mkAnd(Bounds, Body));
  // Unknown (budget exhausted on div/mod-heavy formulas) is a legal,
  // safe outcome; what is NEVER legal is a wrong Yes/No.
  if (Valid == SolverResult::Unknown || Sat == SolverResult::Unknown)
    GTEST_SKIP() << "budget exhausted (safe) on " << Body->str();
  EXPECT_EQ(Valid == SolverResult::Yes, AllTrue) << Body->str();
  EXPECT_EQ(Sat == SolverResult::Yes, AnyTrue) << Body->str();
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomFormulaTest,
                         ::testing::Range(1u, 41u));

class QuantifiedRandomTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(QuantifiedRandomTest, AlternatingQuantifiersAgree) {
  // forall x in [Lo,Hi]. exists y in [Lo,Hi]. body — checked both ways.
  std::vector<TermVar> Vars = {freshVar("x", Sort::Int),
                               freshVar("y", Sort::Int)};
  FormulaGen Gen(GetParam() * 7919, Vars);
  TermRef Body = Gen.randFormula(2);

  bool Brute = true;
  std::map<unsigned, int64_t> Env;
  for (int64_t X = Lo; X <= Hi && Brute; ++X) {
    bool ExistsY = false;
    for (int64_t Y = Lo; Y <= Hi; ++Y) {
      Env[Vars[0].Id] = X;
      Env[Vars[1].Id] = Y;
      ExistsY |= evalFormula(Body, Env);
    }
    Brute &= ExistsY;
  }

  TermRef XIn = mkAnd(le(intConst(Lo), mkVar(Vars[0])),
                      le(mkVar(Vars[0]), intConst(Hi)));
  TermRef YIn = mkAnd(le(intConst(Lo), mkVar(Vars[1])),
                      le(mkVar(Vars[1]), intConst(Hi)));
  TermRef F = forall(Vars[0],
                     implies(XIn, exists(Vars[1], mkAnd(YIn, Body))));
  Solver S;
  auto R = S.checkValid(F);
  if (R == SolverResult::Unknown)
    GTEST_SKIP() << "budget exhausted (safe) on " << Body->str();
  EXPECT_EQ(R == SolverResult::Yes, Brute) << Body->str();
}

INSTANTIATE_TEST_SUITE_P(Seeds, QuantifiedRandomTest,
                         ::testing::Range(1u, 21u));

/// Random formulas with quantifier chains nested under And / Or / Not:
/// the shape scoped elimination works on. Each chain binds 2-3 variables
/// of one kind, each guarded to [0, ChainHi]; atoms mix every variable in
/// scope with div/mod by 2-4.
class NestedFormulaGen {
public:
  static constexpr int64_t ChainHi = 2;

  explicit NestedFormulaGen(unsigned Seed) : Rng(Seed) {}

  /// A connective over at least one quantifier chain.
  TermRef root(const std::vector<TermVar> &Scope) {
    TermRef A = chain(2, Scope), B = formula(2, Scope);
    TermRef F = Rng() % 2 ? mkAnd(A, B) : mkOr(A, B);
    return Rng() % 3 ? F : mkNot(F);
  }

private:
  TermRef formula(int Depth, const std::vector<TermVar> &Scope) {
    if (Depth == 0)
      return atom(Scope);
    switch (Rng() % 5) {
    case 0:
      return mkAnd(formula(Depth - 1, Scope), formula(Depth - 1, Scope));
    case 1:
      return mkOr(formula(Depth - 1, Scope), formula(Depth - 1, Scope));
    case 2:
      return mkNot(formula(Depth - 1, Scope));
    case 3:
      return chain(Depth, Scope);
    default:
      return atom(Scope);
    }
  }

  TermRef chain(int Depth, std::vector<TermVar> Scope) {
    bool IsForall = Rng() % 2;
    std::vector<TermVar> Vars;
    std::vector<TermRef> Guards;
    for (unsigned I = 0, N = 2 + Rng() % 2; I < N; ++I) {
      Vars.push_back(freshVar("b", Sort::Int));
      Scope.push_back(Vars.back());
      Guards.push_back(le(intConst(0), mkVar(Vars.back())));
      Guards.push_back(le(mkVar(Vars.back()), intConst(ChainHi)));
    }
    TermRef Body = formula(Depth - 1, Scope);
    Body = IsForall ? implies(mkAnd(Guards), Body) : mkAnd(mkAnd(Guards), Body);
    for (auto It = Vars.rbegin(); It != Vars.rend(); ++It)
      Body = IsForall ? forall(*It, Body) : exists(*It, Body);
    return Body;
  }

  TermRef term(int Depth, const std::vector<TermVar> &Scope) {
    switch (Rng() % (Depth > 0 ? 5 : 2)) {
    case 0:
      return intConst(static_cast<int64_t>(Rng() % 5) - 2);
    case 1:
      return mkVar(Scope[Rng() % Scope.size()]);
    case 2:
      return add(term(Depth - 1, Scope), term(Depth - 1, Scope));
    case 3:
      return mul(static_cast<int64_t>(Rng() % 2) + 1, term(Depth - 1, Scope));
    default: {
      int64_t D = static_cast<int64_t>(Rng() % 3) + 2;
      return Rng() % 2 ? div(term(Depth - 1, Scope), D)
                       : mod(term(Depth - 1, Scope), D);
    }
    }
  }

  TermRef atom(const std::vector<TermVar> &Scope) {
    TermRef A = term(2, Scope), B = term(1, Scope);
    switch (Rng() % 3) {
    case 0:
      return eq(A, B);
    case 1:
      return le(A, B);
    default:
      return lt(A, B);
    }
  }

  std::mt19937 Rng;
};

/// One nested-quantifier query pair (valid and sat over the free x, y in
/// [Lo, Hi]) with its brute-force answers.
struct NestedCase {
  TermRef Body, ValidQ, SatQ;
  bool AllTrue = true, AnyTrue = false;

  explicit NestedCase(unsigned Seed) {
    std::vector<TermVar> Vars = {freshVar("x", Sort::Int),
                                 freshVar("y", Sort::Int)};
    Body = NestedFormulaGen(Seed * 65537).root(Vars);
    std::vector<TermRef> BoundParts;
    for (const TermVar &V : Vars) {
      BoundParts.push_back(le(intConst(Lo), mkVar(V)));
      BoundParts.push_back(le(mkVar(V), intConst(Hi)));
    }
    TermRef Bounds = mkAnd(BoundParts);
    ValidQ = implies(Bounds, Body);
    SatQ = mkAnd(Bounds, Body);
    // Every bound variable is guarded to [0, ChainHi], so enumerating
    // exactly that window decides each quantifier.
    bruteforce::Evaluator E{0, NestedFormulaGen::ChainHi, {}};
    for (int64_t X = Lo; X <= Hi; ++X)
      for (int64_t Y = Lo; Y <= Hi; ++Y) {
        E.Env[Vars[0].Id] = X;
        E.Env[Vars[1].Id] = Y;
        bool V = E.formula(Body);
        AllTrue &= V;
        AnyTrue |= V;
      }
  }
};

class NestedQuantifierTest : public ::testing::TestWithParam<unsigned> {};

/// Every verdict on a nested-quantifier formula equals brute-force
/// enumeration. Unknown would be safe, but every seed here decides within
/// the default budget, so an Unknown is a regression of the eliminator.
TEST_P(NestedQuantifierTest, VerdictsAgreeWithBruteForce) {
  NestedCase C(GetParam());
  Solver S;
  SolverResult Valid = S.checkValid(C.ValidQ);
  SolverResult Sat = S.checkSat(C.SatQ);
  ASSERT_NE(Valid, SolverResult::Unknown) << C.Body->str();
  ASSERT_NE(Sat, SolverResult::Unknown) << C.Body->str();
  EXPECT_EQ(Valid == SolverResult::Yes, C.AllTrue) << C.Body->str();
  EXPECT_EQ(Sat == SolverResult::Yes, C.AnyTrue) << C.Body->str();
}

INSTANTIATE_TEST_SUITE_P(Seeds, NestedQuantifierTest,
                         ::testing::Range(1u, 49u));


class CacheDifferentialTest : public ::testing::TestWithParam<unsigned> {};

/// The term interner is the one cache every solve goes through, and a
/// verdict depends only on the query up to renaming: solving with the
/// interner cold, re-solving with it warm, and solving an alpha-renamed
/// re-posing over fresh variables all return the same verdict.
TEST_P(CacheDifferentialTest, WarmEqualsColdAndAlphaVariantsHit) {
  auto makeQueries = [](const std::vector<TermVar> &Vars, unsigned Seed) {
    FormulaGen Gen(Seed, Vars);
    TermRef Body = Gen.randFormula(3);
    std::vector<TermRef> BoundParts;
    for (const TermVar &V : Vars) {
      BoundParts.push_back(le(intConst(Lo), mkVar(V)));
      BoundParts.push_back(le(mkVar(V), intConst(Hi)));
    }
    TermRef Bounds = mkAnd(BoundParts);
    return std::make_pair(implies(Bounds, Body), mkAnd(Bounds, Body));
  };

  unsigned Seed = GetParam() * 104729;
  std::vector<TermVar> Vars = {freshVar("x", Sort::Int),
                               freshVar("y", Sort::Int)};
  auto [ValidQ, SatQ] = makeQueries(Vars, Seed);

  clearTermInterner();
  Solver Cold;
  auto ColdValid = Cold.checkValid(ValidQ);
  auto ColdSat = Cold.checkSat(SatQ);

  Solver Warm;
  EXPECT_EQ(Warm.checkValid(ValidQ), ColdValid);
  EXPECT_EQ(Warm.checkSat(SatQ), ColdSat);

  std::vector<TermVar> Vars2 = {freshVar("p", Sort::Int),
                                freshVar("q", Sort::Int)};
  auto [ValidQ2, SatQ2] = makeQueries(Vars2, Seed);
  Solver Alpha;
  EXPECT_EQ(Alpha.checkValid(ValidQ2), ColdValid);
  EXPECT_EQ(Alpha.checkSat(SatQ2), ColdSat);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CacheDifferentialTest,
                         ::testing::Range(1u, 26u));

/// Toggle the whole preprocessing pipeline off for a scope. The config
/// is a process-global atomic, so this also governs worker threads.
struct ScopedSimplifyOff {
  SimplifyConfig Saved = simplifyConfig();
  ScopedSimplifyOff() { setSimplifyEnabled(false); }
  ~ScopedSimplifyOff() { setSimplifyConfig(Saved); }
};

class SimplifyDifferentialTest : public ::testing::TestWithParam<unsigned> {};

/// The preprocessing pipeline must be verdict-preserving: with the
/// pipeline enabled the solver must agree with brute-force enumeration,
/// and against the pipeline-disabled solver the only permitted
/// difference is Unknown -> Yes/No (a strict improvement). A Yes <-> No
/// flip in either direction is a soundness bug.
TEST_P(SimplifyDifferentialTest, PipelineAgreesWithBruteForce) {
  std::vector<TermVar> Vars = {freshVar("x", Sort::Int),
                               freshVar("y", Sort::Int)};
  FormulaGen Gen(GetParam() * 31337, Vars);
  TermRef Body = Gen.randFormula(3);

  std::vector<TermRef> BoundParts;
  for (const TermVar &V : Vars) {
    BoundParts.push_back(le(intConst(Lo), mkVar(V)));
    BoundParts.push_back(le(mkVar(V), intConst(Hi)));
  }
  TermRef Bounds = mkAnd(BoundParts);
  TermRef ValidQ = implies(Bounds, Body);
  TermRef SatQ = mkAnd(Bounds, Body);

  bool AllTrue = true, AnyTrue = false;
  std::map<unsigned, int64_t> Env;
  for (int64_t X = Lo; X <= Hi; ++X)
    for (int64_t Y = Lo; Y <= Hi; ++Y) {
      Env[Vars[0].Id] = X;
      Env[Vars[1].Id] = Y;
      bool V = evalFormula(Body, Env);
      AllTrue &= V;
      AnyTrue |= V;
    }

  SolverResult OffValid, OffSat;
  {
    ScopedSimplifyOff Off;
    Solver S;
    OffValid = S.checkValid(ValidQ);
    OffSat = S.checkSat(SatQ);
  }

  Solver On;
  SolverResult OnValid = On.checkValid(ValidQ);
  SolverResult OnSat = On.checkSat(SatQ);

  // Pipeline-on verdicts agree with enumeration whenever decided.
  if (OnValid != SolverResult::Unknown)
    EXPECT_EQ(OnValid == SolverResult::Yes, AllTrue) << Body->str();
  if (OnSat != SolverResult::Unknown)
    EXPECT_EQ(OnSat == SolverResult::Yes, AnyTrue) << Body->str();

  // Versus pipeline-off: when both sides decide, the verdicts must be
  // bit-identical — Yes <-> No is never legal. Unknown can move in
  // either direction: the pipeline usually upgrades budget-Unknowns,
  // but the cheap-variable reorder is a heuristic and may pick an
  // elimination order that exhausts the literal budget where the
  // default order squeaked through. Both are safe outcomes.
  if (OffValid != SolverResult::Unknown && OnValid != SolverResult::Unknown)
    EXPECT_EQ(OnValid, OffValid) << Body->str();
  if (OffSat != SolverResult::Unknown && OnSat != SolverResult::Unknown)
    EXPECT_EQ(OnSat, OffSat) << Body->str();
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimplifyDifferentialTest,
                         ::testing::Range(1u, 41u));

class SimplifyQuantifiedDifferentialTest
    : public ::testing::TestWithParam<unsigned> {};

/// Same property over alternating quantifiers — this is the shape that
/// exercises the one-point rule under both polarities and the interval
/// environment threaded through binders.
TEST_P(SimplifyQuantifiedDifferentialTest, PipelineAgreesOnAlternation) {
  std::vector<TermVar> Vars = {freshVar("x", Sort::Int),
                               freshVar("y", Sort::Int)};
  FormulaGen Gen(GetParam() * 523, Vars);
  TermRef Body = Gen.randFormula(2);

  bool Brute = true;
  std::map<unsigned, int64_t> Env;
  for (int64_t X = Lo; X <= Hi && Brute; ++X) {
    bool ExistsY = false;
    for (int64_t Y = Lo; Y <= Hi; ++Y) {
      Env[Vars[0].Id] = X;
      Env[Vars[1].Id] = Y;
      ExistsY |= evalFormula(Body, Env);
    }
    Brute &= ExistsY;
  }

  TermRef XIn = mkAnd(le(intConst(Lo), mkVar(Vars[0])),
                      le(mkVar(Vars[0]), intConst(Hi)));
  TermRef YIn = mkAnd(le(intConst(Lo), mkVar(Vars[1])),
                      le(mkVar(Vars[1]), intConst(Hi)));
  TermRef F = forall(Vars[0],
                     implies(XIn, exists(Vars[1], mkAnd(YIn, Body))));

  SolverResult OffR;
  {
    ScopedSimplifyOff Off;
    Solver S;
    OffR = S.checkValid(F);
  }
  Solver On;
  SolverResult OnR = On.checkValid(F);

  if (OnR != SolverResult::Unknown)
    EXPECT_EQ(OnR == SolverResult::Yes, Brute) << Body->str();
  if (OffR != SolverResult::Unknown && OnR != SolverResult::Unknown)
    EXPECT_EQ(OnR, OffR) << Body->str();
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimplifyQuantifiedDifferentialTest,
                         ::testing::Range(1u, 31u));

/// Multithreaded face of the differential: serial pipeline-off verdicts
/// and brute-force enumeration are computed first, then many threads
/// decide the same pool with the pipeline enabled. Every decided
/// verdict must match enumeration; every off-decided verdict must be
/// reproduced exactly.
TEST(ParallelSimplifyDifferentialTest, ThreadedPipelineMatchesSerial) {
  constexpr unsigned NumFormulas = 24, NumThreads = 4;
  std::vector<TermRef> Queries;
  std::vector<SolverResult> OffRef;
  std::vector<bool> Brute;

  for (unsigned Seed = 1; Seed <= NumFormulas; ++Seed) {
    std::vector<TermVar> Vars = {freshVar("x", Sort::Int),
                                 freshVar("y", Sort::Int)};
    FormulaGen Gen(Seed * 40487, Vars);
    TermRef Body = Gen.randFormula(3);
    std::vector<TermRef> BoundParts;
    for (const TermVar &V : Vars) {
      BoundParts.push_back(le(intConst(Lo), mkVar(V)));
      BoundParts.push_back(le(mkVar(V), intConst(Hi)));
    }
    Queries.push_back(implies(mkAnd(BoundParts), Body));

    bool AllTrue = true;
    std::map<unsigned, int64_t> Env;
    for (int64_t X = Lo; X <= Hi; ++X)
      for (int64_t Y = Lo; Y <= Hi; ++Y) {
        Env[Vars[0].Id] = X;
        Env[Vars[1].Id] = Y;
        AllTrue &= evalFormula(Body, Env);
      }
    Brute.push_back(AllTrue);

    ScopedSimplifyOff Off;
    Solver Cold;
    OffRef.push_back(Cold.checkValid(Queries.back()));
  }

  std::atomic<unsigned> Mismatches{0};
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < NumThreads; ++T)
    Threads.emplace_back([&] {
      for (unsigned Round = 0; Round < 4; ++Round)
        for (unsigned I = 0; I < NumFormulas; ++I) {
          Solver S;
          SolverResult R = S.checkValid(Queries[I]);
          bool Bad = false;
          if (R != SolverResult::Unknown) {
            Bad |= (R == SolverResult::Yes) != Brute[I];
            if (OffRef[I] != SolverResult::Unknown)
              Bad |= R != OffRef[I];
          }
          if (Bad)
            Mismatches.fetch_add(1, std::memory_order_relaxed);
        }
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Mismatches.load(), 0u);
}

/// The multithreaded face of the same property: many threads deciding the
/// same formula pool through the shared term interner must each get
/// verdicts bit-identical to a serial reference.
TEST(ParallelDifferentialTest, ThreadedVerdictsMatchSerial) {
  constexpr unsigned NumFormulas = 24, NumThreads = 4;
  std::vector<TermRef> Queries;
  std::vector<SolverResult> Reference;
  for (unsigned Seed = 1; Seed <= NumFormulas; ++Seed) {
    std::vector<TermVar> Vars = {freshVar("x", Sort::Int),
                                 freshVar("y", Sort::Int)};
    FormulaGen Gen(Seed * 7919, Vars);
    TermRef Body = Gen.randFormula(3);
    std::vector<TermRef> BoundParts;
    for (const TermVar &V : Vars) {
      BoundParts.push_back(le(intConst(Lo), mkVar(V)));
      BoundParts.push_back(le(mkVar(V), intConst(Hi)));
    }
    Queries.push_back(implies(mkAnd(BoundParts), Body));

    Solver Cold;
    Reference.push_back(Cold.checkValid(Queries.back()));
  }

  std::atomic<unsigned> Mismatches{0};
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < NumThreads; ++T)
    Threads.emplace_back([&] {
      for (unsigned Round = 0; Round < 4; ++Round)
        for (unsigned I = 0; I < NumFormulas; ++I) {
          Solver S;
          if (S.checkValid(Queries[I]) != Reference[I])
            Mismatches.fetch_add(1, std::memory_order_relaxed);
        }
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Mismatches.load(), 0u);
}

} // namespace
