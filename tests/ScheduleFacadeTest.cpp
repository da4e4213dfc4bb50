//===- tests/ScheduleFacadeTest.cpp - Fluent facade tests ------*- C++ -*-===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the cursor-style Schedule facade: chains must produce the
/// same procs as the underlying free functions, bare loop names must
/// expand to full patterns (keeping "#k" occurrence selectors), a failed
/// step must short-circuit the rest of the chain, and the error carried
/// out must have the structured payload filled in.
///
//===----------------------------------------------------------------------===//

#include "scheduling/Schedule.h"

#include "CursorAt.h"
#include "backend/CodeGen.h"
#include "frontend/Parser.h"
#include "ir/Printer.h"

#include <gtest/gtest.h>

using namespace exo;
using namespace exo::ir;
using namespace exo::scheduling;

namespace {

const char *GemmSrc = R"(
@proc
def gemm(A: R[32, 32], B: R[32, 32], C: R[32, 32]):
    for i in seq(0, 32):
        for j in seq(0, 32):
            for k in seq(0, 32):
                C[i, j] += A[i, k] * B[k, j]
)";

ProcRef parseGemm() {
  auto P = frontend::parseProc(GemmSrc);
  if (!P)
    fatalError("test parse failed: " + P.error().str());
  return *P;
}

TEST(ScheduleFacadeTest, LoopPatternExpansion) {
  EXPECT_EQ(Schedule::loopPattern("i"), "for i in _: _");
  EXPECT_EQ(Schedule::loopPattern("ii"), "for ii in _: _");
  // Occurrence selectors ride along after the pattern.
  EXPECT_EQ(Schedule::loopPattern("i #1"), "for i in _: _ #1");
  EXPECT_EQ(Schedule::loopPattern("i1 #0"), "for i1 in _: _ #0");
  // Full patterns pass through untouched.
  EXPECT_EQ(Schedule::loopPattern("for i in _: _"), "for i in _: _");
  EXPECT_EQ(Schedule::loopPattern("for j in _: _ #2"), "for j in _: _ #2");
}

TEST(ScheduleFacadeTest, ChainMatchesFreeFunctions) {
  ProcRef P = parseGemm();

  ProcRef ByHand = *splitLoop(at(P, "for i in _: _"), 8, "io", "ii",
                              SplitTail::Perfect);
  ByHand = *reorderLoops(at(ByHand, "for ii in _: _"));
  ByHand = *simplify(ByHand);

  Schedule S(P);
  S.split("i", 8, "io", "ii", SplitTail::Perfect).reorder("ii").simplify();
  ASSERT_TRUE(S.ok());
  EXPECT_EQ(S.steps(), 3u);
  ProcRef Fluent = S.take("facade chain");

  // Fresh symbols differ between the two chains, so compare the generated
  // C — which is exactly the bit-identical guarantee the facade makes.
  EXPECT_EQ(backend::generateC(Fluent).take("facade C"),
            backend::generateC(ByHand).take("by-hand C"))
      << printProc(Fluent) << "\nvs\n"
      << printProc(ByHand);
}

TEST(ScheduleFacadeTest, ShortCircuitOnError) {
  Schedule S(parseGemm());
  S.split("i", 8, "io", "ii", SplitTail::Perfect)
      .reorder("nosuchloop") // fails here...
      .unroll("ii")          // ...so these must not run
      .split("j", 7, "jo", "ji", SplitTail::Perfect);
  EXPECT_FALSE(S.ok());
  EXPECT_FALSE(static_cast<bool>(S));
  EXPECT_EQ(S.steps(), 1u) << "only the first step succeeded";

  const Error &E = S.error();
  ASSERT_NE(E.scheduleInfo(), nullptr);
  EXPECT_EQ(E.scheduleInfo()->Op, "reorder");
  EXPECT_EQ(E.scheduleInfo()->Pattern, "for nosuchloop in _: _");

  auto Q = S.proc();
  EXPECT_FALSE(static_cast<bool>(Q));
}

TEST(ScheduleFacadeTest, ErrorFromExpectedConstructorPropagates) {
  Expected<ProcRef> Bad = frontend::parseProc("@proc\ndef nope(:");
  ASSERT_FALSE(static_cast<bool>(Bad));
  Schedule S(Bad);
  S.split("i", 8, "io", "ii");
  EXPECT_FALSE(S.ok());
  EXPECT_EQ(S.steps(), 0u);
}

TEST(ScheduleFacadeTest, SafetyFailureCarriesSolverVerdict) {
  // A Perfect split with a non-dividing factor: the divisibility
  // obligation is refuted, and the payload must say so.
  Schedule S(parseGemm());
  S.split("i", 7, "io", "ii", SplitTail::Perfect);
  ASSERT_FALSE(S.ok());
  const Error &E = S.error();
  ASSERT_NE(E.scheduleInfo(), nullptr);
  EXPECT_EQ(E.scheduleInfo()->Op, "split");
  EXPECT_EQ(E.scheduleInfo()->SolverVerdict, ScheduleErrorInfo::Verdict::No);
  // The printed form keeps the legacy "<kind>: <message>" shape.
  EXPECT_NE(E.str().find(": "), std::string::npos);
}

TEST(ScheduleFacadeTest, RenameAndApply) {
  Schedule S(parseGemm());
  S.rename("gemm_tiled").apply(
      [](const ProcRef &P) -> Expected<ProcRef> {
        return splitLoop(at(P, "for i in _: _"), 4, "io", "ii",
                         SplitTail::Guard);
      },
      "my_split");
  ASSERT_TRUE(S.ok()) << S.error().str();
  EXPECT_EQ(S.steps(), 2u);
  EXPECT_EQ(S.take("rename chain")->name(), "gemm_tiled");
}

} // namespace
