//===- tests/EscapeHatchTest.cpp - §9 no-op instr escape hatch -*- C++ -*-===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// §3.2.2 / §9: "programmers can use instructions in clever ways,
/// including as an escape hatch. For example, a prefetch instruction can
/// be modeled using a no-op procedure and thereby be inserted anywhere."
/// The paper's §9 uses exactly this to inject OpenMP pragmas without any
/// compiler support for threading.
///
//===----------------------------------------------------------------------===//

#include "CursorAt.h"
#include "backend/CodeGen.h"
#include "frontend/Parser.h"
#include "ir/Printer.h"
#include "scheduling/Schedule.h"

#include <gtest/gtest.h>

using namespace exo;
using namespace exo::ir;
using namespace exo::scheduling;

namespace {

TEST(EscapeHatchTest, OpenMpPragmaViaNoOpInstr) {
  frontend::ParseEnv Env;
  auto Lib = frontend::parseModule(R"x(
@instr("#pragma omp parallel for")
def omp_parallel_for():
    pass

@instr("__builtin_prefetch(&{x}.data[0]);")
def prefetch(x: [f32][16]):
    pass
)x",
                                   Env);
  ASSERT_TRUE(bool(Lib)) << Lib.error().str();
  ProcRef Omp = Env.findProc("omp_parallel_for");
  ProcRef Prefetch = Env.findProc("prefetch");

  // The algorithm carries a `pass` marker where the pragma belongs.
  auto P = frontend::parseProc(R"(
@proc
def scale(n: size, x: f32[n, 16]):
    pass
    for i in seq(0, n):
        for l in seq(0, 16):
            x[i, l] = x[i, l] * 2.0
)",
                               Env);
  ASSERT_TRUE(bool(P)) << P.error().str();

  // replace() unifies the no-op with the pass statement (trivially) and
  // inserts the call; codegen expands the annotation verbatim.
  ProcRef Q = *replaceWith(at(*P, "pass"), Omp);
  std::string Printed = printProc(Q);
  EXPECT_NE(Printed.find("omp_parallel_for()"), std::string::npos)
      << Printed;

  auto C = backend::generateC(Q);
  ASSERT_TRUE(bool(C)) << C.error().str();
  size_t PragmaPos = C->find("#pragma omp parallel for");
  size_t LoopPos = C->find("for (int_fast32_t i");
  ASSERT_NE(PragmaPos, std::string::npos) << *C;
  ASSERT_NE(LoopPos, std::string::npos) << *C;
  EXPECT_LT(PragmaPos, LoopPos) << "pragma must precede the loop\n" << *C;
  EXPECT_EQ(C->find("void omp_parallel_for"), std::string::npos)
      << "no function should be emitted for the no-op instr";
  (void)Prefetch;
}

TEST(EscapeHatchTest, NoOpInstrIsSemanticallyInert) {
  // The effect analysis sees the no-op's body (pass), so it commutes
  // with everything — it can be moved freely.
  frontend::ParseEnv Env;
  auto Lib = frontend::parseModule(R"x(
@instr("/* fence */")
def fence():
    pass
)x",
                                   Env);
  ASSERT_TRUE(bool(Lib));
  auto P = frontend::parseProc(R"(
@proc
def f(x: f32[8]):
    pass
    x[0] = 1.0
)",
                               Env);
  ASSERT_TRUE(bool(P));
  ProcRef Q = *replaceWith(at(*P, "pass"), Env.findProc("fence"));
  // Swapping the fence past the store must be provably safe.
  auto R = reorderStmts(at(Q, "fence()"));
  ASSERT_TRUE(bool(R)) << R.error().str();
  EXPECT_EQ((*R)->body()[0]->kind(), StmtKind::Assign);
}

} // namespace
