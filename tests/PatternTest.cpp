//===- tests/PatternTest.cpp - Cursor pattern unit tests -------*- C++ -*-===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "scheduling/Pattern.h"

#include "analysis/Context.h"
#include "ir/Printer.h"

#include <gtest/gtest.h>

using namespace exo;
using namespace exo::ir;
using namespace exo::scheduling;
using analysis::selectedStmts;

namespace {

ProcRef mustParse(const std::string &Src) {
  auto P = frontend::parseProc(Src);
  if (!P)
    fatalError("test parse failed: " + P.error().str());
  return *P;
}

const char *Nest = R"(
@proc
def f(n: size, x: R[n], y: R[n]):
    tmp : R[8]
    for i in seq(0, n):
        x[i] = 1.0
        for i in seq(0, 8):
            tmp[i] = 2.0
    for j in seq(0, n):
        if j < 4:
            y[j] += x[j]
)";

TEST(PatternTest, LoopByNameAndOrdinal) {
  ProcRef P = mustParse(Nest);
  auto C0 = findStmts(*P, "for i in _: _");
  ASSERT_TRUE(bool(C0));
  EXPECT_TRUE(C0->Path.empty());
  EXPECT_EQ(C0->Begin, 1u);
  // The second i-loop is nested inside the first (pre-order).
  auto C1 = findStmts(*P, "for i in _: _ #1");
  ASSERT_TRUE(bool(C1));
  ASSERT_EQ(C1->Path.size(), 1u);
  EXPECT_EQ(selectedStmts(*P, *C1)[0]->body()[0]->kind(), StmtKind::Assign);
  // No third one.
  EXPECT_FALSE(bool(findStmts(*P, "for i in _: _ #2")));
}

TEST(PatternTest, KindPatterns) {
  ProcRef P = mustParse(Nest);
  EXPECT_TRUE(bool(findStmts(*P, "tmp : _")));
  EXPECT_TRUE(bool(findStmts(*P, "if _: _")));
  EXPECT_TRUE(bool(findStmts(*P, "y[_] += _")));
  EXPECT_TRUE(bool(findStmts(*P, "x[_] = _")));
  EXPECT_TRUE(bool(findStmts(*P, "for _ in _: _")));
  EXPECT_FALSE(bool(findStmts(*P, "z[_] = _")));
  EXPECT_FALSE(bool(findStmts(*P, "pass")));
}

TEST(PatternTest, MultiStatementSelection) {
  ProcRef P = mustParse(R"(
@proc
def g(x: R[4]):
    x[0] = 1.0
    x[1] = 2.0
    x[2] = 3.0
)");
  auto C = findStmts(*P, "x[_] = _", 2);
  ASSERT_TRUE(bool(C));
  EXPECT_EQ(C->count(), 2u);
  auto Sel = selectedStmts(*P, *C);
  EXPECT_EQ(printStmt(Sel[1]).find("x[1] = 2.0"), 0u);
  // Selecting past the end fails cleanly.
  auto Bad = findStmts(*P, "x[_] = _ #2", 2);
  EXPECT_FALSE(bool(Bad));
}

TEST(PatternTest, ScopeAtSeesEnclosingBindings) {
  ProcRef P = mustParse(Nest);
  auto C = findStmts(*P, "tmp[_] = _");
  ASSERT_TRUE(bool(C));
  auto Scope = scopeAt(*P, *C);
  EXPECT_TRUE(Scope.count("n"));
  EXPECT_TRUE(Scope.count("x"));
  EXPECT_TRUE(Scope.count("tmp"));
  EXPECT_TRUE(Scope.count("i")) << "enclosing iterator visible";
  EXPECT_FALSE(Scope.count("j")) << "sibling iterator not visible";
  // The inner i shadows the outer one: the bound Sym is the inner loop's.
  auto Inner = findStmts(*P, "for i in _: _ #1");
  ASSERT_TRUE(bool(Inner));
  EXPECT_EQ(Scope.at("i").S, selectedStmts(*P, *Inner)[0]->name());
}

TEST(PatternTest, ConfigWritePattern) {
  frontend::ParseEnv Env;
  auto M = frontend::parseModule(R"(
@config
class CfgP:
    a : int
    b : int
)",
                                 Env);
  ASSERT_TRUE(bool(M));
  auto P = frontend::parseProc(R"(
@proc
def f(x: R[4]):
    CfgP.a = 1
    CfgP.b = 2
    x[0] = 0.0
)",
                               Env);
  ASSERT_TRUE(bool(P));
  auto CA = findStmts(**P, "CfgP.a = _");
  ASSERT_TRUE(bool(CA));
  EXPECT_EQ(CA->Begin, 0u);
  auto CB = findStmts(**P, "CfgP.b = _");
  ASSERT_TRUE(bool(CB));
  EXPECT_EQ(CB->Begin, 1u);
}

} // namespace
