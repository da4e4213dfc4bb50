//===- examples/config_hoisting.cpp - The paper's §2 walkthrough -*- C++-*-===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Reproduces the Section 2 running example step by step: define a
/// hardware library (configuration state + instructions) in user code,
/// replace a loop nest with the load instruction, then hoist the
/// pipeline-flushing configuration instruction out of the loops using
/// reorder_stmts / fission_after / remove_loop — every step checked by
/// the ternary-logic effect analysis.
///
//===----------------------------------------------------------------------===//

#include "frontend/Parser.h"
#include "ir/Printer.h"
#include "scheduling/Schedule.h"

#include <cstdio>

using namespace exo;
using namespace exo::ir;
using namespace exo::scheduling;

static void show(const char *Title, const ProcRef &P) {
  std::printf("=== %s ===\n%s\n", Title, printProc(P).c_str());
}

int main() {
  frontend::ParseEnv Env;

  // --- hw_lib.py: the hardware library (paper §2.2-2.4) ---
  auto Lib = frontend::parseModule(R"x(
@config
class ConfigLoad:
    src_stride : stride

@instr("config_ld({s});")
def config_ld_def(s: stride):
    ConfigLoad.src_stride = s

@instr("mvin({src}.data, {dst}.data, {n}, {m});")
def real_ld_data(n: size, m: size, src: [R][n, m], dst: [R][n, 16]):
    assert m <= 16
    assert ConfigLoad.src_stride == stride(src, 0)
    for i in seq(0, n):
        for j in seq(0, m):
            dst[i, j] = src[i, j]
)x",
                                   Env);
  if (!Lib) {
    std::fprintf(stderr, "%s\n", Lib.error().str().c_str());
    return 1;
  }
  ConfigRef Cfg = Env.findConfig("ConfigLoad");
  ProcRef ConfigLd = Env.findProc("config_ld_def");
  ProcRef RealLd = Env.findProc("real_ld_data");

  // --- app.py: a loop of tile loads with the stride configured inside
  //     the loop (the naive, pipeline-flushing version). ---
  auto App = frontend::parseProc(R"(
@proc
def loads(A: R[128, 128], buf: R[16, 16]):
    for ko in seq(0, 8):
        ConfigLoad.src_stride = stride(A, 0)
        for i in seq(0, 16):
            for j in seq(0, 16):
                buf[i, j] = A[i, 16 * ko + j]
)",
                                 Env);
  if (!App) {
    std::fprintf(stderr, "%s\n", App.error().str().c_str());
    return 1;
  }
  show("start: configuration written inside the loop", *App);

  // Each step resolves its target with Cursor::find, the one place a
  // pattern string becomes a cursor, and hands the cursor to the
  // operator.
  auto at = [](const ProcRef &P, const char *Pattern) {
    return Cursor::find(P, Pattern).take(Pattern);
  };

  // Step 1: the config write becomes the config instruction.
  ProcRef S1 = replaceWith(at(*App, "ConfigLoad.src_stride = _"), ConfigLd)
                   .take("replace config write");
  show("step 1: replace() selects the config instruction", S1);

  // Step 2: the load loops become the mvin instruction. Its
  // precondition (the configured stride matches the source) is proven
  // through the symbolic dataflow of the preceding config call.
  ProcRef S2 =
      replaceWith(at(S1, "for i in _: _"), RealLd).take("replace load");
  show("step 2: replace() selects mvin (precondition discharged)", S2);

  // Step 3: split the loop after the config call (fission_after checks
  // that the two halves commute across iterations).
  ProcRef S3 = fissionAfter(at(S2, "config_ld_def(_)")).take("fission");
  show("step 3: fission_after isolates the config call", S3);

  // Step 4: the config loop is idempotent (Shadows(a, a)) and runs at
  // least once, so remove_loop deletes it.
  ProcRef S4 = removeLoop(at(S3, "for ko in _: _")).take("remove_loop");
  show("step 4: remove_loop hoists the config to the top", S4);

  std::printf("The accelerator pipeline now flushes once instead of 8 "
              "times.\n");
  (void)Cfg;
  return 0;
}
