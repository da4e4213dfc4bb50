//===- tests/WideModule.h - Modules large enough to split ------*- C++ -*-===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Builds modules of many independent procedures with long bodies, so the
/// JIT splits them into several translation units (DESIGN.md,
/// "Performance"). Each procedure `<Prefix><k>(A: R[16], B: R[16])` adds
/// A[i] * c to B[i] once per body line, for distinct constants c.
///
//===----------------------------------------------------------------------===//

#ifndef EXO_TESTS_WIDEMODULE_H
#define EXO_TESTS_WIDEMODULE_H

#include "frontend/Parser.h"

#include <string>
#include <vector>

namespace exo {
namespace testhelp {

inline std::vector<ir::ProcRef> wideProcs(const std::string &Prefix,
                                          unsigned NumProcs = 8,
                                          unsigned Lines = 120) {
  std::vector<ir::ProcRef> Procs;
  for (unsigned K = 0; K < NumProcs; ++K) {
    std::string Src = "@proc\ndef " + Prefix + std::to_string(K) +
                      "(A: R[16], B: R[16]):\n    for i in seq(0, 16):\n";
    for (unsigned L = 0; L < Lines; ++L)
      Src += "        B[i] += A[i] * " + std::to_string(K + L % 5) + ".0\n";
    frontend::ParseEnv Env;
    auto P = frontend::parseProc(Src, Env);
    if (!P)
      fatalError("wide module parse failed: " + P.error().str());
    Procs.push_back(*P);
  }
  return Procs;
}

} // namespace testhelp
} // namespace exo

#endif // EXO_TESTS_WIDEMODULE_H
