//===- backend/CodeGen.h - C code generation -------------------*- C++ -*-===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Generates human-readable C from LoopIR (§3.1.2):
///
///  * data values — including scalars — are passed by pointer;
///  * windows compile to structs carrying a data pointer and strides
///    (static sizes alone cannot address a strided view);
///  * buffer allocation/free go through the user-defined Memory hooks;
///  * calls to @instr procedures expand their C template with argument
///    strings interpolated (instruction procedures are never emitted as
///    functions — that is the whole point of §3.2.2);
///  * static assertions become compiler hints.
///
/// Backend checks (memory discipline, precision consistency) run first.
///
//===----------------------------------------------------------------------===//

#ifndef EXO_BACKEND_CODEGEN_H
#define EXO_BACKEND_CODEGEN_H

#include "ir/Proc.h"
#include "support/Error.h"

namespace exo {
namespace backend {

struct CodeGenOptions {
  /// Emitted verbatim near the top of the file (e.g. test harness
  /// includes).
  std::string Prelude;
  /// Skip the backend checks (used by tests that exercise codegen alone).
  bool SkipChecks = false;
};

/// A generated C file and where its parts lie. Text[0, PreludeBytes) is
/// what any translation unit of the file needs: includes, memory and
/// instruction globals, window typedefs, the static config structs and the
/// forward declarations. Each Def is one procedure's definition. Defs of
/// one Group must be compiled in the same unit: a caller with its non-instr
/// callees, and every procedure that reads or writes the same config (each
/// unit would get its own copy of a static config struct). A file whose
/// globals or prelude hold anything but preprocessor lines and line
/// comments is one group, since each unit would define it again.
struct CModule {
  struct Def {
    std::string Name;
    size_t Begin = 0, End = 0; ///< the definition is Text[Begin, End)
    unsigned Group = 0;        ///< dense, numbered in order of first use
  };
  std::string Text;
  size_t PreludeBytes = 0;
  std::vector<Def> Defs;
};

/// Generates one self-contained C file defining \p Procs (and every
/// non-instr procedure they transitively call), with its layout.
Expected<CModule> generateModule(const std::vector<ir::ProcRef> &Procs,
                                 const CodeGenOptions &Opts = {});

/// generateModule's Text alone.
Expected<std::string> generateC(const std::vector<ir::ProcRef> &Procs,
                                const CodeGenOptions &Opts = {});

/// Convenience single-proc form.
Expected<std::string> generateC(const ir::ProcRef &P,
                                const CodeGenOptions &Opts = {});

/// The C scalar type for a precision ("float", "int8_t", ...). R resolves
/// to float.
const char *cTypeOf(ir::ScalarKind K);

} // namespace backend
} // namespace exo

#endif // EXO_BACKEND_CODEGEN_H
