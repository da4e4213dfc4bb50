//===- backend/BackendImpl.h - Shared backend internals --------*- C++ -*-===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers shared by CSourceBackend and JitBackend: module construction
/// (generateModule + entry metadata + content hash), the host-compiler
/// argv (simulator runtime include paths, conditional
/// sim objects), the JIT's split into translation units, and
/// the generic `void exo_rt_<entry>(void **)` trampoline emission both
/// execution paths marshal through. Internal to src/backend.
///
//===----------------------------------------------------------------------===//

#ifndef EXO_BACKEND_BACKENDIMPL_H
#define EXO_BACKEND_BACKENDIMPL_H

#include "backend/Backend.h"

namespace exo {
namespace backend {
namespace detail {

/// Grants module-construction code access to LoweredModule's private
/// fields without widening the public API.
struct ModuleAccess {
  static CModule &module(LoweredModule &M) { return M.C; }
  static std::string &hash(LoweredModule &M) { return M.Hash; }
  static std::string &backendName(LoweredModule &M) { return M.BackendName; }
  static std::vector<EntryInfo> &entries(LoweredModule &M) {
    return M.Entries;
  }
  static std::shared_ptr<void> &state(LoweredModule &M) { return M.State; }
  static std::string &workDir(LoweredModule &M) { return M.WorkDir; }
  static bool &keepArtifacts(LoweredModule &M) { return M.KeepArtifacts; }
  static std::string &compiler(LoweredModule &M) { return M.Compiler; }
};

/// FNV-1a 64-bit of \p S, as 16 hex digits.
std::string fnv1aHex(const std::string &S);

/// Builds the LoweredModule skeleton every backend shares: runs CodeGen
/// on \p Procs, records one EntryInfo per root (rejecting duplicate
/// names), hashes the source, and stamps the artifact policy from \p LO.
Expected<LoweredModuleRef> lowerCommon(const std::vector<ir::ProcRef> &Procs,
                                       const LowerOptions &LO,
                                       const std::string &BackendName);

/// Whether the generated source pulls in an accelerator simulator (and
/// the build's prebuilt simulator object must be linked into the artifact).
bool usesGemminiSim(const std::string &Source);
bool usesAmxSim(const std::string &Source);

/// The host-compiler argv: `<cc> <Flags> -o <Out> <Inputs> -I <sim
/// runtimes>`, and when \p Link is set, the prebuilt simulator objects
/// \p SourceText references and -lm. An error naming the path when such
/// an object is missing from the build tree.
Expected<std::vector<std::string>>
compileArgv(const std::string &Compiler, const std::vector<std::string> &Flags,
            const std::string &Out, const std::vector<std::string> &Inputs,
            const std::string &SourceText, bool Link);

/// How many translation units a JIT compile of \p M should use given
/// \p HwThreads host threads: one unless the definitions hold enough
/// bytes for each extra unit to repay its fixed cost (DESIGN.md,
/// "Performance").
unsigned unitCount(const CModule &M, unsigned HwThreads);

/// Splits \p M's definitions into at most \p Units translation units,
/// never separating a group, balancing the units by bytes. Returns each
/// unit's definition indices in source order; one unit when \p M has one
/// group (or \p Units is 1).
std::vector<std::vector<size_t>> planUnits(const CModule &M, unsigned Units);

/// C source for the `void exo_rt_<name>(void **a)` trampolines of every
/// executable entry: a[i] is read as int64_t for controls and cast to the
/// argument's element-pointer type otherwise.
std::string emitTrampolines(const std::vector<EntryInfo> &Entries);

/// Reads a whole file; empty string when unreadable.
std::string readFile(const std::string &Path);

/// First \p N bytes of \p S with a "..." marker when truncated.
std::string truncated(std::string S, size_t N);

} // namespace detail
} // namespace backend
} // namespace exo

#endif // EXO_BACKEND_BACKENDIMPL_H
