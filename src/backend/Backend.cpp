//===- backend/Backend.cpp - Pluggable execution backends ------*- C++ -*-===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "backend/Backend.h"

#include "backend/BackendImpl.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <mutex>
#include <numeric>
#include <sstream>

#include <unistd.h>

using namespace exo;
using namespace exo::backend;
using namespace exo::ir;

#ifndef EXO_SOURCE_DIR
#define EXO_SOURCE_DIR "."
#endif

const char *exo::backend::execKindName(ExecKind K) {
  switch (K) {
  case ExecKind::Ok:
    return "ok";
  case ExecKind::Trap:
    return "trap";
  case ExecKind::Unsupported:
    return "unsupported";
  case ExecKind::CompileError:
    return "compile-error";
  case ExecKind::Error:
    return "error";
  }
  return "unknown";
}

const EntryInfo *LoweredModule::findEntry(const std::string &Name) const {
  for (const EntryInfo &E : Entries)
    if (E.Name == Name)
      return &E;
  return nullptr;
}

Backend::~Backend() = default;

Expected<LoweredModuleRef> Backend::lower(const ProcRef &P,
                                          const LowerOptions &LO) {
  return lower(std::vector<ProcRef>{P}, LO);
}

//===----------------------------------------------------------------------===//
// Shared internals
//===----------------------------------------------------------------------===//

std::string detail::fnv1aHex(const std::string &S) {
  uint64_t H = 1469598103934665603ull;
  for (unsigned char C : S) {
    H ^= C;
    H *= 1099511628211ull;
  }
  char Buf[17];
  std::snprintf(Buf, sizeof(Buf), "%016llx", (unsigned long long)H);
  return Buf;
}

bool detail::usesGemminiSim(const std::string &Source) {
  return Source.find("gemmini_sim.h") != std::string::npos;
}

bool detail::usesAmxSim(const std::string &Source) {
  return Source.find("amx_sim.h") != std::string::npos;
}

Expected<std::vector<std::string>>
detail::compileArgv(const std::string &Compiler,
                    const std::vector<std::string> &Flags,
                    const std::string &Out,
                    const std::vector<std::string> &Inputs,
                    const std::string &SourceText, bool Link) {
  std::vector<std::string> Argv{Compiler.empty() ? "cc" : Compiler};
  Argv.insert(Argv.end(), Flags.begin(), Flags.end());
  Argv.insert(Argv.end(), {"-o", Out});
  Argv.insert(Argv.end(), Inputs.begin(), Inputs.end());
  for (const char *Dir : {EXO_SOURCE_DIR "/src/hwlibs/avx512/runtime",
                          EXO_SOURCE_DIR "/src/hwlibs/gemmini/runtime",
                          EXO_SOURCE_DIR "/src/hwlibs/amx/runtime"})
    Argv.insert(Argv.end(), {"-I", Dir});
  if (!Link)
    return Argv;
  // The simulator objects are build artifacts (src/CMakeLists.txt); each
  // module links its own copy of the ones its source includes.
  std::vector<const char *> SimObjects;
  if (usesGemminiSim(SourceText))
    SimObjects.push_back(EXO_GEMMINI_SIM_OBJ);
  if (usesAmxSim(SourceText))
    SimObjects.push_back(EXO_AMX_SIM_OBJ);
  for (const char *Obj : SimObjects) {
    if (access(Obj, R_OK) != 0)
      return makeError(Error::Kind::Backend,
                       std::string("simulator object ") + Obj +
                           " is missing (rebuild the exo_backend target)");
    Argv.push_back(Obj);
  }
  Argv.push_back("-lm");
  return Argv;
}

unsigned detail::unitCount(const CModule &M, unsigned HwThreads) {
  // At -O0 on a 4-core x86 host, `cc -c` spends about 15 ms on a unit
  // however small (process start, the prelude, the object file) and about
  // 3.5 ms per KB of definitions, and linking the objects costs about
  // 20 ms. A unit of less than this does not repay its share of those.
  constexpr size_t MinUnitBytes = 8 * 1024;
  size_t DefBytes = M.Text.size() - M.PreludeBytes;
  return static_cast<unsigned>(std::max<size_t>(
      1, std::min<size_t>(HwThreads, DefBytes / MinUnitBytes)));
}

std::vector<std::vector<size_t>> detail::planUnits(const CModule &M,
                                                   unsigned Units) {
  std::vector<size_t> GroupBytes;
  for (const CModule::Def &D : M.Defs) {
    if (D.Group >= GroupBytes.size())
      GroupBytes.resize(D.Group + 1, 0);
    GroupBytes[D.Group] += D.End - D.Begin;
  }
  Units = std::max(1u, std::min<unsigned>(Units, GroupBytes.size()));
  // Largest group first, each onto the lightest unit so far.
  std::vector<unsigned> ByBytes(GroupBytes.size());
  std::iota(ByBytes.begin(), ByBytes.end(), 0u);
  std::stable_sort(ByBytes.begin(), ByBytes.end(), [&](unsigned A, unsigned B) {
    return GroupBytes[A] > GroupBytes[B];
  });
  std::vector<size_t> Load(Units, 0);
  std::vector<unsigned> UnitOf(GroupBytes.size(), 0);
  for (unsigned G : ByBytes) {
    unsigned U = static_cast<unsigned>(
        std::min_element(Load.begin(), Load.end()) - Load.begin());
    UnitOf[G] = U;
    Load[U] += GroupBytes[G];
  }
  std::vector<std::vector<size_t>> Plan(Units);
  for (size_t I = 0; I < M.Defs.size(); ++I)
    Plan[UnitOf[M.Defs[I].Group]].push_back(I);
  return Plan;
}

std::string detail::readFile(const std::string &Path) {
  std::ifstream In(Path);
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

std::string detail::truncated(std::string S, size_t N) {
  if (S.size() > N)
    S = S.substr(0, N) + "...";
  return S;
}

Expected<LoweredModuleRef>
detail::lowerCommon(const std::vector<ProcRef> &Procs, const LowerOptions &LO,
                    const std::string &BackendName) {
  auto C = generateModule(Procs, LO.CG);
  if (!C)
    return C.error();

  auto M = std::make_shared<LoweredModule>();
  ModuleAccess::module(*M) = std::move(*C);
  // Tenant/compiler salts partition the content-addressed module caches;
  // the unsalted form is kept bit-stable so existing hashes (and the
  // csource-vs-jit equal-hash property under equal options) don't move.
  if (LO.CacheSalt.empty() && LO.Compiler.empty())
    ModuleAccess::hash(*M) = fnv1aHex(M->source());
  else
    ModuleAccess::hash(*M) = fnv1aHex(LO.CacheSalt + '\x1f' + LO.Compiler +
                                      '\x1f' + M->source());
  ModuleAccess::backendName(*M) = BackendName;
  ModuleAccess::workDir(*M) = LO.WorkDir;
  ModuleAccess::keepArtifacts(*M) = LO.KeepArtifacts;
  ModuleAccess::compiler(*M) = LO.Compiler;
  for (const ProcRef &P : Procs) {
    if (M->findEntry(P->name()))
      return makeError(Error::Kind::Internal,
                       "backend: duplicate entry name '" + P->name() +
                           "' in one module (rename clones before lowering)");
    EntryInfo E;
    E.Name = P->name();
    E.Args = P->args();
    for (const FnArg &A : P->args())
      if (A.Ty.isWindow())
        E.Executable = false; // no generic ABI for struct-by-value windows
    ModuleAccess::entries(*M).push_back(std::move(E));
  }
  return M;
}

std::string detail::emitTrampolines(const std::vector<EntryInfo> &Entries) {
  std::ostringstream OS;
  OS << "\n/* --- generic execution trampolines (backend-internal; not part"
        " of the\n   module's source()) --- */\n";
  for (const EntryInfo &E : Entries) {
    if (!E.Executable)
      continue;
    OS << "void exo_rt_" << E.Name << "(void **a);\n";
    OS << "void exo_rt_" << E.Name << "(void **a) {\n  " << E.Name << "(";
    for (size_t I = 0; I < E.Args.size(); ++I) {
      if (I)
        OS << ", ";
      const FnArg &A = E.Args[I];
      if (A.Ty.isControl())
        OS << "(int_fast32_t)*(const int64_t *)a[" << I << "]";
      else
        OS << "(" << cTypeOf(A.Ty.elem()) << " *)a[" << I << "]";
    }
    OS << ");\n}\n";
  }
  return OS.str();
}

//===----------------------------------------------------------------------===//
// Registry
//===----------------------------------------------------------------------===//

namespace {

struct Registry {
  std::mutex Mu;
  std::vector<Backend *> Backends;

  static Registry &instance() {
    static Registry *R = new Registry(); // leaked: backends live forever
    return *R;
  }
};

} // namespace

CSourceBackend &exo::backend::csourceBackend() {
  static CSourceBackend *B = [] {
    auto *P = new CSourceBackend();
    registerBackend(P);
    return P;
  }();
  return *B;
}

JitBackend &exo::backend::jitBackend() {
  static JitBackend *B = [] {
    auto *P = new JitBackend();
    registerBackend(P);
    return P;
  }();
  return *B;
}

static void ensureBuiltins() {
  csourceBackend();
  jitBackend();
}

void exo::backend::registerBackend(Backend *B) {
  Registry &R = Registry::instance();
  std::lock_guard<std::mutex> Lock(R.Mu);
  for (Backend *&Existing : R.Backends)
    if (Existing->name() == B->name()) {
      Existing = B;
      return;
    }
  R.Backends.push_back(B);
}

Backend *exo::backend::findBackend(const std::string &Name) {
  ensureBuiltins();
  Registry &R = Registry::instance();
  std::lock_guard<std::mutex> Lock(R.Mu);
  for (Backend *B : R.Backends)
    if (B->name() == Name)
      return B;
  return nullptr;
}

std::vector<Backend *> exo::backend::allBackends() {
  ensureBuiltins();
  Registry &R = Registry::instance();
  std::lock_guard<std::mutex> Lock(R.Mu);
  return R.Backends;
}
