//===- backend/JitBackend.cpp - In-process JIT backend ---------*- C++ -*-===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The in-process execution path: the module source (identical to the
/// csource backend's, byte for byte) plus generated `exo_rt_<entry>`
/// trampolines are compiled once with `cc -O0 -shared -fPIC` into a temp
/// .so and dlopened. Compiled modules live in a process-wide
/// content-hashed cache (key: FNV-1a of the generated source), so
/// re-lowering the same program — the autotuner's and the fuzz replay
/// loop's common case — costs a hash lookup instead of a compile. LRU
/// eviction dlcloses a module as soon as no live LoweredModule still
/// references it (the handle is shared_ptr-owned, so an in-use module
/// survives its own eviction until released).
///
/// Trap containment is per module: each .so statically links a private
/// copy of the build's prebuilt simulator objects (compiled once per
/// build tree, never at run time), so simulator state is module-local
/// under RTLD_LOCAL. The backend installs a host-side recording handler
/// into that copy at load time. execute() clears the module's trap state
/// before the call and reports ExecKind::Trap after it, so a trapping
/// candidate fails the case — never the process.
///
//===----------------------------------------------------------------------===//

#include "backend/Backend.h"

#include "backend/BackendImpl.h"
#include "support/Signals.h"
#include "support/TempDir.h"

#include <cstdlib>
#include <fstream>
#include <list>
#include <map>
#include <mutex>

#include <dlfcn.h>

using namespace exo;
using namespace exo::backend;
using namespace exo::backend::detail;
using namespace exo::ir;

namespace {

/// A recording trap handler installed into every module's simulator
/// copies: the sims count traps before dispatching, so containment only
/// needs the handler to return (the faulting instruction is skipped).
extern "C" void exoJitTrapSink(int, const char *) {}

/// The simulator bridge of one dlopened module: the trap/stat entry
/// points of the module's own runtime copies, resolved once at load.
struct SimBridge {
  void (*ClearTraps)() = nullptr;
  uint64_t (*TrapCount)() = nullptr;
  int (*LastTrap)() = nullptr;
  const char *(*TrapName)(int) = nullptr;

  bool present() const { return ClearTraps && TrapCount && LastTrap; }
};

/// One compiled .so. Owned by shared_ptr from both the cache and every
/// LoweredModule using it; dlclose runs when the last owner lets go.
struct JitModule {
  support::TempDir Dir;
  void *Handle = nullptr;
  std::string BuildError;
  SimBridge Gemmini, Amx;
  std::map<std::string, void *> Symbols;
  std::mutex Mu; ///< serializes calls into this module

  ~JitModule() {
    if (Handle)
      dlclose(Handle);
  }

  void *symbol(const std::string &Name) {
    if (!Handle)
      return nullptr;
    auto It = Symbols.find(Name);
    if (It != Symbols.end())
      return It->second;
    void *S = dlsym(Handle, Name.c_str());
    Symbols[Name] = S;
    return S;
  }
};

using JitModuleRef = std::shared_ptr<JitModule>;

SimBridge resolveBridge(JitModule &M, const std::string &Prefix) {
  SimBridge B;
  B.ClearTraps = reinterpret_cast<void (*)()>(
      M.symbol(Prefix + "_clear_traps"));
  B.TrapCount =
      reinterpret_cast<uint64_t (*)()>(M.symbol(Prefix + "_trap_count"));
  B.LastTrap = reinterpret_cast<int (*)()>(M.symbol(Prefix + "_last_trap"));
  B.TrapName = reinterpret_cast<const char *(*)(int)>(
      M.symbol(Prefix + "_trap_name"));
  if (B.present()) {
    using TrapFn = void (*)(int, const char *);
    auto SetTrap = reinterpret_cast<TrapFn (*)(TrapFn)>(
        M.symbol(Prefix + "_set_trap_handler"));
    if (SetTrap)
      SetTrap(exoJitTrapSink); // route this module's traps to the sink
  }
  return B;
}

/// The process-wide content-addressed module cache.
struct JitCache {
  std::mutex Mu;
  size_t Capacity = 64;
  std::map<std::string, JitModuleRef> ByHash;
  std::list<std::string> Lru; ///< front = most recently used
  JitBackend::CacheStats Stats;

  static JitCache &instance() {
    static JitCache *C = new JitCache();
    return *C;
  }

  void touch(const std::string &Hash) {
    Lru.remove(Hash);
    Lru.push_front(Hash);
  }

  void evictOver() {
    while (ByHash.size() > Capacity && !Lru.empty()) {
      std::string Victim = Lru.back();
      Lru.pop_back();
      ByHash.erase(Victim); // dlclose deferred until last user releases
      ++Stats.Evictions;
    }
  }
};

/// Compiles one module into a fresh .so; returns a JitModule whose
/// BuildError is set on failure (with the evidence directory kept).
JitModuleRef compileModule(const LoweredModule &M) {
  support::ignoreSigpipe(); // cc children write through pipes
  auto J = std::make_shared<JitModule>();
  J->Dir = M.workDirHint().empty()
               ? support::TempDir("jit")
               : support::TempDir::adopt(M.workDirHint());
  if (!J->Dir.valid()) {
    J->BuildError = "jit: cannot create scratch directory";
    return J;
  }
  if (M.keepArtifactsHint())
    J->Dir.keep();

  std::string Src = J->Dir.file("module_" + M.hash() + ".c");
  std::string So = J->Dir.file("module_" + M.hash() + ".so");
  std::string Err = Src + ".cc.err";
  {
    std::ofstream F(Src);
    F << M.source() << emitTrampolines(M.entries());
  }
  // -O0 halves compile time vs -O1 and execution is bit-identical on the
  // integer-exact data the oracle feeds; -w because generated code is
  // warning-noisy under harnesses and the diagnostics go nowhere.
  // The simulator objects are built with these same flags (minus
  // -shared), so the simulator bytes in every module are identical.
  auto Cmd = compileCommand(M.compilerHint(),
                            "-O0 -w -pipe -std=c11 -shared -fPIC", Src, So,
                            M.source(), Err);
  if (!Cmd) {
    J->BuildError = "jit: " + Cmd.error().message();
    return J;
  }
  if (std::system(Cmd->c_str()) != 0) {
    J->BuildError = "cc failed on " + J->Dir.keep() + ": " +
                    truncated(readFile(Err), 800);
    return J;
  }
  J->Handle = dlopen(So.c_str(), RTLD_NOW | RTLD_LOCAL);
  if (!J->Handle) {
    const char *E = dlerror();
    J->BuildError = "dlopen failed on " + J->Dir.keep() + ": " +
                    (E ? E : "unknown error");
    return J;
  }
  if (usesGemminiSim(M.source()))
    J->Gemmini = resolveBridge(*J, "gemmini");
  if (usesAmxSim(M.source()))
    J->Amx = resolveBridge(*J, "amx");
  return J;
}

/// Returns the compiled module for \p M, from the cache when the same
/// source was compiled before. Never returns null; check BuildError.
JitModuleRef ensureBuilt(LoweredModule &M) {
  if (M.state())
    return std::static_pointer_cast<JitModule>(M.state());

  JitCache &C = JitCache::instance();
  {
    std::lock_guard<std::mutex> Lock(C.Mu);
    auto It = C.ByHash.find(M.hash());
    if (It != C.ByHash.end()) {
      ++C.Stats.Hits;
      C.touch(M.hash());
      ModuleAccess::state(M) = It->second;
      return It->second;
    }
  }

  // Compile outside the cache lock: cc dominates and concurrent lowers of
  // *different* sources must not serialize. A rare duplicate compile of
  // the same source is benign (second insert wins the cache, both work).
  JitModuleRef J = compileModule(M);
  {
    std::lock_guard<std::mutex> Lock(C.Mu);
    ++C.Stats.Compiles;
    if (J->Handle) { // only cache healthy modules
      C.ByHash[M.hash()] = J;
      C.touch(M.hash());
      C.evictOver();
    }
  }
  ModuleAccess::state(M) = J;
  return J;
}

} // namespace

Expected<LoweredModuleRef> JitBackend::lower(const std::vector<ProcRef> &Procs,
                                             const LowerOptions &LO) {
  return lowerCommon(Procs, LO, name());
}

ExecStatus JitBackend::execute(LoweredModule &M, const std::string &Entry,
                               BufferSet &Args) {
  if (M.backendName() != name())
    return {ExecKind::Error, 0,
            "module was lowered by '" + M.backendName() + "', not jit"};
  const EntryInfo *E = M.findEntry(Entry);
  if (!E)
    return {ExecKind::Error, 0, "no entry '" + Entry + "' in module"};
  if (!E->Executable)
    return {ExecKind::Unsupported, 0,
            "entry '" + Entry + "' has a window-typed argument"};
  if (Args.size() != E->Args.size())
    return {ExecKind::Error, 0,
            "entry '" + Entry + "' takes " + std::to_string(E->Args.size()) +
                " arguments, got " + std::to_string(Args.size())};

  JitModuleRef J = ensureBuilt(M);
  if (!J->BuildError.empty())
    return {ExecKind::CompileError, 0, J->BuildError};

  void *Sym = J->symbol("exo_rt_" + Entry);
  if (!Sym)
    return {ExecKind::Error, 0, "trampoline for '" + Entry + "' not found"};
  auto Fn = reinterpret_cast<void (*)(void **)>(Sym);

  // Control values need stable addresses for the void** marshalling.
  std::vector<int64_t> Controls(Args.size(), 0);
  std::vector<void *> Ptrs(Args.size(), nullptr);
  for (size_t I = 0; I < Args.size(); ++I) {
    if (Args[I].IsControl) {
      Controls[I] = Args[I].Control;
      Ptrs[I] = &Controls[I];
    } else {
      Ptrs[I] = Args[I].Data;
    }
  }

  std::lock_guard<std::mutex> Lock(J->Mu); // sim state is module-global
  if (J->Gemmini.present())
    J->Gemmini.ClearTraps();
  if (J->Amx.present())
    J->Amx.ClearTraps();

  Fn(Ptrs.data());

  for (const SimBridge *B : {&J->Gemmini, &J->Amx}) {
    if (!B->present() || B->TrapCount() == 0)
      continue;
    int Code = B->LastTrap();
    std::string Name = B->TrapName ? B->TrapName(Code) : "trap";
    return {ExecKind::Trap, Code,
            "sim trap " + std::to_string(Code) + " (" + Name + "), " +
                std::to_string(B->TrapCount()) + " total"};
  }
  return {};
}

JitBackend::CacheStats JitBackend::cacheStats() {
  JitCache &C = JitCache::instance();
  std::lock_guard<std::mutex> Lock(C.Mu);
  return C.Stats;
}

void JitBackend::resetCacheStats() {
  JitCache &C = JitCache::instance();
  std::lock_guard<std::mutex> Lock(C.Mu);
  C.Stats = {};
}

void JitBackend::clearCache() {
  JitCache &C = JitCache::instance();
  std::lock_guard<std::mutex> Lock(C.Mu);
  C.ByHash.clear();
  C.Lru.clear();
}

void JitBackend::setCacheCapacity(size_t N) {
  JitCache &C = JitCache::instance();
  std::lock_guard<std::mutex> Lock(C.Mu);
  C.Capacity = N ? N : 1;
  C.evictOver();
}

void *JitBackend::moduleSymbol(LoweredModule &M, const std::string &Name) {
  if (M.backendName() != name())
    return nullptr;
  JitModuleRef J = ensureBuilt(M);
  if (!J->BuildError.empty())
    return nullptr;
  std::lock_guard<std::mutex> Lock(J->Mu);
  return J->symbol(Name);
}
