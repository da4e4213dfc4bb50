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
/// .so and dlopened; a module large enough to repay it is compiled as
/// concurrent `cc -c` translation units and linked once (DESIGN.md,
/// "Performance"). Compiled modules live in a process-wide
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
/// and region registry before the call and reports ExecKind::Trap after
/// it, so a trapping candidate fails the case — never the process — and
/// entries that share a module cannot leak bounds-check state into each
/// other.
///
//===----------------------------------------------------------------------===//

#include "backend/Backend.h"

#include "backend/BackendImpl.h"
#include "support/Process.h"
#include "support/Signals.h"
#include "support/TempDir.h"

#include <cstdlib>
#include <fstream>
#include <list>
#include <map>
#include <mutex>
#include <thread>

#include <dlfcn.h>

using namespace exo;
using namespace exo::backend;
using namespace exo::backend::detail;
using support::Command;
using support::runCommands;
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
  void (*ClearRegions)() = nullptr;
  uint64_t (*TrapCount)() = nullptr;
  int (*LastTrap)() = nullptr;
  const char *(*TrapName)(int) = nullptr;

  bool present() const {
    return ClearTraps && ClearRegions && TrapCount && LastTrap;
  }
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
  B.ClearRegions = reinterpret_cast<void (*)()>(
      M.symbol(Prefix + "_clear_regions"));
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
/// BuildError is set on failure (with the evidence directory kept). A
/// module big enough to repay it is split into translation units that
/// compile concurrently and are linked once; any other module is one
/// `cc -shared` of the whole source.
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

  // The whole module is always written: it is the single unit's input and
  // the evidence when a split unit fails.
  const CModule &C = M.layout();
  std::string Base = J->Dir.file("module_" + M.hash());
  std::string So = Base + ".so";
  {
    std::ofstream F(Base + ".c");
    F << M.source() << emitTrampolines(M.entries());
  }
  // -O0 halves compile time vs -O1 and execution is bit-identical on the
  // integer-exact data the oracle feeds; -w because generated code is
  // warning-noisy under harnesses and the diagnostics go nowhere.
  // The simulator objects are built with these same flags (minus
  // -shared), so the simulator bytes in every module are identical.
  const std::vector<std::string> Flags = {"-O0", "-w", "-pipe", "-std=c11",
                                          "-fPIC"};
  std::vector<std::vector<size_t>> Plan =
      planUnits(C, unitCount(C, std::thread::hardware_concurrency()));
  // A split module's units compile with `cc -c`, each to its own object;
  // the final `cc -shared` links them (or compiles the one whole source).
  std::vector<Command> Units;
  std::vector<std::string> Inputs;
  for (size_t U = 0; Plan.size() > 1 && U < Plan.size(); ++U) {
    std::string Unit = Base + "_u" + std::to_string(U);
    std::vector<EntryInfo> Entries;
    {
      std::ofstream F(Unit + ".c");
      F.write(C.Text.data(), static_cast<std::streamsize>(C.PreludeBytes));
      for (size_t D : Plan[U]) {
        const CModule::Def &Def = C.Defs[D];
        F.write(C.Text.data() + Def.Begin,
                static_cast<std::streamsize>(Def.End - Def.Begin));
        if (const EntryInfo *E = M.findEntry(Def.Name))
          Entries.push_back(*E);
      }
      F << emitTrampolines(Entries);
    }
    std::vector<std::string> Compile = Flags;
    Compile.push_back("-c");
    Units.push_back({*compileArgv(M.compilerHint(), Compile, Unit + ".o",
                                  {Unit + ".c"}, M.source(), /*Link=*/false),
                     Unit + ".c.cc.err"});
    Inputs.push_back(Unit + ".o");
  }
  if (Inputs.empty())
    Inputs.push_back(Base + ".c");
  std::vector<std::string> Shared = Flags;
  Shared.push_back("-shared");
  auto Link = compileArgv(M.compilerHint(), Shared, So, Inputs, M.source(),
                          /*Link=*/true);
  if (!Link) {
    J->BuildError = "jit: " + Link.error().message();
    return J;
  }

  std::vector<int> Status = runCommands(Units);
  for (size_t U = 0; U < Units.size(); ++U)
    if (Status[U] != 0) {
      J->BuildError = "cc failed on " + J->Dir.keep() + " (unit " +
                      std::to_string(U) + " of " +
                      std::to_string(Units.size()) + "): " +
                      truncated(readFile(Units[U].ErrPath), 800);
      return J;
    }
  std::string Err = Base + ".c.cc.err";
  if (runCommands({{std::move(*Link), Err}})[0] != 0) {
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

  // Sim state is module-global. Each call starts with no recorded traps
  // and an empty region registry: a module may hold many entries, and an
  // earlier call's leftovers (a registry overflow disables bounds checks
  // for good) must not decide a later call's verdict.
  std::lock_guard<std::mutex> Lock(J->Mu);
  for (const SimBridge *B : {&J->Gemmini, &J->Amx})
    if (B->present()) {
      B->ClearTraps();
      B->ClearRegions();
    }

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
