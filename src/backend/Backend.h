//===- backend/Backend.h - Pluggable execution backends --------*- C++ -*-===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The pluggable execution surface of the compiler (DESIGN.md, "Execution
/// backends"). A Backend turns procedures into a LoweredModule and can —
/// when it advertises the capability — execute an entry of that module on
/// caller-supplied buffers:
///
///   lower(procs)              -> LoweredModule   (always available)
///   execute(module, entry, bufs) -> ExecStatus   (CanExecute backends)
///
/// Two implementations ship in-tree:
///
///  * CSourceBackend wraps CodeGen: LoweredModule::source() is exactly
///    the generateC output (golden snapshots and exocc-batch output stay
///    byte-identical), and execution compiles a standalone harness binary
///    and runs each call in a child process — slow, but every crash and
///    accelerator trap is contained by process isolation.
///
///  * JitBackend compiles the same C to a temp .so (one `cc -shared
///    -fPIC` per distinct source, or a large module's independent parts
///    as parallel `cc -c` units linked once; content-hashed module cache,
///    dlclose on eviction) and calls entries in-process through generated
///    trampolines. Accelerator traps are contained per module: each .so
///    links a private copy of the build's prebuilt simulator objects (the
///    csource harness binary links one too), and the backend routes that
///    copy's trap handler through a recording callback for the duration
///    of a call, so a trapping case fails with ExecKind::Trap instead of
///    killing the process.
///
/// The registry (findBackend/allBackends/registerBackend) is how the
/// oracle, the kernel suite, and future autotuner drivers pick their
/// execution strategy by name — they hold no backend-specific code.
///
//===----------------------------------------------------------------------===//

#ifndef EXO_BACKEND_BACKEND_H
#define EXO_BACKEND_BACKEND_H

#include "backend/CodeGen.h"
#include "ir/Proc.h"
#include "support/Error.h"

#include <memory>
#include <string>
#include <vector>

namespace exo {
namespace backend {

//===----------------------------------------------------------------------===//
// Execution values
//===----------------------------------------------------------------------===//

/// One runtime argument. Control arguments carry their value; data
/// arguments point at a caller-owned buffer of the argument's C element
/// type (row-major for tensors, a single element for data scalars). The
/// backend never interprets element types — it marshals Bytes opaquely —
/// so the caller is responsible for sizing Data as elemSize * numElems.
struct RunArg {
  bool IsControl = false;
  int64_t Control = 0;
  void *Data = nullptr;
  size_t Bytes = 0;

  static RunArg control(int64_t V) { return {true, V, nullptr, 0}; }
  static RunArg buffer(void *D, size_t B) { return {false, 0, D, B}; }
};

/// The full argument list of one call, in procedure argument order.
using BufferSet = std::vector<RunArg>;

enum class ExecKind {
  Ok,           ///< the call ran; output buffers hold the results
  Trap,         ///< an accelerator sim raised a structured trap
  Unsupported,  ///< this entry (or backend) cannot execute
  CompileError, ///< the module's host compilation failed
  Error,        ///< the call crashed or the harness misbehaved
};

struct ExecStatus {
  ExecKind Kind = ExecKind::Ok;
  int TrapCode = 0;   ///< simulator trap code, when Kind == Trap
  std::string Detail; ///< human-readable diagnosis

  bool ok() const { return Kind == ExecKind::Ok; }
};

const char *execKindName(ExecKind K);

namespace detail {
struct ModuleAccess; // backend-internal construction helper
}

//===----------------------------------------------------------------------===//
// Lowered modules
//===----------------------------------------------------------------------===//

/// What lower() knows about one callable entry of a module.
struct EntryInfo {
  std::string Name;             ///< C symbol, == the proc name
  std::vector<ir::FnArg> Args;  ///< the proc's formal arguments
  /// False when the signature cannot be marshalled generically (a
  /// window-typed top-level argument); execute() reports Unsupported.
  bool Executable = true;
};

/// The result of lowering: the generated C source (byte-identical across
/// backends — the JIT appends its trampolines only into the compiled
/// artifact, never into source()), per-entry metadata, and the owning
/// backend's compiled state. Modules are handed out as shared_ptrs; the
/// compiled artifact (child-process binary or dlopened .so) lives exactly
/// as long as the last reference to it — a cache eviction while a module
/// is still in use defers the dlclose until that module is destroyed.
class LoweredModule {
public:
  const std::string &source() const { return C.Text; }
  /// source() with its layout: the prelude, each definition and its group.
  const CModule &layout() const { return C; }
  /// FNV-1a of source(), hex — the JIT cache key.
  const std::string &hash() const { return Hash; }
  const std::string &backendName() const { return BackendName; }
  const std::vector<EntryInfo> &entries() const { return Entries; }
  const EntryInfo *findEntry(const std::string &Name) const;

  /// Backend-private compiled state (lazily populated on first execute);
  /// opaque to everyone but the owning backend.
  const std::shared_ptr<void> &state() const { return State; }
  /// Artifact policy captured from LowerOptions at lower() time.
  const std::string &workDirHint() const { return WorkDir; }
  bool keepArtifactsHint() const { return KeepArtifacts; }
  const std::string &compilerHint() const { return Compiler; }

private:
  friend class CSourceBackend;
  friend class JitBackend;
  friend struct detail::ModuleAccess;
  CModule C;
  std::string Hash;
  std::string BackendName;
  std::vector<EntryInfo> Entries;
  std::shared_ptr<void> State;
  std::string WorkDir;
  bool KeepArtifacts = false;
  std::string Compiler;
};

using LoweredModuleRef = std::shared_ptr<LoweredModule>;

//===----------------------------------------------------------------------===//
// The Backend interface
//===----------------------------------------------------------------------===//

/// Capability flags, advertised by caps().
enum BackendCaps : unsigned {
  CapCanExecute = 1u << 0,      ///< execute() is implemented
  CapInProcess = 1u << 1,       ///< calls run in this process (no spawn)
  CapTrapContainment = 1u << 2, ///< a sim trap fails the case, not the run
};

struct LowerOptions {
  CodeGenOptions CG;
  /// Scratch directory for compiled artifacts; empty means a fresh
  /// support::TempDir per module, removed with the module (kept on
  /// compile failure so the evidence survives).
  std::string WorkDir;
  bool KeepArtifacts = false;
  /// Host C compiler; empty means "cc".
  std::string Compiler;
  /// Extra bytes folded into the module content hash ahead of the source
  /// (tenant id, option fingerprint, ...). The hash keys the JIT's
  /// process-wide module cache, so two tenants lowering byte-identical C
  /// under different salts get distinct cache entries — an unloaded or
  /// breaker-quarantined module can never be resurrected for a different
  /// tenant by content-hash collision. Empty (the default) preserves the
  /// plain source hash. The compiler choice is folded in alongside for
  /// the same reason: same C under a different host compiler is a
  /// different artifact.
  std::string CacheSalt;
};

class Backend {
public:
  virtual ~Backend();

  virtual std::string name() const = 0;
  virtual unsigned caps() const = 0;

  /// Lowers \p Procs (and their transitive callees) into one module.
  /// Entry names must be unique — callers replaying clones of one
  /// procedure rename them first (C allows one definition per name).
  virtual Expected<LoweredModuleRef>
  lower(const std::vector<ir::ProcRef> &Procs, const LowerOptions &LO = {}) = 0;

  /// Convenience single-proc form.
  Expected<LoweredModuleRef> lower(const ir::ProcRef &P,
                                   const LowerOptions &LO = {});

  /// Runs \p Entry of \p M on \p Args (outputs are written back into the
  /// caller's buffers). Never throws; all failure modes — including
  /// lazy compilation of the module — are reported in the status.
  virtual ExecStatus execute(LoweredModule &M, const std::string &Entry,
                             BufferSet &Args) = 0;
};

//===----------------------------------------------------------------------===//
// Implementations
//===----------------------------------------------------------------------===//

class CSourceBackend final : public Backend {
public:
  using Backend::lower; // keep the single-proc convenience visible

  std::string name() const override { return "csource"; }
  unsigned caps() const override {
    return CapCanExecute | CapTrapContainment;
  }
  Expected<LoweredModuleRef> lower(const std::vector<ir::ProcRef> &Procs,
                                   const LowerOptions &LO = {}) override;
  ExecStatus execute(LoweredModule &M, const std::string &Entry,
                     BufferSet &Args) override;
};

class JitBackend final : public Backend {
public:
  struct CacheStats {
    uint64_t Compiles = 0;  ///< modules actually compiled (cache misses)
    uint64_t Hits = 0;      ///< modules served from the content cache
    uint64_t Evictions = 0; ///< modules LRU-evicted (dlclosed when idle)
  };

  using Backend::lower; // keep the single-proc convenience visible

  std::string name() const override { return "jit"; }
  unsigned caps() const override {
    return CapCanExecute | CapInProcess | CapTrapContainment;
  }
  Expected<LoweredModuleRef> lower(const std::vector<ir::ProcRef> &Procs,
                                   const LowerOptions &LO = {}) override;
  ExecStatus execute(LoweredModule &M, const std::string &Entry,
                     BufferSet &Args) override;

  /// Global (process-wide) cache counters; resetCacheStats zeroes them
  /// for per-phase measurements.
  static CacheStats cacheStats();
  static void resetCacheStats();
  /// Maximum distinct compiled modules held by the cache (LRU beyond it).
  static void setCacheCapacity(size_t N);
  /// Drops every cached module (modules still referenced by a live
  /// LoweredModule survive until released). Used for cold-cache
  /// measurements; not counted as evictions.
  static void clearCache();

  /// dlsym into a module's .so, compiling it first if needed. Returns
  /// null when the symbol is absent or the module is not a JIT module.
  /// Used by tests and drivers that poke simulator state (cycle counters,
  /// fault-injection hooks) inside a specific module instance.
  void *moduleSymbol(LoweredModule &M, const std::string &Name);
};

//===----------------------------------------------------------------------===//
// Registry
//===----------------------------------------------------------------------===//

/// The built-in backends (created on first use, never destroyed).
CSourceBackend &csourceBackend();
JitBackend &jitBackend();

/// Looks a backend up by name(); null when unknown.
Backend *findBackend(const std::string &Name);

/// Every registered backend, built-ins first, in registration order.
std::vector<Backend *> allBackends();

/// Registers an out-of-tree backend (not owned; must outlive the
/// process). Replaces any previous backend of the same name.
void registerBackend(Backend *B);

} // namespace backend
} // namespace exo

#endif // EXO_BACKEND_BACKEND_H
