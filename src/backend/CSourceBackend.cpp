//===- backend/CSourceBackend.cpp - C-source backend -----------*- C++ -*-===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The process-isolated execution path. lower() is exactly generateC — a
/// module's source() is what exocc-batch writes and what the golden
/// snapshots pin. execute() lazily compiles the source plus a generated
/// harness into one binary per module: the harness reads a
/// length-prefixed binary argument file, dispatches on the entry name,
/// calls the kernel, and writes every data buffer back. Accelerator
/// traps install an exiting handler (status 77, "EXO_TRAP <code>" on
/// stderr) so a trapping case is contained by the child process and
/// reported as ExecKind::Trap, same as the JIT path.
///
//===----------------------------------------------------------------------===//

#include "backend/Backend.h"

#include "backend/BackendImpl.h"
#include "support/Signals.h"
#include "support/TempDir.h"

#include <atomic>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <sstream>

using namespace exo;
using namespace exo::backend;
using namespace exo::backend::detail;
using namespace exo::ir;

namespace {

/// Exit statuses the generated harness reserves.
enum {
  HarnessTrapExit = 77,    ///< an accelerator sim trapped
  HarnessUsageExit = 86,   ///< bad argv / unreadable files
  HarnessUnknownExit = 87, ///< entry name not in this module
};

/// Compiled state of one csource module.
struct CsModule {
  std::mutex Mu;
  support::TempDir Dir;
  std::string Exe;
  bool Built = false;
  std::string BuildError; ///< non-empty: compilation failed
  std::atomic<uint64_t> NextCall{0};
};

/// Emits the per-entry harness runner: read args (controls as int64,
/// buffers as u64 byte-count + payload), call, write buffers back.
void emitRunner(std::ostream &OS, const EntryInfo &E) {
  OS << "static int exo_case_" << E.Name << "(FILE *in, FILE *out) {\n";
  std::ostringstream Call;
  for (size_t I = 0; I < E.Args.size(); ++I) {
    const FnArg &A = E.Args[I];
    if (I)
      Call << ", ";
    if (A.Ty.isControl()) {
      OS << "  int64_t c" << I << "; if (!exo_rd(in, &c" << I
         << ", 8)) return " << HarnessUsageExit << ";\n";
      Call << "(int_fast32_t)c" << I;
    } else {
      const char *Ty = cTypeOf(A.Ty.elem());
      OS << "  uint64_t n" << I << "; if (!exo_rd(in, &n" << I
         << ", 8)) return " << HarnessUsageExit << ";\n";
      OS << "  " << Ty << " *b" << I << " = (" << Ty << " *)malloc(n" << I
         << " ? n" << I << " : 1);\n";
      OS << "  if (!b" << I << " || !exo_rd(in, b" << I << ", n" << I
         << ")) return " << HarnessUsageExit << ";\n";
      Call << "b" << I;
    }
  }
  OS << "  " << E.Name << "(" << Call.str() << ");\n";
  for (size_t I = 0; I < E.Args.size(); ++I) {
    if (E.Args[I].Ty.isControl())
      continue;
    OS << "  fwrite(&n" << I << ", 8, 1, out); fwrite(b" << I << ", 1, n" << I
       << ", out);\n";
  }
  OS << "  return 0;\n}\n";
}

/// The whole harness appended to the module source before compiling.
/// Kept out of source() so snapshots stay byte-identical.
std::string emitHarness(const LoweredModule &M) {
  std::ostringstream OS;
  OS << "\n/* --- execution harness (backend-internal) --- */\n";
  OS << "#include <stdio.h>\n#include <string.h>\n#include <unistd.h>\n";
  OS << "static int exo_rd(FILE *f, void *p, uint64_t n) {\n"
        "  return fread(p, 1, n, f) == n;\n"
        "}\n";
  bool Gem = usesGemminiSim(M.source());
  bool Amx = usesAmxSim(M.source());
  if (Gem || Amx) {
    OS << "static void exo_trap_exit(int code, const char *what) {\n"
          "  fprintf(stderr, \"EXO_TRAP %d %s\\n\", code, what);\n"
          "  fflush(stderr);\n"
          "  _exit(" << HarnessTrapExit << ");\n"
          "}\n";
  }
  for (const EntryInfo &E : M.entries())
    if (E.Executable)
      emitRunner(OS, E);
  OS << "int main(int argc, char **argv) {\n";
  OS << "  if (argc < 4) return " << HarnessUsageExit << ";\n";
  OS << "  FILE *in = fopen(argv[2], \"rb\");\n";
  OS << "  FILE *out = fopen(argv[3], \"wb\");\n";
  OS << "  if (!in || !out) return " << HarnessUsageExit << ";\n";
  if (Gem)
    OS << "  gemmini_set_trap_handler(exo_trap_exit);\n";
  if (Amx)
    OS << "  amx_set_trap_handler(exo_trap_exit);\n";
  OS << "  int rc = " << HarnessUnknownExit << ";\n";
  for (const EntryInfo &E : M.entries())
    if (E.Executable)
      OS << "  if (!strcmp(argv[1], \"" << E.Name << "\")) rc = exo_case_"
         << E.Name << "(in, out);\n";
  OS << "  if (fclose(out) != 0 && rc == 0) rc = " << HarnessUsageExit
     << ";\n";
  OS << "  fclose(in);\n  return rc;\n}\n";
  return OS.str();
}

/// Compiles the module binary once; later calls reuse or report the
/// recorded failure.
ExecStatus ensureBuilt(LoweredModule &M, CsModule &S) {
  // Child marshalling writes to files today and sockets/pipes tomorrow; a
  // peer dying mid-write must yield an Error status, not SIGPIPE death.
  support::ignoreSigpipe();
  std::lock_guard<std::mutex> Lock(S.Mu);
  if (S.Built)
    return S.BuildError.empty()
               ? ExecStatus{}
               : ExecStatus{ExecKind::CompileError, 0, S.BuildError};
  S.Built = true;

  S.Dir = M.workDirHint().empty() ? support::TempDir("csource")
                                  : support::TempDir::adopt(M.workDirHint());
  if (!S.Dir.valid()) {
    S.BuildError = "csource: cannot create scratch directory";
    return {ExecKind::CompileError, 0, S.BuildError};
  }
  if (M.keepArtifactsHint())
    S.Dir.keep();

  std::string Src = S.Dir.file("module_" + M.hash() + ".c");
  S.Exe = S.Dir.file("module_" + M.hash());
  std::string Err = Src + ".cc.err";
  {
    std::ofstream F(Src);
    F << M.source() << emitHarness(M);
  }
  auto Argv = compileArgv(M.compilerHint(), {"-O1", "-std=c11"}, S.Exe,
                          {Src}, M.source(), /*Link=*/true);
  if (!Argv) {
    S.BuildError = "csource: " + Argv.error().message();
    return {ExecKind::CompileError, 0, S.BuildError};
  }
  if (runCommands({{std::move(*Argv), Err}})[0] != 0) {
    S.BuildError = "cc failed on " + S.Dir.keep() + ": " +
                   truncated(readFile(Err), 800);
    return {ExecKind::CompileError, 0, S.BuildError};
  }
  return {};
}

} // namespace

Expected<LoweredModuleRef>
CSourceBackend::lower(const std::vector<ProcRef> &Procs,
                      const LowerOptions &LO) {
  auto M = lowerCommon(Procs, LO, name());
  if (!M)
    return M;
  (*M)->State = std::make_shared<CsModule>();
  return M;
}

ExecStatus CSourceBackend::execute(LoweredModule &M, const std::string &Entry,
                                   BufferSet &Args) {
  if (M.backendName() != name())
    return {ExecKind::Error, 0,
            "module was lowered by '" + M.backendName() + "', not csource"};
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

  auto &S = *static_cast<CsModule *>(M.state().get());
  ExecStatus Built = ensureBuilt(M, S);
  if (!Built.ok())
    return Built;

  uint64_t Call = S.NextCall++;
  std::string Base = S.Dir.file("call_" + std::to_string(Call));
  std::string In = Base + ".in", Out = Base + ".out", Err = Base + ".err";
  {
    std::ofstream F(In, std::ios::binary);
    for (size_t I = 0; I < Args.size(); ++I) {
      const RunArg &A = Args[I];
      if (A.IsControl) {
        int64_t V = A.Control;
        F.write(reinterpret_cast<const char *>(&V), 8);
      } else {
        uint64_t N = A.Bytes;
        F.write(reinterpret_cast<const char *>(&N), 8);
        F.write(static_cast<const char *>(A.Data),
                static_cast<std::streamsize>(N));
      }
    }
    if (!F) {
      ExecStatus R{ExecKind::Error, 0, "cannot write argument file " + In};
      return R;
    }
  }

  int Rc = runCommands({{{S.Exe, Entry, In, Out}, Err}})[0];

  auto cleanup = [&] {
    if (!S.Dir.kept()) {
      std::remove(In.c_str());
      std::remove(Out.c_str());
      std::remove(Err.c_str());
    }
  };

  if (Rc == HarnessTrapExit) {
    std::string Msg = readFile(Err);
    int Code = 0;
    if (Msg.rfind("EXO_TRAP ", 0) == 0)
      Code = std::atoi(Msg.c_str() + 9);
    cleanup();
    return {ExecKind::Trap, Code, truncated(Msg, 300)};
  }
  if (Rc != 0) {
    std::string Msg = truncated(readFile(Err), 300);
    cleanup();
    if (Rc == HarnessUnknownExit)
      return {ExecKind::Error, 0, "harness has no entry '" + Entry + "'"};
    return {ExecKind::Error, 0,
            "harness exited with status " + std::to_string(Rc) +
                (Msg.empty() ? "" : ": " + Msg)};
  }

  // Read the output buffers back, in argument order.
  std::ifstream F(Out, std::ios::binary);
  for (size_t I = 0; I < Args.size(); ++I) {
    RunArg &A = Args[I];
    if (A.IsControl)
      continue;
    uint64_t N = 0;
    F.read(reinterpret_cast<char *>(&N), 8);
    if (!F || N != A.Bytes) {
      cleanup();
      return {ExecKind::Error, 0,
              "harness output truncated or missized at argument " +
                  std::to_string(I)};
    }
    F.read(static_cast<char *>(A.Data), static_cast<std::streamsize>(N));
    if (!F) {
      cleanup();
      return {ExecKind::Error, 0, "harness output truncated at argument " +
                                      std::to_string(I)};
    }
  }
  cleanup();
  return {};
}
