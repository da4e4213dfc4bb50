//===- backend/MemoryCheck.cpp ---------------------------------*- C++ -*-===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "backend/Checks.h"

#include "backend/Memory.h"

#include <set>
#include <unordered_map>

using namespace exo;
using namespace exo::backend;
using namespace exo::ir;

namespace {

/// Tracks the memory of every buffer in scope and rejects direct accesses
/// to non-addressable memories.
class MemoryChecker {
public:
  std::optional<Error> Err;

  void checkProc(const Proc &P) {
    std::unordered_map<Sym, std::string> Mem;
    for (const FnArg &A : P.args())
      if (!A.Ty.isControl())
        Mem[A.Name] = A.Mem;
    checkBlock(P.body(), Mem, P.name());
  }

private:
  void fail(const std::string &Msg) {
    if (!Err)
      Err = makeError(Error::Kind::Backend, Msg);
  }

  bool addressable(const std::string &MemName, const std::string &ProcName) {
    MemoryRef M = MemoryRegistry::instance().find(MemName);
    if (!M) {
      fail("unknown memory '" + MemName + "' in " + ProcName);
      return true;
    }
    return M->isAddressable();
  }

  void checkAccess(Sym Buf, const std::unordered_map<Sym, std::string> &Mem,
                   const std::string &ProcName, const char *What) {
    auto It = Mem.find(Buf);
    if (It == Mem.end())
      return; // control var or unknown — not this check's business
    if (!addressable(It->second, ProcName))
      fail("buffer '" + Buf.name() + "' lives in non-addressable memory '" +
           It->second + "' and cannot be " + What +
           " directly; use a custom instruction (in " + ProcName + ")");
  }

  void checkExpr(const ExprRef &E,
                 const std::unordered_map<Sym, std::string> &Mem,
                 const std::string &ProcName) {
    if (E->kind() == ExprKind::Read && E->type().isData() &&
        !E->args().empty())
      checkAccess(E->name(), Mem, ProcName, "read");
    for (const ExprRef &K : childExprs(E))
      if (K)
        checkExpr(K, Mem, ProcName);
  }

  void checkBlock(const Block &B, std::unordered_map<Sym, std::string> Mem,
                  const std::string &ProcName) {
    for (const StmtRef &S : B) {
      switch (S->kind()) {
      case StmtKind::Assign:
      case StmtKind::Reduce:
        checkAccess(S->name(), Mem, ProcName,
                    S->kind() == StmtKind::Assign ? "written" : "reduced");
        for (const ExprRef &I : S->indices())
          checkExpr(I, Mem, ProcName);
        checkExpr(S->rhs(), Mem, ProcName);
        break;
      case StmtKind::WriteConfig:
        checkExpr(S->rhs(), Mem, ProcName);
        break;
      case StmtKind::Alloc:
        Mem[S->name()] = S->memName();
        (void)addressable(S->memName(), ProcName); // existence check
        break;
      case StmtKind::WindowStmt:
        // The window inherits its base buffer's memory.
        if (auto It = Mem.find(S->rhs()->name()); It != Mem.end())
          Mem[S->name()] = It->second;
        break;
      case StmtKind::If:
        checkExpr(S->rhs(), Mem, ProcName);
        checkBlock(S->body(), Mem, ProcName);
        checkBlock(S->orelse(), Mem, ProcName);
        break;
      case StmtKind::For:
        checkBlock(S->body(), Mem, ProcName);
        break;
      case StmtKind::Call: {
        // Instructions access their operands through hardware; plain
        // callees are checked recursively with the memories of the
        // actuals.
        if (S->proc()->isInstr()) {
          checkInstrOperands(*S->proc(), S, Mem, ProcName);
          break;
        }
        if (!Visited.insert(S->proc().get()).second)
          break;
        checkProcWithArgMems(*S->proc(), S, Mem);
        break;
      }
      case StmtKind::Pass:
        break;
      }
    }
  }

  /// The memory of the buffer an actual argument reads or windows; empty
  /// for anything else (control values, untracked names).
  static std::string actualMemory(
      const ExprRef &Actual,
      const std::unordered_map<Sym, std::string> &Mem) {
    if (Actual->kind() != ExprKind::Read &&
        Actual->kind() != ExprKind::WindowExpr)
      return "";
    auto It = Mem.find(Actual->name());
    return It == Mem.end() ? "" : It->second;
  }

  /// An instruction formal in a non-addressable memory names where the
  /// hardware reads or writes: the actual must live in that memory, or the
  /// instruction would treat a host buffer as, say, scratchpad rows.
  /// Addressable formals (AVX512 registers) accept any actual: the x86
  /// conv kernel broadcasts DRAM weights straight into an fmadd.
  void checkInstrOperands(const Proc &Instr, const StmtRef &CallSite,
                          const std::unordered_map<Sym, std::string> &Mem,
                          const std::string &ProcName) {
    for (size_t I = 0; I < Instr.args().size(); ++I) {
      const FnArg &A = Instr.args()[I];
      if (A.Ty.isControl() || addressable(A.Mem, ProcName))
        continue;
      std::string Got = actualMemory(CallSite->args()[I], Mem);
      if (!Got.empty() && Got != A.Mem)
        fail("instruction '" + Instr.name() + "' needs argument '" +
             A.Name.name() + "' in memory '" + A.Mem + "', but '" +
             CallSite->args()[I]->name().name() + "' lives in '" + Got +
             "' (in " + ProcName + ")");
    }
  }

  void checkProcWithArgMems(const Proc &Callee, const StmtRef &CallSite,
                            const std::unordered_map<Sym, std::string> &Mem) {
    std::unordered_map<Sym, std::string> CalleeMem;
    for (size_t I = 0; I < Callee.args().size(); ++I) {
      const FnArg &A = Callee.args()[I];
      if (A.Ty.isControl())
        continue;
      std::string M = actualMemory(CallSite->args()[I], Mem);
      CalleeMem[A.Name] = M.empty() ? A.Mem : M;
    }
    checkBlock(Callee.body(), std::move(CalleeMem), Callee.name());
  }

  std::set<const Proc *> Visited;
};

} // namespace

Expected<bool> exo::backend::checkMemories(const ProcRef &P) {
  MemoryChecker C;
  C.checkProc(*P);
  if (C.Err)
    return *C.Err;
  return true;
}
