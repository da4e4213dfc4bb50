//===- ir/Proc.h - LoopIR procedures ---------------------------*- C++ -*-===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Procedures: the compilation unit of the language. A procedure carries
/// its arguments (with memory annotations), its asserted preconditions,
/// its body, an optional instruction annotation (the @instr C template of
/// §3.2.2), and a provenance link recording which procedure it was derived
/// from by scheduling — the backbone of the equivalence lattice (§6).
///
//===----------------------------------------------------------------------===//

#ifndef EXO_IR_PROC_H
#define EXO_IR_PROC_H

#include "ir/Stmt.h"

#include <set>

namespace exo {
namespace ir {

/// One formal argument.
struct FnArg {
  Sym Name;
  Type Ty;
  std::string Mem = "DRAM"; ///< memory annotation for tensor args
};

/// The @instr annotation: a C template with {arg} placeholders, plus an
/// optional global snippet (e.g. an #include) emitted once per file.
struct InstrInfo {
  std::string CTemplate;
  std::string CGlobal;
};

/// The region a scheduling rewrite replaced, recorded on the derived
/// procedure so cursor forwarding knows which subtrees are new.
/// Everything outside the region — and outside the rebuilt spine leading
/// to it — is shared with the parent procedure by node identity.
struct DirtyRegion {
  /// One step of the spine path, mirroring analysis::PathStep (which the
  /// ir layer cannot name).
  struct Step {
    unsigned Index;           ///< statement index in the current block
    bool IntoOrelse = false;  ///< descend into orelse instead of body
  };

  /// True for rewrites with no cursor (whole-body walkers such as
  /// simplify, delete_pass, set_precision): nothing can be assumed shared.
  bool Whole = true;
  std::vector<Step> Path;     ///< spine from the proc body to the edit
  unsigned Begin = 0;         ///< first replaced statement in that block
  unsigned OldCount = 0;      ///< statements removed from the parent
  unsigned NewCount = 0;      ///< statements inserted in the derived proc
  /// The scheduling operator that made the edit ("split", "stage",
  /// ...). Diagnostic only — cursor forwarding reports it when a rewrite
  /// invalidates a handle; analysis never branches on it.
  std::string Op;
};

/// A procedure. Immutable; scheduling produces new procedures linked by
/// provenance.
class Proc {
public:
  Proc(std::string Name, std::vector<FnArg> Args, std::vector<ExprRef> Preds,
       Block Body)
      : Name(std::move(Name)), Args(std::move(Args)), Preds(std::move(Preds)),
        Body(std::move(Body)) {}

  const std::string &name() const { return Name; }
  const std::vector<FnArg> &args() const { return Args; }
  /// Asserted preconditions (§3.1 item 6): control-typed boolean exprs.
  const std::vector<ExprRef> &preds() const { return Preds; }
  const Block &body() const { return Body; }

  bool isInstr() const { return Instr.has_value(); }
  const InstrInfo &instr() const {
    assert(Instr && "not an instruction");
    return *Instr;
  }

  /// The procedure this one was derived from (null for originals).
  const ProcRef &parent() const { return Parent; }
  /// Config fields (Config.field syms) this proc's derivation polluted:
  /// it is equivalent to its parent only modulo these globals (§4.3).
  const std::set<Sym> &configDelta() const { return ConfigDelta; }
  /// Which region of this proc the deriving rewrite replaced, when known.
  /// Meaningful only together with parent(); absent for originals.
  const std::optional<DirtyRegion> &dirtyRegion() const { return Dirty; }

  /// Finds an argument by name; returns nullptr if absent.
  const FnArg *findArg(Sym Name) const;

  std::string str() const;

  // Mutating-clone helpers (used by Builder and the scheduling ops).
  std::shared_ptr<Proc> clone() const;
  void setInstr(InstrInfo I) { Instr = std::move(I); }
  void setBody(Block B) { Body = std::move(B); }
  void setName(std::string N) { Name = std::move(N); }
  void setArgs(std::vector<FnArg> A) { Args = std::move(A); }
  void setPreds(std::vector<ExprRef> P) { Preds = std::move(P); }
  void setProvenance(ProcRef P, std::set<Sym> Delta) {
    Parent = std::move(P);
    ConfigDelta = std::move(Delta);
  }
  void setDirtyRegion(DirtyRegion R) { Dirty = std::move(R); }

private:
  std::string Name;
  std::vector<FnArg> Args;
  std::vector<ExprRef> Preds;
  Block Body;
  std::optional<InstrInfo> Instr;
  ProcRef Parent;
  std::set<Sym> ConfigDelta;
  std::optional<DirtyRegion> Dirty; ///< not copied by clone()
};

} // namespace ir
} // namespace exo

#endif // EXO_IR_PROC_H
