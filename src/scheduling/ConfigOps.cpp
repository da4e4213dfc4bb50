//===- scheduling/ConfigOps.cpp - Configuration-state rewrites -*- C++ -*-===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The configuration-polluting rewrites of §2.4 / §5.7 ("new config
/// write"): inserting a configuration write is always safe *in isolation*
/// but only yields equivalence modulo the written field; performing it in
/// context additionally requires that no code executing afterwards reads
/// the field (§6.2). The resulting procedures record the pollution in
/// their provenance so call_eqv can reason about the lattice.
///
//===----------------------------------------------------------------------===//

#include "scheduling/OpsCommon.h"

#include "ir/Printer.h"

#include <functional>

using namespace exo;
using namespace exo::scheduling;
using namespace exo::ir;
using namespace exo::analysis;

namespace {

/// Common legwork: resolve the field, parse the value expression in
/// scope, and run the §6.2 context check.
struct ConfigInsertion {
  Sym CfgSym;
  Sym FieldSym;
  ExprRef Value;
  std::optional<Error> Err;

  ConfigInsertion(const ProcRef &P, OpContext &Op, const ConfigRef &Cfg,
                  const std::string &Field, const std::string &ValueSrc,
                  const std::set<Sym> &SelfReads) {
    const ConfigDecl::Field *F = Cfg->findField(Field);
    if (!F) {
      Err = makeError(Error::Kind::Scheduling,
                      "config '" + Cfg->name().name() + "' has no field '" +
                          Field + "'");
      return;
    }
    CfgSym = Cfg->name();
    FieldSym = F->Name;

    frontend::ParseEnv Env;
    Env.addConfig(Cfg);
    auto V = frontend::parseExprInScope(ValueSrc, scopeAt(*P, Op.cursor()),
                                        Env);
    if (!V) {
      Err = V.error();
      return;
    }
    Value = *V;

    // §6.2: the field must not be read by anything executing after the
    // insertion point (including the selected statements themselves and
    // later iterations of enclosing loops).
    const ContextInfo &Info = Op.info();
    if (Info.PostReadFields.count(FieldSym) || SelfReads.count(FieldSym)) {
      Err = makeError(Error::Kind::Safety,
                      "config field '" + Field +
                          "' is read after the inserted write; the rewrite "
                          "would not be equivalent modulo the field");
      return;
    }
  }
};

} // namespace

Expected<ProcRef> exo::scheduling::configWriteAt(const Cursor &Stmt,
                                                 const ConfigRef &Cfg,
                                                 const std::string &Field,
                                                 const std::string &ValueSrc) {
  ScopedOpName OpName(ops::ConfigWrite);
  auto C = selection(Stmt);
  if (!C)
    return C.error();
  const ProcRef &P = Stmt.proc();
  OpContext Op(P, *C);
  StmtRef S = Op.stmt();
  std::set<Sym> SelfReads;
  collectConfigReads(S, SelfReads);
  ConfigInsertion Ins(P, Op, Cfg, Field, ValueSrc, SelfReads);
  if (Ins.Err)
    return *Ins.Err;
  StmtRef Write = Stmt::writeConfig(Ins.CfgSym, Ins.FieldSym, Ins.Value);
  return Op.derive({Write, S}, {Ins.FieldSym});
}

Expected<ProcRef> exo::scheduling::configWriteRoot(const ProcRef &P,
                                                   const ConfigRef &Cfg,
                                                   const std::string &Field,
                                                   const std::string &ValueSrc) {
  ScopedOpName OpName(ops::ConfigWriteRoot);
  StmtCursor Top;
  Top.Begin = 0;
  Top.End = 0; // empty selection at the very start
  std::set<Sym> SelfReads;
  collectConfigReads(P->body(), SelfReads);
  OpContext Op(P, Top);
  ConfigInsertion Ins(P, Op, Cfg, Field, ValueSrc, SelfReads);
  if (Ins.Err)
    return *Ins.Err;
  return Op.derive({Stmt::writeConfig(Ins.CfgSym, Ins.FieldSym, Ins.Value)},
                   {Ins.FieldSym});
}

Expected<ProcRef> exo::scheduling::bindConfig(const Cursor &Stmt,
                                              const std::string &ExprPat,
                                              const ConfigRef &Cfg,
                                              const std::string &Field) {
  ScopedOpName OpName(ops::BindConfig);
  auto C = selection(Stmt);
  if (!C)
    return C.error();
  OpContext Op(Stmt.proc(), *C);
  StmtRef S = Op.stmt();
  const ConfigDecl::Field *F = Cfg->findField(Field);
  if (!F)
    return makeError(Error::Kind::Scheduling,
                     "config '" + Cfg->name().name() + "' has no field '" +
                         Field + "'");

  auto Squeeze = [](const std::string &In) {
    std::string Out;
    for (char Ch : In)
      if (!std::isspace(static_cast<unsigned char>(Ch)))
        Out += Ch;
    return Out;
  };
  std::string Wanted = Squeeze(ExprPat);

  ExprRef Found;
  std::function<void(const ExprRef &)> Search = [&](const ExprRef &E) {
    if (!E || Found)
      return;
    if (E->type().isControl() && Squeeze(printExpr(E)) == Wanted) {
      Found = E;
      return;
    }
    for (auto &K : childExprs(E))
      Search(K);
  };
  for (auto &I : S->indices())
    Search(I);
  if (S->Rhs)
    Search(S->Rhs);
  if (S->kind() == StmtKind::For) {
    Search(S->lo());
    Search(S->hi());
  }
  if (!Found)
    return makeError(Error::Kind::Pattern,
                     "bind_config: no control subexpression matches '" +
                         ExprPat + "'");

  // Context condition (§6.2) — same as inserting a write before s, except
  // the selected statement now deliberately reads the field.
  const ContextInfo &Info = Op.info();
  if (Info.PostReadFields.count(F->Name))
    return makeError(Error::Kind::Safety,
                     "config field '" + Field +
                         "' is read after the statement");

  ExprRef NewRead = Expr::readConfig(Cfg->name(), F->Name, F->Ty);
  std::function<ExprRef(const ExprRef &)> Rewrite =
      [&](const ExprRef &E) -> ExprRef {
    if (E->type().isControl() && Squeeze(printExpr(E)) == Wanted)
      return NewRead;
    std::vector<ExprRef> Kids = childExprs(E);
    bool Changed = false;
    for (auto &K : Kids) {
      if (!K)
        continue;
      ExprRef R = Rewrite(K);
      Changed |= R != K;
      K = R;
    }
    return Changed ? withNewArgs(E, std::move(Kids)) : E;
  };

  StmtRef NewStmt;
  switch (S->kind()) {
  case StmtKind::Assign:
  case StmtKind::Reduce: {
    std::vector<ExprRef> Idx;
    for (auto &I : S->indices())
      Idx.push_back(Rewrite(I));
    ExprRef Rhs = Rewrite(S->rhs());
    NewStmt = S->kind() == StmtKind::Assign
                  ? Stmt::assign(S->name(), std::move(Idx), std::move(Rhs))
                  : Stmt::reduce(S->name(), std::move(Idx), std::move(Rhs));
    break;
  }
  case StmtKind::For:
    NewStmt = Stmt::forStmt(S->name(), Rewrite(S->lo()), Rewrite(S->hi()),
                            S->body());
    break;
  case StmtKind::Call: {
    std::vector<ExprRef> Args;
    for (auto &A : S->args())
      Args.push_back(Rewrite(A));
    NewStmt = Stmt::call(S->proc(), std::move(Args));
    break;
  }
  default:
    return makeError(Error::Kind::Scheduling,
                     "bind_config: unsupported statement kind");
  }

  StmtRef Write = Stmt::writeConfig(Cfg->name(), F->Name, Found);
  return Op.derive({Write, NewStmt}, {F->Name});
}
