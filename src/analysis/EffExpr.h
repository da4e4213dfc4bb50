//===- analysis/EffExpr.h - Ternary effect expressions ---------*- C++ -*-===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Effect expressions (§5.1, §5.2): the ternary logic B ∪ {⊥} and integer
/// values Z ∪ {⊥}, encoded into classical SMT terms as pairs.
///
///   TriBool  = (Must, May)  with  Must == D(p), May == M(p), Must ⟹ May.
///   EffInt   = (Val, Def)   with  Def : Bool meaning "Val is known".
///
/// Unknown (⊥) booleans are (false, true); unknown integers carry a fresh
/// unconstrained variable with Def == false. The D and M collapse
/// operators of §5.1 are just projections of the pair.
///
/// AnalysisCtx owns the mapping from IR symbols to solver variables and
/// performs Lift : Expr → EffExpr (appendix C) under an effect
/// environment γ (Def 5.2). Nothing in the analysis outlives its context:
/// two contexts share no solver variable and no state.
///
//===----------------------------------------------------------------------===//

#ifndef EXO_ANALYSIS_EFFEXPR_H
#define EXO_ANALYSIS_EFFEXPR_H

#include "ir/Config.h"
#include "ir/Expr.h"
#include "ir/Stmt.h"
#include "smt/Solver.h"

#include <map>
#include <unordered_map>

namespace exo {
namespace analysis {

/// A ternary boolean as a (D, M) pair of classical formulas.
struct TriBool {
  smt::TermRef Must; ///< D p — definitely true
  smt::TermRef May;  ///< M p — possibly true

  static TriBool certain(smt::TermRef P) { return {P, P}; }
  static TriBool yes() { return certain(smt::mkTrue()); }
  static TriBool no() { return certain(smt::mkFalse()); }
  static TriBool unknown() { return {smt::mkFalse(), smt::mkTrue()}; }
};

TriBool triAnd(const TriBool &A, const TriBool &B);
TriBool triOr(const TriBool &A, const TriBool &B);
TriBool triNot(const TriBool &A);
TriBool triImplies(const TriBool &A, const TriBool &B);
TriBool triExists(const smt::TermVar &V, const TriBool &A);
TriBool triForall(const smt::TermVar &V, const TriBool &A);

/// A possibly-unknown integer value.
struct EffInt {
  smt::TermRef Val;
  smt::TermRef Def; ///< Bool: the value is determined

  static EffInt known(smt::TermRef V) { return {std::move(V), smt::mkTrue()}; }
  bool isKnown() const {
    return Def->kind() == smt::TermKind::BoolConst && Def->boolValue();
  }
};

/// Ternary integer comparison: unknown when either side is unknown.
TriBool triCmp(ir::BinOpKind Op, const EffInt &A, const EffInt &B);
/// Ternary integer equality (shorthand).
TriBool triEq(const EffInt &A, const EffInt &B);

/// The effect environment γ (Def 5.2): control names and configuration
/// fields to their current symbolic values. Names absent from the map
/// default to "the variable itself".
using EffEnv = std::map<ir::Sym, EffInt>;

/// The state of one analysis session. One AnalysisCtx spans one
/// scheduling operation's worth of queries and owns the solver variables
/// they are posed over: the Sym → variable mapping, the uninterpreted
/// stride values and the per-loop iteration variables. A context is used
/// by one thread at a time, so none of this is locked.
class AnalysisCtx {
public:
  AnalysisCtx() = default;

  /// The solver variable standing for an IR symbol (control variables,
  /// configuration fields).
  smt::TermVar varFor(ir::Sym S);

  /// Reverse lookup: the IR symbol a solver variable stands for, if any.
  std::optional<ir::Sym> symFor(unsigned VarId) const;

  /// Reverse lookup for stride values: (buffer, dim) of a solver variable
  /// created by strideValue, if any.
  std::optional<std::pair<ir::Sym, unsigned>> strideFor(unsigned VarId) const;

  /// A stable uninterpreted value for stride(buffer, dim).
  smt::TermRef strideValue(ir::Sym Buffer, unsigned Dim);

  /// The iteration variable of a For statement. Stable across extractions
  /// of the same node within this context (an alpha choice that keeps
  /// summaries, and the queries posed over them, reproducible); distinct
  /// nodes get distinct variables even when they share an iterator Sym.
  smt::TermVar loopVar(const ir::StmtRef &For);

  /// A fresh unknown integer (⊥ of sort int).
  EffInt unknownInt();

  /// Lift (appendix C): evaluates a *control-typed* expression to an
  /// EffInt under γ. Booleans are modeled as 0/1 integers by liftBool.
  /// Unliftable forms (data values, non-affine ops) yield unknown.
  EffInt liftControl(const ir::ExprRef &E, const EffEnv &Env);

  /// Lifts a boolean control expression to a ternary boolean.
  TriBool liftBool(const ir::ExprRef &E, const EffEnv &Env);

  /// Decides D(P): is the formula definitely true under every assignment?
  smt::SolverResult checkDefinitely(const TriBool &P);
  /// Decides D(P) under a premise (e.g. the path condition and asserted
  /// preconditions): valid(premise.Must ⟹ P.Must).
  smt::SolverResult checkDefinitely(const TriBool &Premise, const TriBool &P);

  smt::Solver &solver() { return TheSolver; }

private:
  smt::Solver TheSolver;
  std::unordered_map<ir::Sym, smt::TermVar> Vars;
  std::unordered_map<unsigned, ir::Sym> VarSyms;
  std::map<std::pair<ir::Sym, unsigned>, smt::TermRef> Strides;
  std::unordered_map<unsigned, std::pair<ir::Sym, unsigned>> StrideSyms;
  /// Keyed by node; the StmtRef pins the node so its address cannot be
  /// reused while the context lives.
  std::unordered_map<const ir::Stmt *, std::pair<ir::StmtRef, smt::TermVar>>
      LoopVars;
};

} // namespace analysis
} // namespace exo

#endif // EXO_ANALYSIS_EFFEXPR_H
