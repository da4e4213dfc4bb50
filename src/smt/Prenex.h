//===- smt/Prenex.h - Scoped quantifier elimination ------------*- C++ -*-===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Converts a closed Term into a ground QForm by eliminating every
/// quantifier where it is bound. The walk
///   - pushes negations (NNF) and expands Implies / boolean Ite,
///   - freshly renames every bound variable (so no binder can capture),
///   - splits atoms containing integer-sorted Ite into guarded cases,
///   - lowers quasi-affine Div/Mod terms into fresh existential quotients
///     with functional defining constraints (an equivalence, valid under
///     any polarity, because the quotient is uniquely determined),
///   - maps Bool-sorted variables onto 0/1-constrained Int variables.
///
/// Scoped elimination: at each maximal chain of same-kind quantifiers
/// (forall x1 forall x2 ..., seen through negations) the walk converts
/// the chain's body and then runs Cooper on the chain's variables right
/// there (Cooper.h, eliminateBlock); a forall chain is eliminated as
/// not-exists-not. Only the body of one chain is ever in scope, never
/// the whole query's matrix, and an eliminated sub-chain leaves behind a
/// formula over the outer variables only.
///
/// Quotient placement: a div/mod quotient is eliminated by the innermost
/// chain enclosing its atom. In an exists chain it joins the chain's
/// variables, so the cost ordering weighs it against them. In a forall
/// chain it is eliminated before them, because the quotient depends on
/// the chain's variables (forall x. exists q, never exists q. forall x).
/// Cooper's miniscoping (Cooper.h) then expands it only over the
/// subformula it occurs in.
///
//===----------------------------------------------------------------------===//

#ifndef EXO_SMT_PRENEX_H
#define EXO_SMT_PRENEX_H

#include "smt/QForm.h"
#include "smt/Term.h"

namespace exo {
namespace smt {

/// Eliminates every quantifier of the closed formula \p F. The result is
/// True or False; anything else means \p F was not closed. On budget
/// exhaustion the result is garbage; the caller must check
/// \p B.exceeded().
QFormRef eliminateQuantifiers(const TermRef &F, Budget &B);

} // namespace smt
} // namespace exo

#endif // EXO_SMT_PRENEX_H
