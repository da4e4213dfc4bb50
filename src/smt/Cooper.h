//===- smt/Cooper.h - Cooper's quantifier elimination ----------*- C++ -*-===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Cooper's algorithm for Presburger arithmetic: eliminates one integer
/// quantifier from an NNF formula without DNF conversion. The scoped
/// eliminator (Prenex.h) calls eliminateBlock at each quantifier chain,
/// inside out, which decides arbitrary closed LIA sentences: what the
/// effect analysis of §5/§6 needs.
///
/// Reference: D.C. Cooper, "Theorem Proving in Arithmetic without
/// Multiplication", Machine Intelligence 7, 1972.
///
//===----------------------------------------------------------------------===//

#ifndef EXO_SMT_COOPER_H
#define EXO_SMT_COOPER_H

#include "smt/QForm.h"

#include <vector>

namespace exo {
namespace smt {

/// Eliminates `exists VarId` from \p F (an NNF QForm). The result mentions
/// only the remaining variables. Miniscopes first: the quantifier moves
/// into the disjuncts of an Or, and conjuncts that do not mention VarId
/// stay outside the Cooper expansion. On budget exhaustion returns
/// garbage; the caller must check \p B.exceeded().
QFormRef eliminateExists(unsigned VarId, const QFormRef &F, Budget &B);

/// Eliminates `exists Vars` from \p F, a block of adjacent existentials
/// listed outermost first. With the cheap-var ordering stage enabled
/// (SimplifyConfig::CheapVarOrder) the variable with the smallest
/// coefficient LCM goes first and elimination stops once \p F is ground;
/// otherwise the block is eliminated innermost-first. Same budget
/// contract as eliminateExists.
QFormRef eliminateBlock(std::vector<unsigned> Vars, QFormRef F, Budget &B);

} // namespace smt
} // namespace exo

#endif // EXO_SMT_COOPER_H
