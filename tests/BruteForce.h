//===- tests/BruteForce.h - Brute-force solver reference -------*- C++ -*-===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The reference the solver tests compare against: evaluates a Term under
/// an assignment of its free variables, and decides each quantifier by
/// enumerating its variable over the window [Lo, Hi]. That is exact
/// whenever every value that can make the quantified body true (for an
/// exists) or false (for a forall) lies inside the window, e.g. when each
/// bound variable is guarded to a range inside it or pinned by an equality
/// to one.
///
//===----------------------------------------------------------------------===//

#ifndef EXO_TESTS_BRUTEFORCE_H
#define EXO_TESTS_BRUTEFORCE_H

#include "smt/Term.h"
#include "support/MathExtras.h"

#include <map>
#include <optional>

namespace exo {
namespace bruteforce {

struct Evaluator {
  int64_t Lo, Hi; ///< quantifier window, inclusive
  std::map<unsigned, int64_t> Env;

  int64_t term(const smt::TermRef &T) {
    using smt::TermKind;
    switch (T->kind()) {
    case TermKind::IntConst:
      return T->intValue();
    case TermKind::Var:
      return Env.at(T->var().Id);
    case TermKind::Add: {
      int64_t S = 0;
      for (auto &Op : T->operands())
        S += term(Op);
      return S;
    }
    case TermKind::Mul:
      return T->scalar() * term(T->operand(0));
    case TermKind::Div:
      return floorDiv(term(T->operand(0)), T->scalar());
    case TermKind::Mod:
      return floorMod(term(T->operand(0)), T->scalar());
    default:
      fatalError("bruteforce: unexpected term " + T->str());
    }
  }

  bool formula(const smt::TermRef &F) {
    using smt::TermKind;
    switch (F->kind()) {
    case TermKind::BoolConst:
      return F->boolValue();
    case TermKind::Eq:
      return term(F->operand(0)) == term(F->operand(1));
    case TermKind::Le:
      return term(F->operand(0)) <= term(F->operand(1));
    case TermKind::Lt:
      return term(F->operand(0)) < term(F->operand(1));
    case TermKind::Not:
      return !formula(F->operand(0));
    case TermKind::And:
      for (auto &Op : F->operands())
        if (!formula(Op))
          return false;
      return true;
    case TermKind::Or:
      for (auto &Op : F->operands())
        if (formula(Op))
          return true;
      return false;
    case TermKind::Implies:
      return !formula(F->operand(0)) || formula(F->operand(1));
    case TermKind::Forall:
    case TermKind::Exists: {
      bool IsForall = F->kind() == TermKind::Forall;
      unsigned Id = F->var().Id;
      auto Saved = Env.find(Id) == Env.end()
                       ? std::nullopt
                       : std::optional<int64_t>(Env[Id]);
      bool Result = IsForall;
      for (int64_t V = Lo; V <= Hi && Result == IsForall; ++V) {
        Env[Id] = V;
        Result = formula(F->operand(0));
      }
      if (Saved)
        Env[Id] = *Saved;
      else
        Env.erase(Id);
      return Result;
    }
    default:
      fatalError("bruteforce: unexpected formula " + F->str());
    }
  }
};

} // namespace bruteforce
} // namespace exo

#endif // EXO_TESTS_BRUTEFORCE_H
