//===- smt/Prenex.cpp ------------------------------------------*- C++ -*-===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "smt/Prenex.h"

#include "smt/Cooper.h"

#include <unordered_map>

using namespace exo;
using namespace exo::smt;

namespace {

/// The conversion state threaded through the recursive walk.
class ScopedEliminator {
public:
  explicit ScopedEliminator(Budget &B) : B(B) {}

  QFormRef convert(const TermRef &T, bool Positive);

  /// Converts \p Body (the matrix of a quantifier chain over \p Vars,
  /// outermost first) and eliminates the chain and the div/mod quotients
  /// its atoms introduce.
  QFormRef eliminateChain(bool IsForall, std::vector<unsigned> Vars,
                          const TermRef &Body, bool Positive);

private:
  QFormRef convertAtom(const TermRef &Atom, bool Positive);
  LinearForm lowerIntTerm(const TermRef &T, std::vector<QFormRef> &Defs);
  unsigned renamed(unsigned Id) const;

  Budget &B;
  /// The quotients awaiting elimination, one list per enclosing chain
  /// (innermost last).
  std::vector<std::vector<unsigned>> Quotients;
  std::unordered_map<unsigned, unsigned> Renaming;
};

} // namespace

unsigned ScopedEliminator::renamed(unsigned Id) const {
  auto It = Renaming.find(Id);
  return It == Renaming.end() ? Id : It->second;
}

/// Finds the first integer-sorted Ite node inside \p T, or null. The cached
/// hasIntIte() flag prunes Ite-free subtrees without traversal.
static TermRef findIntIte(const TermRef &T) {
  if (!T->hasIntIte())
    return nullptr;
  if (T->kind() == TermKind::Ite && T->sort() == Sort::Int)
    return T;
  for (auto &Op : T->operands())
    if (TermRef Found = findIntIte(Op))
      return Found;
  return nullptr;
}

/// Replaces every occurrence (by structural equality) of \p Target in \p T.
static TermRef replaceTerm(const TermRef &T, const TermRef &Target,
                           const TermRef &Replacement) {
  if (T->equals(*Target))
    return Replacement;
  std::vector<TermRef> Ops;
  bool Changed = false;
  Ops.reserve(T->numOperands());
  for (auto &Op : T->operands()) {
    Ops.push_back(replaceTerm(Op, Target, Replacement));
    Changed |= Ops.back() != Op;
  }
  if (!Changed)
    return T;
  switch (T->kind()) {
  case TermKind::Add:
    return add(std::move(Ops));
  case TermKind::Mul:
    return mul(T->scalar(), Ops[0]);
  case TermKind::Div:
    return div(Ops[0], T->scalar());
  case TermKind::Mod:
    return mod(Ops[0], T->scalar());
  case TermKind::Eq:
    return eq(Ops[0], Ops[1]);
  case TermKind::Le:
    return le(Ops[0], Ops[1]);
  case TermKind::Lt:
    return lt(Ops[0], Ops[1]);
  case TermKind::Ite:
    return ite(Ops[0], Ops[1], Ops[2]);
  default:
    fatalError("replaceTerm: unexpected node under an atom");
  }
}

LinearForm ScopedEliminator::lowerIntTerm(const TermRef &T,
                                          std::vector<QFormRef> &Defs) {
  switch (T->kind()) {
  case TermKind::IntConst:
    return LinearForm(T->intValue());
  case TermKind::Var:
    return LinearForm::variable(renamed(T->var().Id));
  case TermKind::Add: {
    LinearForm Sum;
    for (auto &Op : T->operands())
      Sum += lowerIntTerm(Op, Defs);
    return Sum;
  }
  case TermKind::Mul:
    return lowerIntTerm(T->operand(0), Defs).scaled(T->scalar());
  case TermKind::Div:
  case TermKind::Mod: {
    // q := t div c, with defining constraint 0 <= t - c*q <= c - 1.
    // The quotient is functionally determined, so an existential for it
    // anywhere between the atom and the innermost binder of t's variables
    // is an equivalence under any polarity (the NNF context is monotone).
    LinearForm Inner = lowerIntTerm(T->operand(0), Defs);
    int64_t C = T->scalar();
    TermVar Q = freshVar("q", Sort::Int);
    Quotients.back().push_back(Q.Id);
    LinearForm QForm1 = LinearForm::variable(Q.Id, C) - Inner; // c*q - t <= 0
    LinearForm QForm2 = Inner - LinearForm::variable(Q.Id, C); // t - c*q
    QForm2.setConstant(QForm2.constant() - (C - 1));           // ... - (c-1) <= 0
    Defs.push_back(qLe(std::move(QForm1), B));
    Defs.push_back(qLe(std::move(QForm2), B));
    if (T->kind() == TermKind::Div)
      return LinearForm::variable(Q.Id);
    // t mod c == t - c*q.
    return Inner - LinearForm::variable(Q.Id, C);
  }
  default:
    fatalError("lowerIntTerm: unexpected term kind " + T->str());
  }
}

QFormRef ScopedEliminator::convertAtom(const TermRef &Atom, bool Positive) {
  // Split out integer-sorted if-then-else first.
  if (TermRef IteNode = findIntIte(Atom)) {
    TermRef WithThen = replaceTerm(Atom, IteNode, IteNode->operand(1));
    TermRef WithElse = replaceTerm(Atom, IteNode, IteNode->operand(2));
    TermRef Cond = IteNode->operand(0);
    // atom[ite(c,t,e)] == (c && atom[t]) || (!c && atom[e]); this identity
    // holds under both polarities, so recurse through convert().
    TermRef Expanded = mkOr(mkAnd(Cond, WithThen),
                            mkAnd(mkNot(Cond), WithElse));
    return convert(Expanded, Positive);
  }

  std::vector<QFormRef> Defs;
  LinearForm L;
  switch (Atom->kind()) {
  case TermKind::Le:
    L = lowerIntTerm(Atom->operand(0), Defs) -
        lowerIntTerm(Atom->operand(1), Defs);
    break;
  case TermKind::Lt: {
    L = lowerIntTerm(Atom->operand(0), Defs) -
        lowerIntTerm(Atom->operand(1), Defs);
    L.setConstant(L.constant() + 1);
    break;
  }
  case TermKind::Eq:
    L = lowerIntTerm(Atom->operand(0), Defs) -
        lowerIntTerm(Atom->operand(1), Defs);
    break;
  default:
    fatalError("convertAtom: not an atom: " + Atom->str());
  }

  QFormRef Lit;
  if (Atom->kind() == TermKind::Eq)
    Lit = Positive ? qEq(std::move(L), B) : qNe(std::move(L), B);
  else
    Lit = Positive ? qLe(std::move(L), B)
                   : qNot(qLe(std::move(L), B), B);
  Defs.push_back(Lit);
  return qAnd(std::move(Defs), B);
}

QFormRef ScopedEliminator::convert(const TermRef &T, bool Positive) {
  if (B.exceeded())
    return qFalse();
  switch (T->kind()) {
  case TermKind::BoolConst:
    return T->boolValue() == Positive ? qTrue() : qFalse();
  case TermKind::Var: {
    // A boolean variable b is mapped onto an integer variable with the
    // same Id; the literal is b >= 1 i.e. 1 - b <= 0. The 0/1 range
    // constraint is the closure's responsibility.
    assert(T->sort() == Sort::Bool && "int var in formula position");
    LinearForm L = LinearForm::variable(renamed(T->var().Id), -1);
    L.setConstant(1); // 1 - b <= 0
    QFormRef Lit = qLe(std::move(L), B);
    return Positive ? Lit : qNot(Lit, B);
  }
  case TermKind::Not:
    return convert(T->operand(0), !Positive);
  case TermKind::And:
  case TermKind::Or: {
    bool IsAnd = (T->kind() == TermKind::And) == Positive;
    std::vector<QFormRef> Parts;
    Parts.reserve(T->numOperands());
    for (auto &Op : T->operands())
      Parts.push_back(convert(Op, Positive));
    return IsAnd ? qAnd(std::move(Parts), B) : qOr(std::move(Parts), B);
  }
  case TermKind::Implies: {
    QFormRef A = convert(T->operand(0), !Positive);
    QFormRef C = convert(T->operand(1), Positive);
    // positive: !a || c ; negative: (a && !c) which is !(!a || c) -- the
    // polarity flip has already been applied to the children, so:
    return Positive ? qOr({A, C}, B) : qAnd({A, C}, B);
  }
  case TermKind::Ite: {
    assert(T->sort() == Sort::Bool && "int ite in formula position");
    TermRef Expanded =
        mkOr(mkAnd(T->operand(0), T->operand(1)),
             mkAnd(mkNot(T->operand(0)), T->operand(2)));
    return convert(Expanded, Positive);
  }
  case TermKind::Forall:
  case TermKind::Exists: {
    // Collect the maximal chain of same-kind quantifiers, seen through
    // negations, renaming each bound variable freshly.
    bool IsForall = (T->kind() == TermKind::Forall) == Positive;
    std::vector<unsigned> Vars;
    auto Saved = Renaming;
    TermRef Body = T;
    for (;;) {
      if (Body->kind() == TermKind::Not) {
        Body = Body->operand(0);
        Positive = !Positive;
        continue;
      }
      if ((Body->kind() != TermKind::Forall &&
           Body->kind() != TermKind::Exists) ||
          ((Body->kind() == TermKind::Forall) == Positive) != IsForall)
        break;
      TermVar Fresh = freshVar(Body->var().Name, Sort::Int);
      Renaming[Body->var().Id] = Fresh.Id;
      Vars.push_back(Fresh.Id);
      Body = Body->operand(0);
    }
    QFormRef Out = eliminateChain(IsForall, std::move(Vars), Body, Positive);
    Renaming = std::move(Saved);
    return Out;
  }
  case TermKind::Eq:
  case TermKind::Le:
  case TermKind::Lt:
    return convertAtom(T, Positive);
  default:
    fatalError("eliminateQuantifiers: unexpected term in formula position: " +
               T->str());
  }
}

QFormRef ScopedEliminator::eliminateChain(bool IsForall,
                                          std::vector<unsigned> Vars,
                                          const TermRef &Body, bool Positive) {
  Quotients.emplace_back();
  QFormRef F = convert(Body, Positive);
  std::vector<unsigned> Qs = std::move(Quotients.back());
  Quotients.pop_back();
  if (B.exceeded())
    return qFalse();
  if (!IsForall) {
    Vars.insert(Vars.end(), Qs.begin(), Qs.end());
    return eliminateBlock(std::move(Vars), F, B);
  }
  // forall xs. exists qs. F == not exists xs. not (exists qs. F).
  F = eliminateBlock(std::move(Qs), F, B);
  return qNot(eliminateBlock(Vars, qNot(F, B), B), B);
}

QFormRef exo::smt::eliminateQuantifiers(const TermRef &F, Budget &B) {
  // The root scope catches quotients of atoms outside every quantifier.
  return ScopedEliminator(B).eliminateChain(/*IsForall=*/false, {}, F,
                                            /*Positive=*/true);
}
