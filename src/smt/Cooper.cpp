//===- smt/Cooper.cpp ------------------------------------------*- C++ -*-===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "smt/Cooper.h"

#include "smt/Simplify.h"
#include "support/MathExtras.h"

#include <set>

using namespace exo;
using namespace exo::smt;

namespace {

/// Caps the period D (lcm of divisibility moduli) and the bound-set size to
/// keep pathological inputs from exploding; exceeding them burns the budget
/// so the caller reports Unknown.
constexpr int64_t MaxPeriod = 4096;
constexpr size_t MaxBoundSet = 512;

} // namespace

/// Splits EQ literals mentioning \p VarId into a pair of LE literals so
/// that every x-literal is LE / DVD / NDVD (the shapes Cooper handles).
static QFormRef splitEqualities(const QFormRef &F, unsigned VarId,
                                Budget &B) {
  switch (F->kind()) {
  case QForm::Kind::True:
  case QForm::Kind::False:
    return F;
  case QForm::Kind::Lit: {
    const QLit &L = F->lit();
    if (L.LitKind != QLit::Kind::EQ || !L.Form.mentions(VarId))
      return F;
    return qAnd({qLe(L.Form, B), qLe(L.Form.negated(), B)}, B);
  }
  case QForm::Kind::And:
  case QForm::Kind::Or: {
    std::vector<QFormRef> Out;
    Out.reserve(F->children().size());
    for (auto &C : F->children())
      Out.push_back(splitEqualities(C, VarId, B));
    return F->kind() == QForm::Kind::And ? qAnd(std::move(Out), B)
                                         : qOr(std::move(Out), B);
  }
  }
  return F;
}

/// Collects the |coefficient| lcm of \p VarId over all literals, and the
/// divisibility-moduli data needed later. Returns 0 on overflow of the cap.
static int64_t coefficientLcm(const QFormRef &F, unsigned VarId) {
  switch (F->kind()) {
  case QForm::Kind::Lit: {
    int64_t C = F->lit().Form.coeff(VarId);
    if (C == 0)
      return 1;
    C = C < 0 ? -C : C;
    return C;
  }
  case QForm::Kind::And:
  case QForm::Kind::Or: {
    int64_t L = 1;
    for (auto &C : F->children()) {
      L = lcm64(L, coefficientLcm(C, VarId));
      if (L > MaxPeriod)
        return 0;
    }
    return L;
  }
  default:
    return 1;
  }
}

/// Rescales every literal mentioning \p VarId so its coefficient is
/// exactly +1 or -1 for the *new* variable \p NewId (representing
/// Delta * old variable). LE literals multiply through by the positive
/// factor; DVD/NDVD multiply both the form and the modulus.
static QFormRef normalizeCoefficient(const QFormRef &F, unsigned VarId,
                                     unsigned NewId, int64_t Delta,
                                     Budget &B) {
  switch (F->kind()) {
  case QForm::Kind::True:
  case QForm::Kind::False:
    return F;
  case QForm::Kind::Lit: {
    const QLit &L = F->lit();
    int64_t A = L.Form.coeff(VarId);
    if (A == 0)
      return F;
    int64_t Abs = A < 0 ? -A : A;
    int64_t M = Delta / Abs;
    LinearForm G = L.Form.scaled(M);
    G.setCoeff(VarId, 0);
    G.setCoeff(NewId, A < 0 ? -1 : 1);
    switch (L.LitKind) {
    case QLit::Kind::LE:
      return qLe(std::move(G), B);
    case QLit::Kind::DVD:
      return qDvd(L.Divisor * M, std::move(G), B);
    case QLit::Kind::NDVD:
      return qNdvd(L.Divisor * M, std::move(G), B);
    case QLit::Kind::EQ:
      fatalError("normalizeCoefficient: EQ literal not split");
    }
    return F;
  }
  case QForm::Kind::And:
  case QForm::Kind::Or: {
    std::vector<QFormRef> Out;
    Out.reserve(F->children().size());
    for (auto &C : F->children())
      Out.push_back(normalizeCoefficient(C, VarId, NewId, Delta, B));
    return F->kind() == QForm::Kind::And ? qAnd(std::move(Out), B)
                                         : qOr(std::move(Out), B);
  }
  }
  return F;
}

/// Negates the coefficient of \p VarId in every literal (the variable flip
/// y := -y used to reuse the lower-bound elimination for the upper-bound
/// case).
static QFormRef flipVariable(const QFormRef &F, unsigned VarId, Budget &B) {
  switch (F->kind()) {
  case QForm::Kind::True:
  case QForm::Kind::False:
    return F;
  case QForm::Kind::Lit: {
    const QLit &L = F->lit();
    int64_t A = L.Form.coeff(VarId);
    if (A == 0)
      return F;
    LinearForm G = L.Form;
    G.setCoeff(VarId, -A);
    return qLit(L.LitKind, std::move(G), L.Divisor, B);
  }
  case QForm::Kind::And:
  case QForm::Kind::Or: {
    std::vector<QFormRef> Out;
    Out.reserve(F->children().size());
    for (auto &C : F->children())
      Out.push_back(flipVariable(C, VarId, B));
    return F->kind() == QForm::Kind::And ? qAnd(std::move(Out), B)
                                         : qOr(std::move(Out), B);
  }
  }
  return F;
}

namespace {

/// Scans a normalized formula for the data of Cooper's theorem: the lower-
/// and upper-bound terms and the divisibility period.
struct BoundInfo {
  std::set<LinearForm> Lower; ///< t such that  t <= y   (literal -y + t <= 0)
  std::set<LinearForm> Upper; ///< t such that  y <= t   (literal  y - t <= 0)
  int64_t Period = 1;
  bool Overflow = false;
};

} // namespace

static void collectBounds(const QFormRef &F, unsigned VarId, BoundInfo &Info) {
  switch (F->kind()) {
  case QForm::Kind::Lit: {
    const QLit &L = F->lit();
    int64_t A = L.Form.coeff(VarId);
    if (A == 0)
      return;
    assert((A == 1 || A == -1) && "collectBounds on unnormalized formula");
    switch (L.LitKind) {
    case QLit::Kind::LE: {
      LinearForm T = L.Form;
      T.setCoeff(VarId, 0);
      if (A == 1) {
        // y + t <= 0  =>  y <= -t, i.e. strict upper bound -t + 1.
        LinearForm U = T.negated();
        U.setConstant(U.constant() + 1);
        Info.Upper.insert(std::move(U));
      } else {
        // -y + t <= 0  =>  t <= y, i.e. strict lower bound t - 1 (Cooper's
        // B-set holds *strict* bounds: the theorem substitutes b + j for
        // j in 1..D).
        T.setConstant(T.constant() - 1);
        Info.Lower.insert(std::move(T));
      }
      if (Info.Lower.size() > MaxBoundSet || Info.Upper.size() > MaxBoundSet)
        Info.Overflow = true;
      return;
    }
    case QLit::Kind::DVD:
    case QLit::Kind::NDVD:
      Info.Period = lcm64(Info.Period, L.Divisor);
      if (Info.Period > MaxPeriod)
        Info.Overflow = true;
      return;
    case QLit::Kind::EQ:
      fatalError("collectBounds: EQ literal not split");
    }
    return;
  }
  case QForm::Kind::And:
  case QForm::Kind::Or:
    for (auto &C : F->children())
      collectBounds(C, VarId, Info);
    return;
  default:
    return;
  }
}

/// Builds the "minus infinity" projection of \p F: LE literals with a
/// positive \p VarId coefficient (upper bounds) become True as y -> -inf;
/// negative ones (lower bounds) become False. Divisibility literals stay.
static QFormRef minusInfinity(const QFormRef &F, unsigned VarId, Budget &B) {
  switch (F->kind()) {
  case QForm::Kind::True:
  case QForm::Kind::False:
    return F;
  case QForm::Kind::Lit: {
    const QLit &L = F->lit();
    int64_t A = L.Form.coeff(VarId);
    if (A == 0 || L.LitKind == QLit::Kind::DVD ||
        L.LitKind == QLit::Kind::NDVD)
      return F;
    assert(L.LitKind == QLit::Kind::LE && "unnormalized literal");
    return A > 0 ? qTrue() : qFalse();
  }
  case QForm::Kind::And:
  case QForm::Kind::Or: {
    std::vector<QFormRef> Out;
    Out.reserve(F->children().size());
    for (auto &C : F->children())
      Out.push_back(minusInfinity(C, VarId, B));
    return F->kind() == QForm::Kind::And ? qAnd(std::move(Out), B)
                                         : qOr(std::move(Out), B);
  }
  }
  return F;
}

QFormRef exo::smt::eliminateExists(unsigned VarId, const QFormRef &F,
                                   Budget &B) {
  if (!F->mentions(VarId) || F->isTrue() || F->isFalse())
    return F;
  // Miniscoping: exists distributes over Or, and conjuncts that do not
  // mention the variable leave its scope, so Cooper only ever copies the
  // part of the formula the variable occurs in.
  if (F->kind() == QForm::Kind::Or) {
    std::vector<QFormRef> Out;
    Out.reserve(F->children().size());
    for (auto &C : F->children())
      Out.push_back(eliminateExists(VarId, C, B));
    return qOr(std::move(Out), B);
  }
  if (F->kind() == QForm::Kind::And) {
    std::vector<QFormRef> Outside, Inside;
    for (auto &C : F->children())
      (C->mentions(VarId) ? Inside : Outside).push_back(C);
    if (!Outside.empty()) {
      Outside.push_back(eliminateExists(VarId, qAnd(std::move(Inside), B), B));
      return qAnd(std::move(Outside), B);
    }
  }

  QFormRef Phi = splitEqualities(F, VarId, B);

  // Normalize all coefficients of VarId to +-1 via y = Delta * x.
  int64_t Delta = coefficientLcm(Phi, VarId);
  if (Delta == 0 || B.exceeded()) {
    if (Delta == 0)
      B.markStructural(); // coefficient LCM overflow — not tractable LIA
    else
      B.markExhausted(); // literal budget already gone
    return qFalse();
  }
  unsigned Y = VarId;
  if (Delta != 1) {
    TermVar Fresh = freshVar("y", Sort::Int);
    Y = Fresh.Id;
    Phi = normalizeCoefficient(Phi, VarId, Y, Delta, B);
    Phi = qAnd({Phi, qDvd(Delta, LinearForm::variable(Y), B)}, B);
  }

  // Prefer the smaller bound set; flip the variable to reuse the
  // lower-bound form when the uppers are fewer.
  BoundInfo Info;
  collectBounds(Phi, Y, Info);
  if (Info.Overflow) {
    B.markStructural();
    return qFalse();
  }
  bool Flipped = Info.Upper.size() < Info.Lower.size();
  if (Flipped) {
    Phi = flipVariable(Phi, Y, B);
    BoundInfo FlippedInfo;
    collectBounds(Phi, Y, FlippedInfo);
    Info = std::move(FlippedInfo);
    if (Info.Overflow) {
      B.markStructural();
      return qFalse();
    }
  }

  // Cooper:  exists y. Phi  ==
  //   OR_{j=1..D} Phi_{-inf}[y:=j]  \/  OR_{b in B, j=1..D} Phi[y:=b+j].
  int64_t D = Info.Period;
  QFormRef MinusInf = minusInfinity(Phi, Y, B);
  std::vector<QFormRef> Cases;
  for (int64_t J = 1; J <= D && !B.exceeded(); ++J)
    Cases.push_back(qSubst(MinusInf, Y, LinearForm(J), B));
  for (const LinearForm &Bound : Info.Lower) {
    for (int64_t J = 1; J <= D && !B.exceeded(); ++J) {
      LinearForm Repl = Bound;
      Repl.setConstant(Repl.constant() + J);
      Cases.push_back(qSubst(Phi, Y, Repl, B));
    }
  }
  return qOr(std::move(Cases), B);
}

QFormRef exo::smt::eliminateBlock(std::vector<unsigned> Vars, QFormRef F,
                                  Budget &B) {
  bool CheapFirst = simplifyConfig().CheapVarOrder;
  // Adjacent existentials commute (exists x. exists y. F == exists y.
  // exists x. F), so with the cheap-var ordering stage enabled we pick the
  // variable with the smallest coefficient LCM, the one whose elimination
  // multiplies the formula the least, and we stop as soon as the formula
  // is ground (the remaining quantifiers are then vacuous). Without it the
  // block is eliminated innermost-first.
  while (!Vars.empty() && !B.exceeded()) {
    if (CheapFirst && (F->isTrue() || F->isFalse())) {
      B.noteEarlyExit();
      break;
    }
    size_t Pick = Vars.size() - 1;
    if (CheapFirst && Vars.size() >= 2) {
      uint64_t Best = UINT64_MAX;
      for (size_t I = Vars.size(); I-- > 0;) {
        int64_t Lcm = coefficientLcm(F, Vars[I]);
        // An LCM of 0 signals overflow past MaxPeriod: treat as the most
        // expensive choice so it is eliminated last.
        uint64_t Cost = Lcm == 0 ? UINT64_MAX : (uint64_t)Lcm;
        if (Cost < Best) {
          Best = Cost;
          Pick = I;
        }
      }
      if (Pick != Vars.size() - 1)
        B.noteReorder();
    }
    unsigned Var = Vars[Pick];
    Vars.erase(Vars.begin() + Pick);
    F = eliminateExists(Var, F, B);
  }
  return F;
}
