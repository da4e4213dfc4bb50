//===- analysis/LocSet.cpp -------------------------------------*- C++ -*-===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "analysis/LocSet.h"

#include "analysis/Checks.h"
#include "smt/Simplify.h"
#include "smt/Solver.h"

using namespace exo;
using namespace exo::analysis;
using namespace exo::smt;

LocSetRef LocSet::empty() {
  static const LocSetRef E = std::make_shared<LocSet>(Kind::Empty);
  return E;
}

LocSetRef LocSet::single(ir::Sym Base, std::vector<EffInt> Coords) {
  auto S = std::make_shared<LocSet>(Kind::Single);
  S->Base = Base;
  S->Coords = std::move(Coords);
  return S;
}

LocSetRef LocSet::unionOf(std::vector<LocSetRef> Parts) {
  std::vector<LocSetRef> Flat;
  for (auto &P : Parts) {
    if (P->isEmpty())
      continue;
    if (P->kind() == Kind::Union) {
      for (auto &Inner : P->parts())
        Flat.push_back(Inner);
    } else {
      Flat.push_back(P);
    }
  }
  if (Flat.empty())
    return empty();
  if (Flat.size() == 1)
    return Flat[0];
  auto S = std::make_shared<LocSet>(Kind::Union);
  S->Parts = std::move(Flat);
  return S;
}

LocSetRef LocSet::unionOf(LocSetRef A, LocSetRef B) {
  return unionOf(std::vector<LocSetRef>{std::move(A), std::move(B)});
}

LocSetRef LocSet::interOf(LocSetRef A, LocSetRef B) {
  if (A->isEmpty() || B->isEmpty())
    return empty();
  auto S = std::make_shared<LocSet>(Kind::Inter);
  S->Parts = {std::move(A), std::move(B)};
  return S;
}

LocSetRef LocSet::diffOf(LocSetRef A, LocSetRef B) {
  if (A->isEmpty())
    return empty();
  if (B->isEmpty())
    return A;
  auto S = std::make_shared<LocSet>(Kind::Diff);
  S->Parts = {std::move(A), std::move(B)};
  return S;
}

LocSetRef LocSet::bigUnion(TermVar X, LocSetRef L) {
  if (L->isEmpty())
    return L;
  auto S = std::make_shared<LocSet>(Kind::BigUnion);
  S->Bound = X;
  S->Parts = {std::move(L)};
  return S;
}

LocSetRef LocSet::filter(TriBool P, LocSetRef L) {
  if (L->isEmpty())
    return L;
  if (P.Must->kind() == TermKind::BoolConst && P.Must->boolValue())
    return L; // filter(true, L) == L
  if (P.May->kind() == TermKind::BoolConst && !P.May->boolValue())
    return empty(); // filter(false, L) == ∅
  auto S = std::make_shared<LocSet>(Kind::Filter);
  S->Cond = std::move(P);
  S->Parts = {std::move(L)};
  return S;
}

void LocSet::collectBases(std::map<ir::Sym, unsigned> &Out) const {
  switch (TheKind) {
  case Kind::Empty:
    return;
  case Kind::Single:
    Out.emplace(Base, static_cast<unsigned>(Coords.size()));
    return;
  case Kind::Diff:
    // Locations can only come from the left operand.
    Parts[0]->collectBases(Out);
    return;
  case Kind::Union:
  case Kind::Inter:
  case Kind::BigUnion:
  case Kind::Filter:
    for (auto &P : Parts)
      P->collectBases(Out);
    return;
  }
}

TriBool LocSet::member(ir::Sym Name, const std::vector<TermRef> &Pt) const {
  switch (TheKind) {
  case Kind::Empty:
    return TriBool::no();
  case Kind::Single: {
    if (Name != Base)
      return TriBool::no();
    assert(Pt.size() == Coords.size() && "rank mismatch in membership");
    TriBool All = TriBool::yes();
    for (size_t I = 0; I < Coords.size(); ++I)
      All = triAnd(All, triEq(EffInt::known(Pt[I]), Coords[I]));
    return All;
  }
  case Kind::Union: {
    TriBool Any = TriBool::no();
    for (auto &P : Parts)
      Any = triOr(Any, P->member(Name, Pt));
    return Any;
  }
  case Kind::Inter:
    return triAnd(Parts[0]->member(Name, Pt), Parts[1]->member(Name, Pt));
  case Kind::Diff:
    return triAnd(Parts[0]->member(Name, Pt),
                  triNot(Parts[1]->member(Name, Pt)));
  case Kind::BigUnion:
    return triExists(Bound, Parts[0]->member(Name, Pt));
  case Kind::Filter:
    return triAnd(Cond, Parts[0]->member(Name, Pt));
  }
  return TriBool::unknown();
}

std::string LocSet::str() const {
  switch (TheKind) {
  case Kind::Empty:
    return "{}";
  case Kind::Single: {
    std::string Out = "{" + Base.uniqueName();
    for (auto &C : Coords)
      Out += ", " + C.Val->str();
    return Out + "}";
  }
  case Kind::Union: {
    std::string Out = "(union";
    for (auto &P : Parts)
      Out += " " + P->str();
    return Out + ")";
  }
  case Kind::Inter:
    return "(inter " + Parts[0]->str() + " " + Parts[1]->str() + ")";
  case Kind::Diff:
    return "(diff " + Parts[0]->str() + " " + Parts[1]->str() + ")";
  case Kind::BigUnion:
    return "(bigU " + Bound.Name + "#" + std::to_string(Bound.Id) + " " +
           Parts[0]->str() + ")";
  case Kind::Filter:
    return "(filter " + Parts[0]->str() + ")";
  }
  return "?";
}

TriBool exo::analysis::emptyAt(const LocSetRef &S, ir::Sym Name,
                               unsigned Rank) {
  std::vector<TermVar> PtVars;
  std::vector<TermRef> Pt;
  for (unsigned I = 0; I < Rank; ++I) {
    PtVars.push_back(freshVar("pt" + std::to_string(I), Sort::Int));
    Pt.push_back(mkVar(PtVars.back()));
  }
  TriBool NotIn = triNot(S->member(Name, Pt));
  for (auto It = PtVars.rbegin(); It != PtVars.rend(); ++It)
    NotIn = triForall(*It, NotIn);
  return NotIn;
}

TriBool exo::analysis::disjoint(const LocSetRef &A, const LocSetRef &B) {
  // Only bases possibly present in both sets can witness an intersection.
  std::map<ir::Sym, unsigned> BasesA, BasesB;
  A->collectBases(BasesA);
  B->collectBases(BasesB);
  bool AnyShared = false;
  for (auto &[Name, Rank] : BasesA) {
    (void)Rank;
    if (BasesB.count(Name)) {
      AnyShared = true;
      break;
    }
  }
  if (!AnyShared)
    return TriBool::yes();
  // Syntactic pre-check: when interval arithmetic alone separates every
  // cross pair of accesses, skip building the membership formulas
  // entirely — the dominant case for tiled affine loop nests.
  if (simplifyConfig().EffectFastPath) {
    if (disjointFastPath(A, B)) {
      noteEffectFastPath(true);
      return TriBool::yes();
    }
    noteEffectFastPath(false);
  }
  TriBool All = TriBool::yes();
  for (auto &[Name, Rank] : BasesA) {
    auto It = BasesB.find(Name);
    if (It == BasesB.end())
      continue;
    assert(It->second == Rank && "same buffer with two ranks");
    All = triAnd(All, emptyAt(LocSet::interOf(A, B), Name, Rank));
  }
  return All;
}
