//===- scheduling/Pattern.cpp ----------------------------------*- C++ -*-===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "scheduling/Pattern.h"

#include "support/StringExtras.h"

using namespace exo;
using namespace exo::scheduling;
using namespace exo::ir;

namespace {

/// A parsed statement pattern.
struct StmtPattern {
  enum class Kind { For, If, Alloc, Assign, Reduce, ConfigWrite, Call, Pass };
  Kind PatKind;
  std::string Name;  ///< "_" is a wildcard
  std::string Field; ///< config field for ConfigWrite
  int Nth = 0;       ///< which match to select
};

bool isWild(const std::string &S) { return S == "_"; }

/// Strips all whitespace for permissive matching.
std::string squeeze(const std::string &S) {
  std::string Out;
  for (char C : S)
    if (!std::isspace(static_cast<unsigned char>(C)))
      Out += C;
  return Out;
}

Expected<StmtPattern> parsePattern(const std::string &Raw) {
  std::string S = trimString(Raw);
  StmtPattern P{StmtPattern::Kind::Pass, "_", "", 0};

  // Optional "#k" suffix.
  size_t Hash = S.rfind('#');
  if (Hash != std::string::npos) {
    P.Nth = std::atoi(S.c_str() + Hash + 1);
    S = trimString(S.substr(0, Hash));
  }

  std::string Sq = squeeze(S);
  auto Fail = [&]() {
    return makeError(Error::Kind::Pattern, "unrecognized pattern '" + Raw +
                                               "'");
  };

  if (Sq == "pass") {
    P.PatKind = StmtPattern::Kind::Pass;
    return P;
  }
  if (startsWith(Sq, "for")) {
    size_t In = Sq.find("in");
    if (In == std::string::npos)
      return Fail();
    P.PatKind = StmtPattern::Kind::For;
    P.Name = Sq.substr(3, In - 3);
    return P;
  }
  if (startsWith(Sq, "if")) {
    P.PatKind = StmtPattern::Kind::If;
    return P;
  }
  // "name:_" — allocation.
  size_t Colon = Sq.find(':');
  if (Colon != std::string::npos && Sq.find('=') == std::string::npos) {
    P.PatKind = StmtPattern::Kind::Alloc;
    P.Name = Sq.substr(0, Colon);
    return P;
  }
  // "Cfg.field=_"
  size_t Dot = Sq.find('.');
  size_t Eq = Sq.find("=");
  if (Dot != std::string::npos && Eq != std::string::npos && Dot < Eq) {
    P.PatKind = StmtPattern::Kind::ConfigWrite;
    P.Name = Sq.substr(0, Dot);
    P.Field = Sq.substr(Dot + 1, Eq - Dot - 1);
    return P;
  }
  // "name(_)" — call.
  size_t Paren = Sq.find('(');
  if (Paren != std::string::npos && Eq == std::string::npos) {
    P.PatKind = StmtPattern::Kind::Call;
    P.Name = Sq.substr(0, Paren);
    return P;
  }
  // "x[_]+=_" / "x[_]=_" / "x=_" / "x+=_".
  size_t PlusEq = Sq.find("+=");
  if (PlusEq != std::string::npos) {
    P.PatKind = StmtPattern::Kind::Reduce;
    std::string Lhs = Sq.substr(0, PlusEq);
    size_t Br = Lhs.find('[');
    P.Name = Br == std::string::npos ? Lhs : Lhs.substr(0, Br);
    return P;
  }
  if (Eq != std::string::npos) {
    P.PatKind = StmtPattern::Kind::Assign;
    std::string Lhs = Sq.substr(0, Eq);
    size_t Br = Lhs.find('[');
    P.Name = Br == std::string::npos ? Lhs : Lhs.substr(0, Br);
    return P;
  }
  return Fail();
}

bool stmtMatches(const StmtPattern &P, const StmtRef &S) {
  switch (P.PatKind) {
  case StmtPattern::Kind::For:
    return S->kind() == StmtKind::For &&
           (isWild(P.Name) || S->name().name() == P.Name);
  case StmtPattern::Kind::If:
    return S->kind() == StmtKind::If;
  case StmtPattern::Kind::Alloc:
    return S->kind() == StmtKind::Alloc &&
           (isWild(P.Name) || S->name().name() == P.Name);
  case StmtPattern::Kind::Assign:
    // A window binding is also written "x = ...".
    if (S->kind() == StmtKind::WindowStmt)
      return isWild(P.Name) || S->name().name() == P.Name;
    return S->kind() == StmtKind::Assign &&
           (isWild(P.Name) || S->name().name() == P.Name);
  case StmtPattern::Kind::Reduce:
    return S->kind() == StmtKind::Reduce &&
           (isWild(P.Name) || S->name().name() == P.Name);
  case StmtPattern::Kind::ConfigWrite:
    return S->kind() == StmtKind::WriteConfig &&
           (isWild(P.Name) || S->name().name() == P.Name) &&
           (isWild(P.Field) || S->field().name() == P.Field);
  case StmtPattern::Kind::Call:
    return S->kind() == StmtKind::Call &&
           (isWild(P.Name) || S->proc()->name() == P.Name);
  case StmtPattern::Kind::Pass:
    return S->kind() == StmtKind::Pass;
  }
  return false;
}

/// Pre-order search; returns true when the Nth match was found.
bool searchBlock(const Block &B, const StmtPattern &P, int &Remaining,
                 std::vector<PathStep> &Path, StmtCursor &Out) {
  for (unsigned I = 0; I < B.size(); ++I) {
    const StmtRef &S = B[I];
    if (stmtMatches(P, S)) {
      if (Remaining == 0) {
        Out.Path = Path;
        Out.Begin = I;
        return true;
      }
      --Remaining;
    }
    if (!S->body().empty()) {
      Path.push_back({I, PathStep::Branch::Body});
      if (searchBlock(S->body(), P, Remaining, Path, Out))
        return true;
      Path.pop_back();
    }
    if (!S->orelse().empty()) {
      Path.push_back({I, PathStep::Branch::Orelse});
      if (searchBlock(S->orelse(), P, Remaining, Path, Out))
        return true;
      Path.pop_back();
    }
  }
  return false;
}

} // namespace

Expected<StmtCursor> exo::scheduling::findStmts(const Proc &P,
                                                const std::string &Pattern,
                                                unsigned Count) {
  auto Parsed = parsePattern(Pattern);
  if (!Parsed)
    return Parsed.error();
  StmtCursor Out;
  std::vector<PathStep> Path;
  int Remaining = Parsed->Nth;
  if (!searchBlock(P.body(), *Parsed, Remaining, Path, Out))
    return makeError(Error::Kind::Pattern, "no statement matching '" +
                                               Pattern + "' in proc " +
                                               P.name());
  Out.End = Out.Begin + Count;
  const Block &B = analysis::blockAt(P, {Out.Path, 0, 0});
  if (Out.End > B.size())
    return makeError(Error::Kind::Pattern,
                     "selection of " + std::to_string(Count) +
                         " statements runs past the end of the block");
  return Out;
}

std::map<std::string, frontend::ScopedName>
exo::scheduling::scopeAt(const Proc &P, const StmtCursor &C) {
  std::map<std::string, frontend::ScopedName> Scope;
  for (const FnArg &A : P.args())
    Scope[A.Name.name()] = {A.Name, A.Ty};
  const Block *B = &P.body();
  for (size_t Depth = 0; Depth <= C.Path.size(); ++Depth) {
    unsigned Stop =
        Depth < C.Path.size() ? C.Path[Depth].Index : C.Begin;
    for (unsigned I = 0; I < Stop && I < B->size(); ++I) {
      const StmtRef &S = (*B)[I];
      if (S->kind() == StmtKind::Alloc)
        Scope[S->name().name()] = {S->name(), S->allocType()};
      else if (S->kind() == StmtKind::WindowStmt)
        Scope[S->name().name()] = {S->name(), S->rhs()->type()};
    }
    if (Depth == C.Path.size())
      break;
    const StmtRef &S = (*B)[C.Path[Depth].Index];
    if (S->kind() == StmtKind::For)
      Scope[S->name().name()] = {S->name(), ir::Type(ir::ScalarKind::Index)};
    B = C.Path[Depth].Into == PathStep::Branch::Body ? &S->body()
                                                     : &S->orelse();
  }
  return Scope;
}
