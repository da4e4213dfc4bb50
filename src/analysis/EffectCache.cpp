//===- analysis/EffectCache.cpp --------------------------------*- C++ -*-===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "analysis/EffectCache.h"

#include "ir/FreeVars.h"

#include <atomic>
#include <cassert>
#include <cstring>
#include <mutex>
#include <set>
#include <optional>
#include <unordered_map>
#include <unordered_set>

using namespace exo;
using namespace exo::analysis;
using namespace exo::ir;

namespace {

/// One memo line: the effect-environment slice the summary was extracted
/// under (aligned with the record's FreeSyms; nullopt = symbol absent from
/// the environment, i.e. "the variable itself") and the summary.
struct CacheLine {
  std::vector<std::optional<std::pair<smt::TermRef, smt::TermRef>>> Env;
  EffectSets Eff;
};

/// Everything the cache knows about one statement node. Pin keeps the node
/// alive so its address cannot be reused while it keys the table.
struct StmtRecord {
  StmtRef Pin;
  int Invariant = -1; // -1 not yet computed, else 0/1
  bool HaveFreeSyms = false;
  std::vector<Sym> FreeSyms; // sorted: freeVars(S) ∪ configFields(S)
  bool HaveLoopVar = false;
  smt::TermVar LoopVar{0, "", smt::Sort::Int};
  std::vector<CacheLine> Lines;
};

/// One record of the canonical content index: the summary as extracted,
/// plus the symbol and solver-variable first-occurrence orders of its
/// serialization — the positional "axes" a later canonically-equal
/// statement substitutes its own symbols/variables along.
struct CanonRecord {
  EffectSets Eff;
  std::vector<Sym> SymOrder;
  std::vector<smt::TermVar> VarOrder;
};

/// The cache is sharded by statement-node address: concurrent compile
/// sessions analyze disjoint procedures, so their statement nodes land in
/// different shards and extraction proceeds without lock contention. The
/// loop-variable id set is the one cross-shard structure (an insert in any
/// shard must recognize stable loop variables of *enclosing* loops, which
/// may live in other shards); it gets its own lock, always acquired after
/// a shard lock — a fixed order, so no deadlock. The canonical index has
/// its own mutex and is only touched with NO shard lock held (its
/// serialization calls stableLoopVar, which takes shard locks).
struct CacheShard {
  std::mutex M;
  std::unordered_map<const Stmt *, StmtRecord> Table;
  EffectCacheStats Stats;
};

struct EffectCache {
  static constexpr size_t NumShards = 8; // power of two
  CacheShard Shards[NumShards];

  // Ids of the loop variables stableLoopVar pinned; they are stable (not
  // per-extraction), so the leak check must not reject them. A shard
  // flush drops the ids its records pinned, so the set stays within the
  // record cap; an in-flight insert still carrying a dropped id is then
  // Uncacheable, never unsound.
  std::mutex LoopVarM;
  std::unordered_set<unsigned> LoopVarIds;

  // Canonical content index (cross-compile sharing).
  std::mutex CanonM;
  std::unordered_map<std::string, CanonRecord> Canon;
  static constexpr size_t MaxCanonEntries = 4096;
  std::atomic<uint64_t> CrossCompileHits{0};
  std::atomic<uint64_t> CanonIndexed{0};
  std::atomic<uint64_t> CanonUnshareable{0};

  // 1024 records in all: a record pins its statement, so the cap bounds
  // what finished compiles keep alive in a long-running process. It is the
  // smallest cap measured that left every benchmark workload's throughput
  // unchanged (DESIGN.md, "Performance").
  static constexpr size_t MaxEntriesPerShard = (1u << 10) / NumShards;
  static constexpr size_t MaxLinesPerStmt = 8;

  CacheShard &shardFor(const Stmt *S) {
    size_t H = std::hash<const void *>()(S);
    return Shards[(H >> 4) & (NumShards - 1)];
  }

  static EffectCache &get() {
    static EffectCache C;
    return C;
  }
};

/// State-invariance walk; only If/For have statement children, and the
/// three state-touching kinds poison the whole subtree.
bool computeStateInvariant(const StmtRef &S) {
  switch (S->kind()) {
  case StmtKind::WriteConfig:
  case StmtKind::WindowStmt:
  case StmtKind::Call:
    return false;
  case StmtKind::If:
    for (auto &C : S->body())
      if (!computeStateInvariant(C))
        return false;
    for (auto &C : S->orelse())
      if (!computeStateInvariant(C))
        return false;
    return true;
  case StmtKind::For:
    for (auto &C : S->body())
      if (!computeStateInvariant(C))
        return false;
    return true;
  default:
    return true;
  }
}

/// Empties a shard and unpins the loop variables its records pinned;
/// caller holds the shard mutex (shard -> loop-var lock order).
void flushShardLocked(CacheShard &C) {
  EffectCache &E = EffectCache::get();
  {
    std::lock_guard<std::mutex> LvLock(E.LoopVarM);
    for (const auto &Entry : C.Table)
      if (Entry.second.HaveLoopVar)
        E.LoopVarIds.erase(Entry.second.LoopVar.Id);
  }
  C.Table.clear();
}

/// Record accessors; caller holds the shard mutex. Every record pins its
/// statement, so every path that creates one (the invariance memo, loop
/// variable pinning, inserts) is bounded here: a full shard is flushed
/// before a new record goes in. A flush invalidates references into the
/// table, so no caller may keep a StmtRecord& across a recordFor call for
/// a different statement.
StmtRecord &recordFor(CacheShard &C, const StmtRef &S) {
  auto It = C.Table.find(S.get());
  if (It != C.Table.end())
    return It->second;
  if (C.Table.size() >= EffectCache::MaxEntriesPerShard) {
    flushShardLocked(C);
    ++C.Stats.Evictions;
  }
  StmtRecord &R = C.Table[S.get()];
  R.Pin = S;
  return R;
}

bool invariantLocked(CacheShard &C, const StmtRef &S) {
  StmtRecord &R = recordFor(C, S);
  if (R.Invariant < 0)
    R.Invariant = computeStateInvariant(S) ? 1 : 0;
  return R.Invariant == 1;
}

const std::vector<Sym> &freeSymsLocked(CacheShard &C, const StmtRef &S) {
  StmtRecord &R = recordFor(C, S);
  if (!R.HaveFreeSyms) {
    std::set<Sym> Syms = freeVars(S);
    std::set<Sym> Cfg = configFields(S);
    Syms.insert(Cfg.begin(), Cfg.end());
    R.FreeSyms.assign(Syms.begin(), Syms.end());
    R.HaveFreeSyms = true;
  }
  return R.FreeSyms;
}

using Fingerprint =
    std::vector<std::optional<std::pair<smt::TermRef, smt::TermRef>>>;

Fingerprint fingerprintOf(const std::vector<Sym> &FreeSyms,
                          const FlowState &State) {
  Fingerprint FP;
  FP.reserve(FreeSyms.size());
  for (auto &Sy : FreeSyms) {
    auto It = State.Env.find(Sy);
    if (It == State.Env.end())
      FP.emplace_back(std::nullopt);
    else
      FP.emplace_back(std::make_pair(It->second.Val, It->second.Def));
  }
  return FP;
}

bool fingerprintsEqual(const Fingerprint &A, const Fingerprint &B) {
  if (A.size() != B.size())
    return false;
  for (size_t I = 0; I < A.size(); ++I) {
    if (A[I].has_value() != B[I].has_value())
      return false;
    if (A[I] &&
        (!A[I]->first->equals(*B[I]->first) ||
         !A[I]->second->equals(*B[I]->second)))
      return false;
  }
  return true;
}

/// Collects every solver-variable id occurring in a summary, skipping ids
/// bound by enclosing BigUnions (those are the summary's own binders).
void collectTermIds(const smt::TermRef &T,
                    const std::unordered_set<unsigned> &Bound,
                    std::unordered_set<unsigned> &Out) {
  for (unsigned Id : T->freeVarIds())
    if (!Bound.count(Id))
      Out.insert(Id);
}

void collectLocIds(const LocSetRef &L, std::unordered_set<unsigned> &Bound,
                   std::unordered_set<unsigned> &Out) {
  collectTermIds(L->cond().Must, Bound, Out);
  collectTermIds(L->cond().May, Bound, Out);
  for (auto &C : L->coords()) {
    collectTermIds(C.Val, Bound, Out);
    collectTermIds(C.Def, Bound, Out);
  }
  if (L->kind() == LocSet::Kind::BigUnion) {
    bool Inserted = Bound.insert(L->boundVar().Id).second;
    for (auto &P : L->parts())
      collectLocIds(P, Bound, Out);
    if (Inserted)
      Bound.erase(L->boundVar().Id);
    return;
  }
  for (auto &P : L->parts())
    collectLocIds(P, Bound, Out);
}

void collectSummaryIds(const EffectSets &Eff,
                       std::unordered_set<unsigned> &Out) {
  std::unordered_set<unsigned> Bound;
  for (const LocSetRef *Set :
       {&Eff.RdG, &Eff.WrG, &Eff.RdH, &Eff.WrH, &Eff.RpH, &Eff.Al})
    collectLocIds(*Set, Bound, Out);
}

/// Every base symbol mentioned anywhere in a set (including subtrahends of
/// Diff — LocSet::collectBases only reports *possible* members, which is
/// too narrow for substitution completeness).
void collectAllBases(const LocSetRef &L, std::set<Sym> &Out) {
  if (L->base().valid())
    Out.insert(L->base());
  for (auto &P : L->parts())
    collectAllBases(P, Out);
}

//===----------------------------------------------------------------------===//
// Canonical content index: serialization
//===----------------------------------------------------------------------===//

/// Only loop/branch subtrees go through the canonical index: they are
/// where re-extraction is expensive, and gating keeps serialization off
/// the leaf-statement fast path.
bool canonEligible(const StmtRef &S) {
  return S->kind() == StmtKind::For || S->kind() == StmtKind::If;
}

/// Serializes a (statement, environment-slice) pair with symbols and
/// solver variables alpha-renamed to first-occurrence indices. The
/// serialization *links* every route by which a stable solver variable can
/// enter a summary to its introduction site — pinned loop variables at
/// their For node, stride values at their StrideExpr, per-symbol variables
/// at the env line of a symbol with no environment entry — so byte-equal
/// keys force the positional variable maps of two compiles to agree
/// everywhere a variable can be observed. That is what makes positional
/// rehydration a true alpha-renaming.
struct CanonSerializer {
  // Past this size the serialization costs more than a re-extraction.
  static constexpr size_t MaxBytes = 1u << 20;

  AnalysisCtx &Ctx;
  std::string Out;
  bool Fail = false;

  std::unordered_map<unsigned, unsigned> SymCanon; // Sym id -> index
  std::vector<Sym> SymOrder;
  std::unordered_map<unsigned, unsigned> VarCanon; // var id -> index
  std::vector<smt::TermVar> VarOrder;
  std::unordered_map<unsigned, std::vector<unsigned>> Levels; // bound vars
  unsigned Depth = 0;

  explicit CanonSerializer(AnalysisCtx &Ctx) : Ctx(Ctx) {}

  void put(const char *S) {
    Out += S;
    if (Out.size() > MaxBytes)
      Fail = true;
  }
  void put(char C) { Out += C; }
  void putNum(int64_t V) { Out += std::to_string(V); }

  void putSym(Sym S) {
    auto [It, Inserted] = SymCanon.emplace(S.id(), (unsigned)SymOrder.size());
    if (Inserted)
      SymOrder.push_back(S);
    put('s');
    putNum(It->second);
  }

  /// A free solver variable: canonical first-occurrence index.
  void putFreeVar(const smt::TermVar &V) {
    auto [It, Inserted] = VarCanon.emplace(V.Id, (unsigned)VarOrder.size());
    if (Inserted)
      VarOrder.push_back(V);
    put('v');
    putNum(It->second);
  }

  void term(const smt::TermRef &T) {
    if (Fail)
      return;
    using smt::TermKind;
    switch (T->kind()) {
    case TermKind::IntConst:
      put('i');
      putNum(T->intValue());
      break;
    case TermKind::BoolConst:
      put(T->boolValue() ? 't' : 'f');
      break;
    case TermKind::Var: {
      auto It = Levels.find(T->var().Id);
      if (It != Levels.end() && !It->second.empty()) {
        put('b');
        putNum(It->second.back());
      } else {
        putFreeVar(T->var());
      }
      break;
    }
    case TermKind::Mul:
    case TermKind::Div:
    case TermKind::Mod:
      put(T->kind() == TermKind::Mul   ? "(*"
          : T->kind() == TermKind::Div ? "(/"
                                       : "(%");
      putNum(T->scalar());
      put(' ');
      term(T->operand(0));
      put(')');
      break;
    case TermKind::Forall:
    case TermKind::Exists: {
      unsigned Id = T->var().Id;
      Levels[Id].push_back(Depth);
      ++Depth;
      put(T->kind() == TermKind::Forall ? "(A " : "(E ");
      term(T->operand(0));
      put(')');
      --Depth;
      auto It = Levels.find(Id);
      It->second.pop_back();
      if (It->second.empty())
        Levels.erase(It);
      break;
    }
    default: {
      // Natural (unsorted) child order: the canonical index targets exact
      // re-derivations, which rebuild terms identically.
      put('(');
      putNum((int64_t)T->kind());
      for (auto &Op : T->operands()) {
        put(' ');
        term(Op);
      }
      put(')');
      break;
    }
    }
  }

  void type(const Type &T) {
    put('T');
    putNum((int64_t)T.elem());
    putNum((int64_t)T.rank());
    put(T.isWindow() ? 'w' : '.');
  }

  void expr(const ExprRef &E) {
    if (Fail)
      return;
    type(E->type());
    switch (E->kind()) {
    case ExprKind::Read:
      put('r');
      putSym(E->name());
      for (auto &A : E->args())
        expr(A);
      break;
    case ExprKind::Const:
      if (E->type().isData()) {
        // Exact bit pattern: textual rendering would round.
        uint64_t Bits;
        double V = E->dataValue();
        std::memcpy(&Bits, &V, sizeof(Bits));
        put('d');
        putNum((int64_t)Bits);
      } else {
        put('c');
        putNum(E->type().elem() == ScalarKind::Bool ? (E->boolValue() ? 1 : 0)
                                                    : E->intValue());
      }
      break;
    case ExprKind::USub:
      put('u');
      expr(E->args()[0]);
      break;
    case ExprKind::BinOp:
      put('o');
      putNum((int64_t)E->binOp());
      expr(E->args()[0]);
      expr(E->args()[1]);
      break;
    case ExprKind::BuiltIn:
      put('g');
      put(E->builtin().c_str());
      put('(');
      for (auto &A : E->args())
        expr(A);
      put(')');
      break;
    case ExprKind::StrideExpr: {
      put('t');
      putSym(E->name());
      putNum((int64_t)E->strideDim());
      // Tie the uninterpreted stride value's identity into the shared
      // variable numbering: this is how two compiles' stride variables
      // align positionally.
      term(Ctx.strideValue(E->name(), E->strideDim()));
      break;
    }
    case ExprKind::ReadConfig:
      put('q');
      putSym(E->name());
      putSym(E->field());
      break;
    case ExprKind::WindowExpr:
      // Windows only occur in WindowStmt/Call subtrees, which
      // state-invariance already excludes.
      Fail = true;
      break;
    }
  }

  void block(const Block &B) {
    put('{');
    for (auto &S : B)
      stmt(S);
    put('}');
  }

  void stmt(const StmtRef &S) {
    if (Fail)
      return;
    switch (S->kind()) {
    case StmtKind::Assign:
    case StmtKind::Reduce:
      put(S->kind() == StmtKind::Assign ? "A(" : "R(");
      putSym(S->name());
      for (auto &I : S->indices())
        expr(I);
      put(';');
      expr(S->rhs());
      put(')');
      break;
    case StmtKind::Pass:
      put('P');
      break;
    case StmtKind::If:
      put("I(");
      expr(S->rhs());
      block(S->body());
      block(S->orelse());
      put(')');
      break;
    case StmtKind::For:
      put("F(");
      putSym(S->name());
      // Tie the pinned iteration variable to its node position.
      putFreeVar(stableLoopVar(S));
      expr(S->lo());
      expr(S->hi());
      block(S->body());
      put(')');
      break;
    case StmtKind::Alloc:
      put("L(");
      putSym(S->name());
      type(S->allocType());
      for (auto &D : S->allocType().dims())
        expr(D);
      put('@');
      put(S->memName().c_str());
      put(')');
      break;
    case StmtKind::WriteConfig:
    case StmtKind::Call:
    case StmtKind::WindowStmt:
      Fail = true; // not state-invariant; callers pre-filter
      break;
    }
    if (Out.size() > MaxBytes)
      Fail = true;
  }

  /// The environment slice: one line per free symbol, in subtree
  /// first-occurrence order. An absent entry means lifting uses the
  /// per-symbol variable — serialize it so its identity participates in
  /// the shared numbering.
  void envSlice(const std::set<Sym> &FreeSyms, const FlowState &State) {
    // FreeSyms ⊆ SymOrder (every free symbol occurs in the subtree), so
    // iterating SymOrder by index is stable across compiles.
    for (unsigned I = 0; I < SymOrder.size() && !Fail; ++I) {
      if (!FreeSyms.count(SymOrder[I]))
        continue;
      put('E');
      putNum(I);
      put(':');
      auto It = State.Env.find(SymOrder[I]);
      if (It == State.Env.end()) {
        put('-');
        term(smt::mkVar(Ctx.varFor(SymOrder[I])));
      } else {
        term(It->second.Val);
        put(',');
        term(It->second.Def);
      }
    }
  }
};

/// Serializes (S, State) canonically. Returns false on overflow or an
/// ineligible construct.
bool canonKeyOf(AnalysisCtx &Ctx, const StmtRef &S, const FlowState &State,
                const std::set<Sym> &FreeSyms, CanonSerializer &Ser) {
  Ser.stmt(S);
  Ser.put('|');
  Ser.envSlice(FreeSyms, State);
  return !Ser.Fail;
}

//===----------------------------------------------------------------------===//
// Canonical content index: rehydration
//===----------------------------------------------------------------------===//

/// Simultaneous, capture-avoiding substitution of free solver variables.
/// Binders whose id collides with a substitution *target* are renamed
/// fresh first (cannot happen for genuinely cross-compile hits — the two
/// sides mint disjoint ids — but same-process re-serializations can
/// overlap).
smt::TermRef substTerm(const smt::TermRef &T,
                       std::unordered_map<unsigned, smt::TermRef> &Map,
                       const std::unordered_set<unsigned> &RangeIds) {
  bool Touches = false;
  for (unsigned Id : T->freeVarIds())
    if (Map.count(Id)) {
      Touches = true;
      break;
    }
  if (!Touches)
    return T;
  using smt::TermKind;
  switch (T->kind()) {
  case TermKind::IntConst:
  case TermKind::BoolConst:
    return T;
  case TermKind::Var: {
    auto It = Map.find(T->var().Id);
    return It != Map.end() ? It->second : T;
  }
  case TermKind::Add: {
    std::vector<smt::TermRef> Ops;
    Ops.reserve(T->numOperands());
    for (auto &Op : T->operands())
      Ops.push_back(substTerm(Op, Map, RangeIds));
    return smt::add(std::move(Ops));
  }
  case TermKind::Mul:
    return smt::mul(T->scalar(), substTerm(T->operand(0), Map, RangeIds));
  case TermKind::Div:
    return smt::div(substTerm(T->operand(0), Map, RangeIds), T->scalar());
  case TermKind::Mod:
    return smt::mod(substTerm(T->operand(0), Map, RangeIds), T->scalar());
  case TermKind::Eq:
    return smt::eq(substTerm(T->operand(0), Map, RangeIds),
                   substTerm(T->operand(1), Map, RangeIds));
  case TermKind::Le:
    return smt::le(substTerm(T->operand(0), Map, RangeIds),
                   substTerm(T->operand(1), Map, RangeIds));
  case TermKind::Lt:
    return smt::lt(substTerm(T->operand(0), Map, RangeIds),
                   substTerm(T->operand(1), Map, RangeIds));
  case TermKind::Not:
    return smt::mkNot(substTerm(T->operand(0), Map, RangeIds));
  case TermKind::And: {
    std::vector<smt::TermRef> Ops;
    Ops.reserve(T->numOperands());
    for (auto &Op : T->operands())
      Ops.push_back(substTerm(Op, Map, RangeIds));
    return smt::mkAnd(std::move(Ops));
  }
  case TermKind::Or: {
    std::vector<smt::TermRef> Ops;
    Ops.reserve(T->numOperands());
    for (auto &Op : T->operands())
      Ops.push_back(substTerm(Op, Map, RangeIds));
    return smt::mkOr(std::move(Ops));
  }
  case TermKind::Implies:
    return smt::implies(substTerm(T->operand(0), Map, RangeIds),
                        substTerm(T->operand(1), Map, RangeIds));
  case TermKind::Ite:
    return smt::ite(substTerm(T->operand(0), Map, RangeIds),
                    substTerm(T->operand(1), Map, RangeIds),
                    substTerm(T->operand(2), Map, RangeIds));
  case TermKind::Forall:
  case TermKind::Exists: {
    smt::TermVar B = T->var();
    auto Saved = Map.find(B.Id);
    std::optional<smt::TermRef> SavedVal;
    if (Saved != Map.end()) {
      SavedVal = Saved->second;
      Map.erase(Saved);
    }
    smt::TermVar NewB = B;
    bool Renamed = false;
    if (RangeIds.count(B.Id)) {
      NewB = smt::freshVar(B.Name, B.VarSort);
      Map[B.Id] = smt::mkVar(NewB);
      Renamed = true;
    }
    smt::TermRef Body = substTerm(T->operand(0), Map, RangeIds);
    if (Renamed)
      Map.erase(B.Id);
    if (SavedVal)
      Map[B.Id] = *SavedVal;
    return T->kind() == TermKind::Forall ? smt::forall(NewB, Body)
                                         : smt::exists(NewB, Body);
  }
  }
  return T;
}

struct Rehydrator {
  std::unordered_map<unsigned, smt::TermRef> VarMap;
  std::unordered_set<unsigned> RangeIds;
  std::unordered_map<unsigned, Sym> SymMap; // old Sym id -> new Sym
  bool Fail = false;

  smt::TermRef term(const smt::TermRef &T) {
    return substTerm(T, VarMap, RangeIds);
  }

  TriBool tri(const TriBool &B) { return {term(B.Must), term(B.May)}; }

  EffInt eff(const EffInt &E) { return {term(E.Val), term(E.Def)}; }

  Sym sym(Sym Old) {
    auto It = SymMap.find(Old.id());
    if (It == SymMap.end()) {
      Fail = true;
      return Old;
    }
    return It->second;
  }

  LocSetRef loc(const LocSetRef &L) {
    if (Fail)
      return L;
    auto New = std::make_shared<LocSet>(L->kind());
    if (L->base().valid())
      New->Base = sym(L->base());
    New->Coords.reserve(L->coords().size());
    for (auto &C : L->coords())
      New->Coords.push_back(eff(C));
    New->Cond = tri(L->cond());
    if (L->kind() == LocSet::Kind::BigUnion) {
      // The binder shadows any outer substitution of the same id; rename
      // it if a substitution target collides.
      smt::TermVar B = L->boundVar();
      auto Saved = VarMap.find(B.Id);
      std::optional<smt::TermRef> SavedVal;
      if (Saved != VarMap.end()) {
        SavedVal = Saved->second;
        VarMap.erase(Saved);
      }
      smt::TermVar NewB = B;
      bool Renamed = false;
      if (RangeIds.count(B.Id)) {
        NewB = smt::freshVar(B.Name, B.VarSort);
        VarMap[B.Id] = smt::mkVar(NewB);
        Renamed = true;
      }
      New->Bound = NewB;
      New->Parts.reserve(L->parts().size());
      for (auto &P : L->parts())
        New->Parts.push_back(loc(P));
      if (Renamed)
        VarMap.erase(B.Id);
      if (SavedVal)
        VarMap[B.Id] = *SavedVal;
      return New;
    }
    New->Bound = L->boundVar();
    New->Parts.reserve(L->parts().size());
    for (auto &P : L->parts())
      New->Parts.push_back(loc(P));
    return New;
  }

  EffectSets sets(const EffectSets &E) {
    EffectSets Out;
    Out.RdG = loc(E.RdG);
    Out.WrG = loc(E.WrG);
    Out.RdH = loc(E.RdH);
    Out.WrH = loc(E.WrH);
    Out.RpH = loc(E.RpH);
    Out.Al = loc(E.Al);
    return Out;
  }
};

/// Builds the positional substitution between two serializations' orders
/// and rewrites the stored summary. Returns false if the record is not
/// alignable (should not happen for byte-equal keys; defensive).
bool rehydrate(const CanonRecord &Rec, const std::vector<Sym> &NewSymOrder,
               const std::vector<smt::TermVar> &NewVarOrder,
               EffectSets &Out) {
  if (Rec.SymOrder.size() != NewSymOrder.size() ||
      Rec.VarOrder.size() != NewVarOrder.size())
    return false;
  Rehydrator H;
  for (size_t I = 0; I < Rec.VarOrder.size(); ++I) {
    H.VarMap.emplace(Rec.VarOrder[I].Id, smt::mkVar(NewVarOrder[I]));
    H.RangeIds.insert(NewVarOrder[I].Id);
  }
  for (size_t I = 0; I < Rec.SymOrder.size(); ++I)
    H.SymMap.emplace(Rec.SymOrder[I].id(), NewSymOrder[I]);
  EffectSets R = H.sets(Rec.Eff);
  if (H.Fail)
    return false;
  Out = R;
  return true;
}

} // namespace

bool exo::analysis::isStateInvariant(const StmtRef &S) {
  CacheShard &C = EffectCache::get().shardFor(S.get());
  std::lock_guard<std::mutex> Lock(C.M);
  return invariantLocked(C, S);
}

smt::TermVar exo::analysis::stableLoopVar(const StmtRef &ForStmt) {
  assert(ForStmt->kind() == StmtKind::For && "not a For statement");
  EffectCache &E = EffectCache::get();
  CacheShard &C = E.shardFor(ForStmt.get());
  std::lock_guard<std::mutex> Lock(C.M);
  StmtRecord &R = recordFor(C, ForStmt);
  if (!R.HaveLoopVar) {
    R.LoopVar = smt::freshVar(ForStmt->name().name(), smt::Sort::Int);
    R.HaveLoopVar = true;
    std::lock_guard<std::mutex> LvLock(E.LoopVarM); // shard -> loop-var order
    E.LoopVarIds.insert(R.LoopVar.Id);
  }
  return R.LoopVar;
}

bool exo::analysis::effectCacheLookup(AnalysisCtx &Ctx, const StmtRef &S,
                                      const FlowState &State,
                                      EffectSets &Out) {
  EffectCache &E = EffectCache::get();
  CacheShard &C = E.shardFor(S.get());
  bool CanonCandidate = false;
  {
    std::lock_guard<std::mutex> Lock(C.M);
    auto It = C.Table.find(S.get());
    if (It != C.Table.end() && !It->second.Lines.empty()) {
      StmtRecord &R = It->second;
      bool Aliased = false;
      for (auto &Sy : R.FreeSyms)
        if (State.Aliases.count(Sy)) {
          Aliased = true;
          break;
        }
      if (!Aliased) {
        Fingerprint FP = fingerprintOf(R.FreeSyms, State);
        for (auto &Line : R.Lines)
          if (fingerprintsEqual(Line.Env, FP)) {
            ++C.Stats.Hits;
            Out = Line.Eff;
            return true;
          }
      }
    }
    // Only loop/branch subtrees consult the canonical index, and only when
    // they are shareable at all.
    CanonCandidate = canonEligible(S) && invariantLocked(C, S);
  }

  if (CanonCandidate) {
    // No shard lock may be held here: serialization pins loop variables
    // (shard locks) and resolves registry variables (registry lock).
    std::set<Sym> FreeSyms = freeVars(S);
    std::set<Sym> Cfg = configFields(S);
    FreeSyms.insert(Cfg.begin(), Cfg.end());
    bool Aliased = false;
    for (auto &Sy : FreeSyms)
      if (State.Aliases.count(Sy)) {
        Aliased = true;
        break;
      }
    if (!Aliased) {
      CanonSerializer Ser(Ctx);
      if (canonKeyOf(Ctx, S, State, FreeSyms, Ser)) {
        std::optional<CanonRecord> Rec;
        {
          std::lock_guard<std::mutex> Lock(E.CanonM);
          auto It = E.Canon.find(Ser.Out);
          if (It != E.Canon.end())
            Rec = It->second;
        }
        EffectSets Hydrated;
        if (Rec && rehydrate(*Rec, Ser.SymOrder, Ser.VarOrder, Hydrated)) {
          E.CrossCompileHits.fetch_add(1, std::memory_order_relaxed);
          // Install on the address key so subsequent lookups of this node
          // hit the fast path.
          std::lock_guard<std::mutex> Lock(C.M);
          ++C.Stats.Hits;
          StmtRecord &R = recordFor(C, S);
          R.Invariant = 1;
          const std::vector<Sym> &FS = freeSymsLocked(C, S);
          if (R.Lines.size() < EffectCache::MaxLinesPerStmt)
            R.Lines.push_back(CacheLine{fingerprintOf(FS, State), Hydrated});
          Out = Hydrated;
          return true;
        }
      }
    }
  }

  std::lock_guard<std::mutex> Lock(C.M);
  ++C.Stats.Misses;
  return false;
}

void exo::analysis::effectCacheInsert(AnalysisCtx &Ctx, const StmtRef &S,
                                      const FlowState &State,
                                      unsigned FreshMark,
                                      const EffectSets &Eff) {
  EffectCache &E = EffectCache::get();
  CacheShard &C = E.shardFor(S.get());
  std::vector<Sym> FreeSyms;
  {
    std::unique_lock<std::mutex> Lock(C.M);
    if (!invariantLocked(C, S)) {
      ++C.Stats.Uncacheable;
      return;
    }
    // Copy: the canonical indexing below runs after the lock is released.
    FreeSyms = freeSymsLocked(C, S);
    for (auto &Sy : FreeSyms)
      if (State.Aliases.count(Sy)) {
        ++C.Stats.Uncacheable;
        return;
      }

    // Reject summaries that leak variables minted during this extraction.
    // Stable variables (global Sym registry, stride values, pinned loop
    // vars) are exempt even when first minted inside the bracket —
    // re-extraction reproduces them exactly.
    std::unordered_set<unsigned> Ids;
    collectSummaryIds(Eff, Ids);
    for (unsigned Id : Ids) {
      if (Id < FreshMark)
        continue;
      {
        // shard -> loop-var lock order, same as stableLoopVar.
        std::lock_guard<std::mutex> LvLock(E.LoopVarM);
        if (E.LoopVarIds.count(Id))
          continue;
      }
      // symFor/strideFor take the (distinct) registry mutex; safe to call
      // while holding ours — the registry never calls back into the cache.
      if (Ctx.symFor(Id) || Ctx.strideFor(Id))
        continue;
      ++C.Stats.Uncacheable;
      return;
    }

    // The record exists (invariantLocked made it), so this cannot flush.
    StmtRecord &R = recordFor(C, S);
    Fingerprint FP = fingerprintOf(R.FreeSyms, State);
    bool Stored = false;
    for (auto &Line : R.Lines)
      if (fingerprintsEqual(Line.Env, FP)) {
        Stored = true;
        break;
      }
    if (!Stored) {
      if (R.Lines.size() >= EffectCache::MaxLinesPerStmt)
        R.Lines.clear();
      R.Lines.push_back(CacheLine{std::move(FP), Eff});
    }
  }

  // Canonical indexing for loop/branch subtrees; runs with no shard lock
  // held (serialization takes shard locks for loop-variable pinning).
  if (!canonEligible(S))
    return;
  std::set<Sym> FreeSet(FreeSyms.begin(), FreeSyms.end());
  CanonSerializer Ser(Ctx);
  if (!canonKeyOf(Ctx, S, State, FreeSet, Ser)) {
    E.CanonUnshareable.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  // Every free variable and base symbol of the summary must be covered by
  // the serialization's orders, or a later compile could not substitute
  // it; skip such summaries rather than share them unsoundly.
  std::unordered_set<unsigned> Ids;
  collectSummaryIds(Eff, Ids);
  for (unsigned Id : Ids)
    if (!Ser.VarCanon.count(Id)) {
      E.CanonUnshareable.fetch_add(1, std::memory_order_relaxed);
      return;
    }
  std::set<Sym> Bases;
  for (const LocSetRef *Set :
       {&Eff.RdG, &Eff.WrG, &Eff.RdH, &Eff.WrH, &Eff.RpH, &Eff.Al})
    collectAllBases(*Set, Bases);
  for (auto &B : Bases)
    if (!Ser.SymCanon.count(B.id())) {
      E.CanonUnshareable.fetch_add(1, std::memory_order_relaxed);
      return;
    }
  {
    std::lock_guard<std::mutex> Lock(E.CanonM);
    if (E.Canon.size() >= EffectCache::MaxCanonEntries)
      E.Canon.clear();
    auto [It, Inserted] = E.Canon.emplace(
        std::move(Ser.Out),
        CanonRecord{Eff, std::move(Ser.SymOrder), std::move(Ser.VarOrder)});
    if (Inserted)
      E.CanonIndexed.fetch_add(1, std::memory_order_relaxed);
  }
}

EffectCacheStats exo::analysis::effectCacheStats() {
  EffectCache &E = EffectCache::get();
  EffectCacheStats Sum;
  for (CacheShard &C : E.Shards) {
    std::lock_guard<std::mutex> Lock(C.M);
    Sum.Hits += C.Stats.Hits;
    Sum.Misses += C.Stats.Misses;
    Sum.Uncacheable += C.Stats.Uncacheable;
    Sum.Evictions += C.Stats.Evictions;
    Sum.Size += C.Table.size();
  }
  {
    std::lock_guard<std::mutex> Lock(E.LoopVarM);
    Sum.LoopVars = E.LoopVarIds.size();
  }
  Sum.CrossCompileHits = E.CrossCompileHits.load(std::memory_order_relaxed);
  Sum.CanonIndexed = E.CanonIndexed.load(std::memory_order_relaxed);
  Sum.CanonUnshareable = E.CanonUnshareable.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> Lock(E.CanonM);
    Sum.CanonSize = E.Canon.size();
  }
  return Sum;
}

void exo::analysis::clearEffectCache() {
  EffectCache &E = EffectCache::get();
  for (CacheShard &C : E.Shards) {
    std::lock_guard<std::mutex> Lock(C.M);
    flushShardLocked(C);
  }
  std::lock_guard<std::mutex> Lock(E.CanonM);
  E.Canon.clear();
}
