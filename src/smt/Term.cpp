//===- smt/Term.cpp --------------------------------------------*- C++ -*-===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "smt/Term.h"

#include "support/MathExtras.h"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <unordered_map>
#include <unordered_set>

using namespace exo;
using namespace exo::smt;

static std::atomic<unsigned> &freshVarCounter() {
  static std::atomic<unsigned> NextId{1};
  return NextId;
}

TermVar exo::smt::freshVar(const std::string &Name, Sort S) {
  return TermVar{freshVarCounter().fetch_add(1), Name, S};
}

//===----------------------------------------------------------------------===//
// Hash-consing interner
//===----------------------------------------------------------------------===//

static size_t hashMix(size_t Seed, size_t V) {
  // boost::hash_combine mixing.
  return Seed ^ (V + 0x9e3779b97f4a7c15ULL + (Seed << 6) + (Seed >> 2));
}

static size_t structuralHash(TermKind K, Sort S, int64_t V, unsigned VarId,
                             const std::vector<TermRef> &Ops) {
  size_t H = hashMix(static_cast<size_t>(K) * 31 + static_cast<size_t>(S),
                     static_cast<size_t>(static_cast<uint64_t>(V)));
  H = hashMix(H, VarId);
  for (auto &Op : Ops)
    H = hashMix(H, Op->hash());
  return H;
}

Term::Term(TermKind K, Sort S, int64_t V, TermVar Var, std::vector<TermRef> Ops)
    : Kind(K), TheSort(S), Value(V), Variable(std::move(Var)),
      Operands(std::move(Ops)) {
  Hash = structuralHash(Kind, TheSort, Value,
                        Kind == TermKind::Var || Kind == TermKind::Forall ||
                                Kind == TermKind::Exists
                            ? Variable.Id
                            : 0,
                        Operands);
  IntIte = Kind == TermKind::Ite && TheSort == Sort::Int;
  if (Kind == TermKind::Var) {
    FreeIds.push_back(Variable.Id);
  } else if (Operands.size() == 1) {
    FreeIds = Operands[0]->freeVarIds();
    IntIte |= Operands[0]->hasIntIte();
  } else {
    for (auto &Op : Operands) {
      IntIte |= Op->hasIntIte();
      FreeIds.insert(FreeIds.end(), Op->freeVarIds().begin(),
                     Op->freeVarIds().end());
    }
    std::sort(FreeIds.begin(), FreeIds.end());
    FreeIds.erase(std::unique(FreeIds.begin(), FreeIds.end()), FreeIds.end());
  }
  if (Kind == TermKind::Forall || Kind == TermKind::Exists) {
    auto It = std::lower_bound(FreeIds.begin(), FreeIds.end(), Variable.Id);
    if (It != FreeIds.end() && *It == Variable.Id) {
      // Copy-on-write: the unary case above aliased the child's vector.
      std::vector<unsigned> Own(FreeIds);
      Own.erase(Own.begin() + (It - FreeIds.begin()));
      FreeIds = std::move(Own);
    }
  }
}

namespace {

/// The process-wide interner: a bucket map from structural hash to the nodes
/// carrying that hash. Candidate matching is *shallow* — payload fields plus
/// pointer-equality of operands — which suffices because children are
/// themselves interned. After a flush, children of newly built terms may no
/// longer be pointer-unique with older live terms, so some sharing is lost;
/// Term::equals keeps a deep fallback for exactly that case.
///
/// The table is *sharded* by structural hash: concurrent compile sessions
/// build terms constantly, and a single mutex here serializes the whole
/// scheduling pipeline. Each shard has its own lock, bucket map, live-node
/// count, and counters; flush-on-cap is per shard, so a flush in one shard
/// does not disturb sharing in the others.
struct InternerShard {
  std::mutex M;
  std::unordered_map<size_t, std::vector<TermRef>> Buckets;
  size_t LiveNodes = 0;
  TermInternerStats Stats;
};

struct TermInterner {
  static constexpr size_t NumShards = 16; // power of two; see shardFor
  InternerShard Shards[NumShards];

  // Flush-on-cap: past this many retained nodes *per shard* the shard is
  // cleared (counted in Stats.Flushes). Live terms keep their own refs.
  static constexpr size_t MaxLiveNodesPerShard = (1u << 18) / NumShards;

  InternerShard &shardFor(size_t Hash) {
    // The low bits pick the unordered_map bucket inside the shard; use a
    // different slice for shard selection so the two don't correlate.
    return Shards[(Hash >> 7) & (NumShards - 1)];
  }

  static TermInterner &get() {
    static TermInterner I;
    return I;
  }
};

} // namespace

static bool shallowMatches(const Term &T, TermKind K, Sort S, int64_t V,
                           const TermVar &Var,
                           const std::vector<TermRef> &Ops) {
  if (T.kind() != K || T.sort() != S || T.numOperands() != Ops.size())
    return false;
  bool HasVar =
      K == TermKind::Var || K == TermKind::Forall || K == TermKind::Exists;
  switch (K) {
  case TermKind::IntConst:
  case TermKind::BoolConst:
  case TermKind::Mul:
  case TermKind::Div:
  case TermKind::Mod:
    if (T.kind() == TermKind::IntConst ? T.intValue() != V
        : T.kind() == TermKind::BoolConst
            ? T.boolValue() != (V != 0)
            : T.scalar() != V)
      return false;
    break;
  default:
    break;
  }
  if (HasVar && T.var().Id != Var.Id)
    return false;
  for (size_t I = 0; I < Ops.size(); ++I)
    if (T.operand(I).get() != Ops[I].get())
      return false;
  return true;
}

static TermRef makeNode(TermKind K, Sort S, int64_t V, TermVar Var,
                        std::vector<TermRef> Ops) {
  bool HasVar =
      K == TermKind::Var || K == TermKind::Forall || K == TermKind::Exists;
  size_t H = structuralHash(K, S, V, HasVar ? Var.Id : 0, Ops);
  InternerShard &Sh = TermInterner::get().shardFor(H);
  std::lock_guard<std::mutex> Lock(Sh.M);
  auto &Bucket = Sh.Buckets[H];
  for (auto &Cand : Bucket)
    if (shallowMatches(*Cand, K, S, V, Var, Ops)) {
      ++Sh.Stats.Hits;
      return Cand;
    }
  ++Sh.Stats.Misses;
  if (Sh.LiveNodes >= TermInterner::MaxLiveNodesPerShard) {
    Sh.Buckets.clear();
    Sh.LiveNodes = 0;
    ++Sh.Stats.Flushes;
    // NB: `Bucket` is dangling after clear(); re-insert below via the map.
    TermRef Node =
        std::make_shared<Term>(K, S, V, std::move(Var), std::move(Ops));
    Sh.Buckets[H].push_back(Node);
    ++Sh.LiveNodes;
    return Node;
  }
  TermRef Node =
      std::make_shared<Term>(K, S, V, std::move(Var), std::move(Ops));
  Bucket.push_back(Node);
  ++Sh.LiveNodes;
  return Node;
}

TermInternerStats exo::smt::termInternerStats() {
  TermInterner &I = TermInterner::get();
  TermInternerStats Sum;
  for (InternerShard &Sh : I.Shards) {
    std::lock_guard<std::mutex> Lock(Sh.M);
    Sum.Hits += Sh.Stats.Hits;
    Sum.Misses += Sh.Stats.Misses;
    Sum.Flushes += Sh.Stats.Flushes;
    Sum.Live += Sh.LiveNodes;
  }
  return Sum;
}

void exo::smt::clearTermInterner() {
  TermInterner &I = TermInterner::get();
  for (InternerShard &Sh : I.Shards) {
    std::lock_guard<std::mutex> Lock(Sh.M);
    Sh.Buckets.clear();
    Sh.LiveNodes = 0;
  }
}

static const TermVar NoVar{0, "", Sort::Int};

TermRef exo::smt::intConst(int64_t V) {
  return makeNode(TermKind::IntConst, Sort::Int, V, NoVar, {});
}

TermRef exo::smt::boolConst(bool V) {
  return makeNode(TermKind::BoolConst, Sort::Bool, V ? 1 : 0, NoVar, {});
}

TermRef exo::smt::mkTrue() { return boolConst(true); }
TermRef exo::smt::mkFalse() { return boolConst(false); }

TermRef exo::smt::mkVar(const TermVar &V) {
  return makeNode(TermKind::Var, V.VarSort, 0, V, {});
}

static bool isBoolConst(const TermRef &T, bool V) {
  return T->kind() == TermKind::BoolConst && T->boolValue() == V;
}

TermRef exo::smt::add(std::vector<TermRef> Ops) {
  std::vector<TermRef> Flat;
  int64_t ConstSum = 0;
  for (auto &Op : Ops) {
    assert(Op->sort() == Sort::Int && "add of non-int");
    if (Op->kind() == TermKind::IntConst) {
      ConstSum += Op->intValue();
    } else if (Op->kind() == TermKind::Add) {
      for (auto &Inner : Op->operands()) {
        if (Inner->kind() == TermKind::IntConst)
          ConstSum += Inner->intValue();
        else
          Flat.push_back(Inner);
      }
    } else {
      Flat.push_back(Op);
    }
  }
  if (ConstSum != 0 || Flat.empty())
    Flat.push_back(intConst(ConstSum));
  if (Flat.size() == 1)
    return Flat[0];
  return makeNode(TermKind::Add, Sort::Int, 0, NoVar, std::move(Flat));
}

TermRef exo::smt::add(TermRef A, TermRef B) {
  return add(std::vector<TermRef>{std::move(A), std::move(B)});
}

TermRef exo::smt::neg(TermRef A) { return mul(-1, std::move(A)); }

TermRef exo::smt::sub(TermRef A, TermRef B) {
  return add(std::move(A), neg(std::move(B)));
}

TermRef exo::smt::mul(int64_t Scalar, TermRef A) {
  assert(A->sort() == Sort::Int && "mul of non-int");
  if (Scalar == 0)
    return intConst(0);
  if (Scalar == 1)
    return A;
  if (A->kind() == TermKind::IntConst)
    return intConst(Scalar * A->intValue());
  if (A->kind() == TermKind::Mul)
    return mul(Scalar * A->scalar(), A->operand(0));
  if (A->kind() == TermKind::Add) {
    std::vector<TermRef> Ops;
    Ops.reserve(A->numOperands());
    for (auto &Op : A->operands())
      Ops.push_back(mul(Scalar, Op));
    return add(std::move(Ops));
  }
  return makeNode(TermKind::Mul, Sort::Int, Scalar, NoVar, {std::move(A)});
}

TermRef exo::smt::div(TermRef A, int64_t Divisor) {
  assert(Divisor > 0 && "quasi-affine division needs a positive literal");
  if (Divisor == 1)
    return A;
  if (A->kind() == TermKind::IntConst)
    return intConst(floorDiv(A->intValue(), Divisor));
  return makeNode(TermKind::Div, Sort::Int, Divisor, NoVar, {std::move(A)});
}

TermRef exo::smt::mod(TermRef A, int64_t Modulus) {
  assert(Modulus > 0 && "quasi-affine modulo needs a positive literal");
  if (Modulus == 1)
    return intConst(0);
  if (A->kind() == TermKind::IntConst)
    return intConst(floorMod(A->intValue(), Modulus));
  return makeNode(TermKind::Mod, Sort::Int, Modulus, NoVar, {std::move(A)});
}

TermRef exo::smt::eq(TermRef A, TermRef B) {
  assert(A->sort() == Sort::Int && B->sort() == Sort::Int && "eq of non-int");
  if (A->kind() == TermKind::IntConst && B->kind() == TermKind::IntConst)
    return boolConst(A->intValue() == B->intValue());
  if (A->equals(*B))
    return mkTrue();
  return makeNode(TermKind::Eq, Sort::Bool, 0, NoVar,
                  {std::move(A), std::move(B)});
}

TermRef exo::smt::ne(TermRef A, TermRef B) {
  return mkNot(eq(std::move(A), std::move(B)));
}

TermRef exo::smt::le(TermRef A, TermRef B) {
  assert(A->sort() == Sort::Int && B->sort() == Sort::Int && "le of non-int");
  if (A->kind() == TermKind::IntConst && B->kind() == TermKind::IntConst)
    return boolConst(A->intValue() <= B->intValue());
  if (A->equals(*B))
    return mkTrue();
  return makeNode(TermKind::Le, Sort::Bool, 0, NoVar,
                  {std::move(A), std::move(B)});
}

TermRef exo::smt::lt(TermRef A, TermRef B) {
  assert(A->sort() == Sort::Int && B->sort() == Sort::Int && "lt of non-int");
  if (A->kind() == TermKind::IntConst && B->kind() == TermKind::IntConst)
    return boolConst(A->intValue() < B->intValue());
  if (A->equals(*B))
    return mkFalse();
  return makeNode(TermKind::Lt, Sort::Bool, 0, NoVar,
                  {std::move(A), std::move(B)});
}

TermRef exo::smt::ge(TermRef A, TermRef B) { return le(std::move(B), std::move(A)); }
TermRef exo::smt::gt(TermRef A, TermRef B) { return lt(std::move(B), std::move(A)); }

TermRef exo::smt::mkNot(TermRef A) {
  assert(A->sort() == Sort::Bool && "not of non-bool");
  if (A->kind() == TermKind::BoolConst)
    return boolConst(!A->boolValue());
  if (A->kind() == TermKind::Not)
    return A->operand(0);
  return makeNode(TermKind::Not, Sort::Bool, 0, NoVar, {std::move(A)});
}

TermRef exo::smt::mkAnd(std::vector<TermRef> Ops) {
  std::vector<TermRef> Flat;
  for (auto &Op : Ops) {
    assert(Op->sort() == Sort::Bool && "and of non-bool");
    if (isBoolConst(Op, false))
      return mkFalse();
    if (isBoolConst(Op, true))
      continue;
    if (Op->kind() == TermKind::And) {
      for (auto &Inner : Op->operands())
        Flat.push_back(Inner);
    } else {
      Flat.push_back(Op);
    }
  }
  if (Flat.empty())
    return mkTrue();
  if (Flat.size() == 1)
    return Flat[0];
  return makeNode(TermKind::And, Sort::Bool, 0, NoVar, std::move(Flat));
}

TermRef exo::smt::mkAnd(TermRef A, TermRef B) {
  return mkAnd(std::vector<TermRef>{std::move(A), std::move(B)});
}

TermRef exo::smt::mkOr(std::vector<TermRef> Ops) {
  std::vector<TermRef> Flat;
  for (auto &Op : Ops) {
    assert(Op->sort() == Sort::Bool && "or of non-bool");
    if (isBoolConst(Op, true))
      return mkTrue();
    if (isBoolConst(Op, false))
      continue;
    if (Op->kind() == TermKind::Or) {
      for (auto &Inner : Op->operands())
        Flat.push_back(Inner);
    } else {
      Flat.push_back(Op);
    }
  }
  if (Flat.empty())
    return mkFalse();
  if (Flat.size() == 1)
    return Flat[0];
  return makeNode(TermKind::Or, Sort::Bool, 0, NoVar, std::move(Flat));
}

TermRef exo::smt::mkOr(TermRef A, TermRef B) {
  return mkOr(std::vector<TermRef>{std::move(A), std::move(B)});
}

TermRef exo::smt::implies(TermRef A, TermRef B) {
  if (isBoolConst(A, true))
    return B;
  if (isBoolConst(A, false) || isBoolConst(B, true))
    return mkTrue();
  if (isBoolConst(B, false))
    return mkNot(std::move(A));
  return makeNode(TermKind::Implies, Sort::Bool, 0, NoVar,
                  {std::move(A), std::move(B)});
}

TermRef exo::smt::iff(TermRef A, TermRef B) {
  return mkAnd(implies(A, B), implies(B, A));
}

TermRef exo::smt::ite(TermRef C, TermRef T, TermRef E) {
  assert(C->sort() == Sort::Bool && "ite condition not bool");
  assert(T->sort() == E->sort() && "ite branch sorts differ");
  if (isBoolConst(C, true))
    return T;
  if (isBoolConst(C, false))
    return E;
  if (T->equals(*E))
    return T;
  Sort S = T->sort();
  return makeNode(TermKind::Ite, S, 0, NoVar,
                  {std::move(C), std::move(T), std::move(E)});
}

TermRef exo::smt::forall(const TermVar &V, TermRef Body) {
  assert(V.VarSort == Sort::Int && "quantifiers range over ints");
  if (Body->kind() == TermKind::BoolConst)
    return Body;
  return makeNode(TermKind::Forall, Sort::Bool, 0, V, {std::move(Body)});
}

TermRef exo::smt::forall(const std::vector<TermVar> &Vs, TermRef Body) {
  for (auto It = Vs.rbegin(); It != Vs.rend(); ++It)
    Body = forall(*It, std::move(Body));
  return Body;
}

TermRef exo::smt::exists(const TermVar &V, TermRef Body) {
  assert(V.VarSort == Sort::Int && "quantifiers range over ints");
  if (Body->kind() == TermKind::BoolConst)
    return Body;
  return makeNode(TermKind::Exists, Sort::Bool, 0, V, {std::move(Body)});
}

TermRef exo::smt::exists(const std::vector<TermVar> &Vs, TermRef Body) {
  for (auto It = Vs.rbegin(); It != Vs.rend(); ++It)
    Body = exists(*It, std::move(Body));
  return Body;
}

bool Term::equals(const Term &O) const {
  if (this == &O)
    return true;
  if (Hash != O.Hash)
    return false;
  if (Kind != O.Kind || TheSort != O.TheSort || Value != O.Value ||
      Variable.Id != O.Variable.Id || Operands.size() != O.Operands.size())
    return false;
  for (size_t I = 0; I < Operands.size(); ++I)
    if (!Operands[I]->equals(*O.Operands[I]))
      return false;
  return true;
}

static void collectFreeVarsImpl(const TermRef &T,
                                std::unordered_set<unsigned> &Bound,
                                std::unordered_set<unsigned> &Seen,
                                std::vector<TermVar> &Out) {
  // Prune subtrees whose (cached) free-variable ids are all already
  // accounted for — the common case once terms are widely shared.
  {
    bool AllKnown = true;
    for (unsigned Id : T->freeVarIds())
      if (!Seen.count(Id) && !Bound.count(Id)) {
        AllKnown = false;
        break;
      }
    if (AllKnown)
      return;
  }
  switch (T->kind()) {
  case TermKind::Var:
    if (!Bound.count(T->var().Id) && Seen.insert(T->var().Id).second)
      Out.push_back(T->var());
    return;
  case TermKind::Forall:
  case TermKind::Exists: {
    bool Inserted = Bound.insert(T->var().Id).second;
    collectFreeVarsImpl(T->operand(0), Bound, Seen, Out);
    if (Inserted)
      Bound.erase(T->var().Id);
    return;
  }
  default:
    for (auto &Op : T->operands())
      collectFreeVarsImpl(Op, Bound, Seen, Out);
  }
}

void exo::smt::collectFreeVars(const TermRef &T, std::vector<TermVar> &Out) {
  std::unordered_set<unsigned> Bound, Seen;
  for (auto &V : Out)
    Seen.insert(V.Id);
  collectFreeVarsImpl(T, Bound, Seen, Out);
}

TermRef exo::smt::substVar(const TermRef &T, const TermVar &V,
                           TermRef Replacement) {
  if (!T->hasFreeVar(V.Id))
    return T;
  switch (T->kind()) {
  case TermKind::IntConst:
  case TermKind::BoolConst:
    return T;
  case TermKind::Var:
    return T->var().Id == V.Id ? Replacement : T;
  case TermKind::Forall:
  case TermKind::Exists: {
    if (T->var().Id == V.Id)
      return T; // shadowed
    TermRef NewBody = substVar(T->operand(0), V, Replacement);
    if (NewBody == T->operand(0))
      return T;
    return T->kind() == TermKind::Forall ? forall(T->var(), NewBody)
                                         : exists(T->var(), NewBody);
  }
  default: {
    std::vector<TermRef> Ops;
    bool Changed = false;
    Ops.reserve(T->numOperands());
    for (auto &Op : T->operands()) {
      Ops.push_back(substVar(Op, V, Replacement));
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
    case TermKind::Not:
      return mkNot(Ops[0]);
    case TermKind::And:
      return mkAnd(std::move(Ops));
    case TermKind::Or:
      return mkOr(std::move(Ops));
    case TermKind::Implies:
      return implies(Ops[0], Ops[1]);
    case TermKind::Ite:
      return ite(Ops[0], Ops[1], Ops[2]);
    default:
      fatalError("substVar: unexpected term kind");
    }
  }
  }
}

std::string Term::str() const {
  switch (Kind) {
  case TermKind::IntConst:
    return std::to_string(Value);
  case TermKind::BoolConst:
    return Value ? "true" : "false";
  case TermKind::Var:
    return Variable.Name + "#" + std::to_string(Variable.Id);
  default:
    break;
  }
  auto Head = [&]() -> std::string {
    switch (Kind) {
    case TermKind::Add:
      return "+";
    case TermKind::Mul:
      return "* " + std::to_string(Value);
    case TermKind::Div:
      return "div " + std::to_string(Value);
    case TermKind::Mod:
      return "mod " + std::to_string(Value);
    case TermKind::Eq:
      return "=";
    case TermKind::Le:
      return "<=";
    case TermKind::Lt:
      return "<";
    case TermKind::Not:
      return "not";
    case TermKind::And:
      return "and";
    case TermKind::Or:
      return "or";
    case TermKind::Implies:
      return "=>";
    case TermKind::Ite:
      return "ite";
    case TermKind::Forall:
      return "forall " + Variable.Name + "#" + std::to_string(Variable.Id);
    case TermKind::Exists:
      return "exists " + Variable.Name + "#" + std::to_string(Variable.Id);
    default:
      return "?";
    }
  }();
  std::string Out = "(" + Head;
  for (auto &Op : Operands) {
    Out += ' ';
    Out += Op->str();
  }
  Out += ')';
  return Out;
}
