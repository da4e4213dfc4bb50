//===- analysis/Dataflow.h - Symbolic global dataflow (ValG) ---*- C++ -*-===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The symbolic, control-sensitive dataflow analysis of §5.3. Because
/// configuration state is global and mutable, precise analysis is
/// undecidable; the paper's convergence heuristic is implemented here:
/// if a loop iteration provably leaves a global unchanged (the symbolic
/// post-value is structurally identical to the pre-value), the loop is an
/// identity on it; otherwise the value is driven to ⊥ (unknown).
///
/// FlowState also tracks window aliases so location sets can always be
/// expressed in terms of underlying buffers.
///
//===----------------------------------------------------------------------===//

#ifndef EXO_ANALYSIS_DATAFLOW_H
#define EXO_ANALYSIS_DATAFLOW_H

#include "analysis/EffExpr.h"
#include "ir/Proc.h"

namespace exo {
namespace analysis {

/// One window-alias coordinate: a point (offset only) or an interval
/// starting at Lo.
struct AliasCoord {
  bool IsInterval;
  EffInt Lo;
};

/// A window alias fully resolved to an underlying (non-alias) buffer.
struct AliasInfo {
  ir::Sym Base;
  std::vector<AliasCoord> Coords;
};

/// The abstract machine state the analyses thread through the program.
struct FlowState {
  EffEnv Env;                          ///< γ: control names ↦ values
  std::map<ir::Sym, AliasInfo> Aliases; ///< window name ↦ base + offsets
};

/// Resolves (Name, Coords) through the alias map to an underlying buffer
/// location.
std::pair<ir::Sym, std::vector<EffInt>>
resolveLocation(const FlowState &State, ir::Sym Name,
                std::vector<EffInt> Coords);

/// Advances the state across one statement / a whole block (ValG).
/// Loop bodies use the paper's stabilization heuristic; a call is
/// processed by substituting arguments into the callee body, unless every
/// statement of that body is state-invariant, when it is the identity.
void flowStmt(AnalysisCtx &Ctx, FlowState &State, const ir::StmtRef &S);
void flowBlock(AnalysisCtx &Ctx, FlowState &State, const ir::Block &B);

/// Returns the globals whose value differs between two states
/// (structurally), including keys present in only one.
std::vector<ir::Sym> changedKeys(const EffEnv &Before, const EffEnv &After);

/// Sets every key in \p Keys to a fresh unknown.
void havocKeys(AnalysisCtx &Ctx, EffEnv &Env, const std::vector<ir::Sym> &Keys);

/// The inlined body of a call statement: the callee's body with formal
/// parameters substituted by the actual arguments and binders refreshed.
/// Shared by the dataflow, the effect extraction, and inlineCall().
ir::Block substitutedCalleeBody(const ir::StmtRef &CallStmt);

} // namespace analysis
} // namespace exo

#endif // EXO_ANALYSIS_DATAFLOW_H
