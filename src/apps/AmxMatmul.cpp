//===- apps/AmxMatmul.cpp --------------------------------------*- C++ -*-===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "apps/AmxMatmul.h"

#include "hwlibs/amx/AmxLib.h"
#include "scheduling/Schedule.h"

using namespace exo;
using namespace exo::apps;
using namespace exo::ir;
using namespace exo::scheduling;
using hw::amx::amxLib;

namespace {

std::string algorithmSource(int64_t N, int64_t M, int64_t K) {
  auto S = [](int64_t V) { return std::to_string(V); };
  return "@proc\n"
         "def amx_matmul(A: R[" + S(N) + ", " + S(K) + "], "
         "B: R[" + S(K) + ", " + S(M) + "], "
         "C: R[" + S(N) + ", " + S(M) + "]):\n"
         "    for i in seq(0, " + S(N) + "):\n"
         "        for j in seq(0, " + S(M) + "):\n"
         "            for k in seq(0, " + S(K) + "):\n"
         "                C[i, j] += A[i, k] * B[k, j]\n";
}

} // namespace

Expected<ir::ProcRef> exo::apps::buildAmxMatmulAlgorithm(int64_t N, int64_t M,
                                                         int64_t K) {
  if (N <= 0 || M <= 0 || K <= 0)
    return makeError(Error::Kind::Scheduling,
                     "amx matmul needs positive N, M, K");
  frontend::ParseEnv Env = amxLib().Env;
  return frontend::parseProc(algorithmSource(N, M, K), Env);
}

Expected<AmxMatmulKernels> exo::apps::buildAmxMatmul(int64_t N, int64_t M,
                                                     int64_t K) {
  if (N <= 0 || M <= 0 || K <= 0 || N % 16 || M % 16 || K % 16)
    return makeError(Error::Kind::Scheduling,
                     "amx matmul needs positive multiples of 16");
  const auto &HW = amxLib();

  frontend::ParseEnv Env = HW.Env; // copy: library names visible
  auto Alg = frontend::parseProc(algorithmSource(N, M, K), Env);
  if (!Alg)
    return Alg.error();

  AmxMatmulKernels Out;
  Out.Algorithm = *Alg;
  Out.AlgStmts = 5; // signature + 3 loops + 1 reduction

  Schedule Sch(*Alg);
  // --- Tile all three loops by the 16x16 tile-register size: split the
  //     reduction first, then tile2D handles i/j and sinks ii/ji below
  //     ko (loop order io ii jo ji ko ki -> io jo ko ii ji ki). ---
  Sch.split("k", 16, "ko", "ki", SplitTail::Perfect)
      .tile2d("i", 16, 16, "io", "ii", "jo", "ji", SplitTail::Perfect)
      // --- Stage the A row panel once per io strip (reused across all jo
      //     tiles), its copy shaped into 16-wide tileload chunks. ---
      .stageVec("for jo in _: _",
                "A[16 * io : 16 * io + 16, 0 : " + std::to_string(K) + "]",
                "a_panel", "AMX_TILE", 16, "lv", "ll")
      // Bring the row loop of the panel copy innermost.
      .reorder("i0")
      .configWriteAt("for lv in _: _", HW.CfgLdA, "src_stride",
                     "stride(A, 0)")
      .replaceWith("for i0 in _: _", 1, HW.LoadA)
      // --- Stage the output tile across the ko loop. ---
      .stage("for ko in _: _", 1,
             "C[16 * io : 16 * io + 16, 16 * jo : 16 * jo + 16]", "res",
             "AMX_TILE")
      // --- Stage the B tile. ---
      .stage("for ii in _: _", 1,
             "B[16 * ko : 16 * ko + 16, 16 * jo : 16 * jo + 16]", "b_tile",
             "AMX_TILE")
      // --- Instruction selection (replace + unification, §3.4). ---
      // The output-tile zero-init is the first remaining copy loop.
      .replaceWith("for i0 in _: _ #0", 1, HW.ZeroTile)
      .configWriteAt("for i0 in _: _ #0", HW.CfgLdB, "src_stride",
                     "stride(B, 0)")
      .replaceWith("for i0 in _: _ #0", 1, HW.LoadB)
      // The compute loop nest becomes one TMUL instruction.
      .replaceWith("for ii in _: _", 1, HW.Tdp16)
      // The copy-out accumulates into C through the store unit.
      .configWriteAt("for i0 in _: _ #0", HW.CfgSt, "dst_stride",
                     "stride(C, 0)")
      .replaceWith("for i0 in _: _ #0", 1, HW.StoreAcc)
      // Turn the raw configuration writes into configuration instructions.
      .replaceWith("AmxCfgLdA.src_stride = _", 1, HW.ConfigLdA)
      .replaceWith("AmxCfgLdB.src_stride = _", 1, HW.ConfigLdB)
      .replaceWith("AmxCfgSt.dst_stride = _", 1, HW.ConfigSt);
  if (!Sch)
    return Sch.error();

  // Configuration re-issued per tile: every tile pays the engine sync.
  Out.PerTile =
      renameProc(Sch.proc().take("amx matmul schedule"), "amx_matmul_pertile");
  Out.PerTileSteps = Sch.steps() + 1;

  // Hoist all three configuration instructions to the top of the kernel
  // (reorder/fission/remove, all safety-checked).
  Sch.hoistToTop("amx_config_ld_a(_)")
      .hoistToTop("amx_config_ld_b(_)")
      .hoistToTop("amx_config_st(_)");
  if (!Sch)
    return Sch.error();
  Out.HoistedSteps = Sch.steps() + 1;
  Out.Hoisted = renameProc(Sch.take("amx matmul schedule"), "amx_matmul_exo");
  return Out;
}
