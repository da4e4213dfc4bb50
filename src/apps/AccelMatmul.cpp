//===- apps/AccelMatmul.cpp ------------------------------------*- C++ -*-===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "apps/AccelMatmul.h"

#include "apps/AmxMatmul.h"
#include "apps/GemminiMatmul.h"
#include "hwlibs/amx/AmxLib.h"
#include "hwlibs/gemmini/GemminiLib.h"

using namespace exo;
using namespace exo::apps;
using namespace exo::scheduling;
using hw::amx::amxLib;
using hw::gemmini::gemminiLib;

Expected<ir::ProcRef> exo::apps::parseMatmul(const std::string &Name,
                                             const std::string &Elem,
                                             frontend::ParseEnv Env,
                                             int64_t N, int64_t M,
                                             int64_t K) {
  if (N <= 0 || M <= 0 || K <= 0)
    return makeError(Error::Kind::Scheduling,
                     Name + " needs positive extents");
  auto S = [](int64_t V) { return std::to_string(V); };
  return frontend::parseProc(
      "@proc\n"
      "def " + Name + "(A: " + Elem + "[" + S(N) + ", " + S(K) + "], "
      "B: " + Elem + "[" + S(K) + ", " + S(M) + "], "
      "C: " + Elem + "[" + S(N) + ", " + S(M) + "]):\n"
      "    for i in seq(0, " + S(N) + "):\n"
      "        for j in seq(0, " + S(M) + "):\n"
      "            for k in seq(0, " + S(K) + "):\n"
      "                C[i, j] += A[i, k] * B[k, j]\n",
      Env);
}

Expected<AccelMatmul> exo::apps::scheduleAccelMatmul(
    Schedule &Sch, const AccelMatmulHW &HW, int64_t K,
    const std::string &PerTileName, const std::string &HoistedName) {
  const ConfigChannels &Cfg = HW.Configs;
  // --- Tile all three loops by the 16x16 array size: split the reduction
  //     first, then tile2D handles i/j and sinks ii/ji below ko (loop
  //     order io ii jo ji ko ki -> io jo ko ii ji ki). ---
  Sch.split("k", 16, "ko", "ki", SplitTail::Perfect)
      .tile2d("i", 16, 16, "io", "ii", "jo", "ji", SplitTail::Perfect)
      // --- Stage the A row panel once per io strip (reused across all jo
      //     tiles — the data reuse that makes the kernel compute-bound),
      //     its copy shaped into 16-wide load chunks. ---
      .stageVec("for jo in _: _",
                "A[16 * io : 16 * io + 16, 0 : " + std::to_string(K) + "]",
                "a_panel", HW.StageMem, 16, "lv", "ll")
      // Bring the row loop of the panel copy innermost.
      .reorder("i0")
      .configWriteAt("for lv in _: _", Cfg[0].Config, Cfg[0].Field,
                     "stride(A, 0)")
      .replaceWith("for i0 in _: _", 1, HW.LoadA)
      // --- Stage the output tile in the accumulator across the ko loop. --
      .stage("for ko in _: _", 1,
             "C[16 * io : 16 * io + 16, 16 * jo : 16 * jo + 16]", "res",
             HW.AccMem)
      // --- Stage the B tile. ---
      .stage("for ii in _: _", 1,
             "B[16 * ko : 16 * ko + 16, 16 * jo : 16 * jo + 16]", "b_tile",
             HW.StageMem)
      // --- Instruction selection (replace + unification, §3.4). ---
      // The accumulator zero-init is the first remaining copy loop.
      .replaceWith("for i0 in _: _ #0", 1, HW.Zero)
      .configWriteAt("for i0 in _: _ #0", Cfg[1].Config, Cfg[1].Field,
                     "stride(B, 0)")
      .replaceWith("for i0 in _: _ #0", 1, HW.LoadB)
      // The compute loop nest becomes one tile-matmul instruction.
      .replaceWith("for ii in _: _", 1, HW.Matmul)
      // The copy-out accumulates into C through the store unit.
      .configWriteAt("for i0 in _: _ #0", Cfg[2].Config, Cfg[2].Field,
                     "stride(C, 0)")
      .replaceWith("for i0 in _: _ #0", 1, HW.Store);
  if (!replaceConfigWrites(Sch, Cfg))
    return Sch.error();

  // The per-tile shape: every tile re-runs its configuration
  // instructions, flushing the accelerator pipeline (§2.4).
  AccelMatmul Out;
  Out.PerTile = renameProc(*Sch.proc(), PerTileName);
  Out.PerTileSteps = Sch.steps() + 1;

  if (!hoistConfigs(Sch, Cfg).rename(HoistedName))
    return Sch.error();
  Out.HoistedSteps = Sch.steps();
  Out.Hoisted = *Sch.proc();
  return Out;
}

Schedule &exo::apps::replaceConfigWrites(Schedule &Sch,
                                         const ConfigChannels &Channels) {
  for (const ConfigChannel &C : Channels)
    Sch.replaceWith(C.Config->name().name() + "." + C.Field + " = _", 1,
                    C.Instr);
  return Sch;
}

Schedule &exo::apps::hoistConfigs(Schedule &Sch,
                                  const ConfigChannels &Channels) {
  for (const ConfigChannel &C : Channels)
    Sch.hoistToTop(C.Instr->name() + "(_)");
  return Sch;
}

ConfigChannels exo::apps::gemminiConfigChannels() {
  const auto &HW = gemminiLib();
  return {{{HW.CfgLd1, "src_stride", HW.ConfigLd1},
           {HW.CfgLd2, "src_stride", HW.ConfigLd2},
           {HW.CfgSt, "dst_stride", HW.ConfigSt}}};
}

Expected<ir::ProcRef>
exo::apps::buildGemminiMatmulAlgorithm(int64_t N, int64_t M, int64_t K) {
  return parseMatmul("gemmini_matmul", "R", gemminiLib().Env, N, M, K);
}

Expected<GemminiMatmulKernels>
exo::apps::buildGemminiMatmul(int64_t N, int64_t M, int64_t K) {
  if (N <= 0 || M <= 0 || K <= 0 || N % 16 || M % 16 || K % 16)
    return makeError(Error::Kind::Scheduling,
                     "gemmini matmul needs positive multiples of 16");
  const auto &HW = gemminiLib();
  AccelMatmulHW Table{.StageMem = "GEMM_SCRATCH", .AccMem = "GEMM_ACC",
                      .LoadA = HW.LdData, .LoadB = HW.LdData2,
                      .Zero = HW.ZeroAcc, .Matmul = HW.Matmul16,
                      .Store = HW.StAcc, .Configs = gemminiConfigChannels()};
  auto Alg = buildGemminiMatmulAlgorithm(N, M, K);
  if (!Alg)
    return Alg.error();
  Schedule Sch(*Alg);
  auto R = scheduleAccelMatmul(Sch, Table, K, "gemmini_matmul_old",
                               "gemmini_matmul_exo");
  if (!R)
    return R.error();
  return GemminiMatmulKernels{*Alg, R->PerTile, R->Hoisted, /*AlgStmts=*/5,
                              R->PerTileSteps, R->HoistedSteps};
}

Expected<ir::ProcRef> exo::apps::buildAmxMatmulAlgorithm(int64_t N, int64_t M,
                                                         int64_t K) {
  return parseMatmul("amx_matmul", "R", amxLib().Env, N, M, K);
}

Expected<AmxMatmulKernels> exo::apps::buildAmxMatmul(int64_t N, int64_t M,
                                                     int64_t K) {
  if (N <= 0 || M <= 0 || K <= 0 || N % 16 || M % 16 || K % 16)
    return makeError(Error::Kind::Scheduling,
                     "amx matmul needs positive multiples of 16");
  const auto &HW = amxLib();
  AccelMatmulHW Table{.StageMem = "AMX_TILE", .AccMem = "AMX_TILE",
                      .LoadA = HW.LoadA, .LoadB = HW.LoadB,
                      .Zero = HW.ZeroTile, .Matmul = HW.Tdp16,
                      .Store = HW.StoreAcc,
                      .Configs = {{{HW.CfgLdA, "src_stride", HW.ConfigLdA},
                                   {HW.CfgLdB, "src_stride", HW.ConfigLdB},
                                   {HW.CfgSt, "dst_stride", HW.ConfigSt}}}};
  auto Alg = buildAmxMatmulAlgorithm(N, M, K);
  if (!Alg)
    return Alg.error();
  Schedule Sch(*Alg);
  auto R = scheduleAccelMatmul(Sch, Table, K, "amx_matmul_pertile",
                               "amx_matmul_exo");
  if (!R)
    return R.error();
  return AmxMatmulKernels{*Alg, R->PerTile, R->Hoisted, /*AlgStmts=*/5,
                          R->PerTileSteps, R->HoistedSteps};
}
