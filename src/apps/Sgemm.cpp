//===- apps/Sgemm.cpp ------------------------------------------*- C++ -*-===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "apps/Sgemm.h"

#include "apps/AccelMatmul.h"
#include "hwlibs/avx512/Avx512Lib.h"
#include "scheduling/Schedule.h"

using namespace exo;
using namespace exo::apps;
using namespace exo::ir;
using namespace exo::scheduling;
using hw::avx512::avx512Lib;

Expected<ir::ProcRef> exo::apps::buildSgemmAlgorithm(int64_t M, int64_t N,
                                                     int64_t K) {
  return parseMatmul("sgemm", "f32", avx512Lib().Env, M, N, K);
}

Expected<SgemmKernels> exo::apps::buildSgemm(int64_t M, int64_t N, int64_t K,
                                             int64_t RowTile,
                                             int64_t ColTile) {
  if (M <= 0 || N <= 0 || K <= 0 || RowTile <= 0 || ColTile <= 0 ||
      M % RowTile || N % ColTile || ColTile % 16)
    return makeError(Error::Kind::Scheduling,
                     "sgemm needs M %% RowTile == 0, N %% ColTile == 0, "
                     "ColTile %% 16 == 0");
  const auto &HW = avx512Lib();
  auto Alg = buildSgemmAlgorithm(M, N, K);
  if (!Alg)
    return Alg.error();

  SgemmKernels Out;
  Out.Algorithm = *Alg;
  Out.AlgStmts = 5;

  std::string RT = std::to_string(RowTile), CT = std::to_string(ColTile);
  Schedule S(*Alg);
  // --- Register blocking: RowTile x ColTile of C per micro-kernel
  //     (tile2D = split i; split j; sink ii/ji below k). ---
  S.tile2d("i", RowTile, ColTile, "io", "ii", "jo", "ji",
           SplitTail::Perfect)
      // --- Keep the C tile in vector registers across the K loop. ---
      .stage("for k in _: _", 1,
             "C[" + RT + " * io : " + RT + " * io + " + RT + ", " + CT +
                 " * jo : " + CT + " * jo + " + CT + "]",
             "acc", "AVX512")
      // --- Stage the current B row slice in registers, its copy-in
      //     loop pre-split into 16-lane chunks. ---
      .stageVec("for ii in _: _",
                "B[k, " + CT + " * jo : " + CT + " * jo + " + CT + "]", "bvec",
                "AVX512", 16, "lv", "ll")
      // --- Vector shape: split the remaining lane loops by 16. ---
      // acc zero-init (i0, i1): split the 64-wide inner loop.
      .split("i1 #0", 16, "zv", "zl", SplitTail::Perfect)
      // compute lanes.
      .split("ji", 16, "jv", "jl", SplitTail::Perfect)
      // copy-out (i0, i1): the last i1 loop.
      .split("i1 #0", 16, "sv", "sl", SplitTail::Perfect)
      .simplify()
      // --- Instruction selection. ---
      .replaceWith("for zl in _: _", 1, HW.ZeroPs)
      .replaceWith("for ll in _: _", 1, HW.LoaduPs)
      .replaceWith("for jl in _: _", 1, HW.FmaddBcastPs)
      .replaceWith("for sl in _: _", 1, HW.AccumPs)
      // --- Unroll the register-resident loops so the C compiler keeps the
      //     tile in zmm registers. ---
      .unroll("jv")
      .unroll("ii")
      .unroll("lv")
      .unroll("zv")
      .unroll("sv")
      .simplify()
      .rename("exo_sgemm");
  if (!S)
    return S.error();
  Out.ScheduleSteps = S.steps();
  Out.ExoSgemm = S.take("sgemm schedule");
  return Out;
}
