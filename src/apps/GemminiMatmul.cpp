//===- apps/GemminiMatmul.cpp ----------------------------------*- C++ -*-===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "apps/GemminiMatmul.h"

#include "hwlibs/gemmini/GemminiLib.h"
#include "scheduling/Schedule.h"

using namespace exo;
using namespace exo::apps;
using namespace exo::ir;
using namespace exo::scheduling;
using hw::gemmini::gemminiLib;

namespace {

std::string algorithmSource(int64_t N, int64_t M, int64_t K) {
  auto S = [](int64_t V) { return std::to_string(V); };
  return "@proc\n"
         "def gemmini_matmul(A: R[" + S(N) + ", " + S(K) + "], "
         "B: R[" + S(K) + ", " + S(M) + "], "
         "C: R[" + S(N) + ", " + S(M) + "]):\n"
         "    for i in seq(0, " + S(N) + "):\n"
         "        for j in seq(0, " + S(M) + "):\n"
         "            for k in seq(0, " + S(K) + "):\n"
         "                C[i, j] += A[i, k] * B[k, j]\n";
}

} // namespace

Expected<ir::ProcRef>
exo::apps::buildGemminiMatmulAlgorithm(int64_t N, int64_t M, int64_t K) {
  if (N <= 0 || M <= 0 || K <= 0)
    return makeError(Error::Kind::Scheduling,
                     "gemmini matmul needs positive N, M, K");
  frontend::ParseEnv Env = gemminiLib().Env;
  return frontend::parseProc(algorithmSource(N, M, K), Env);
}

Expected<GemminiMatmulKernels>
exo::apps::buildGemminiMatmul(int64_t N, int64_t M, int64_t K) {
  if (N <= 0 || M <= 0 || K <= 0 || N % 16 || M % 16 || K % 16)
    return makeError(Error::Kind::Scheduling,
                     "gemmini matmul needs positive multiples of 16");
  const auto &HW = gemminiLib();

  frontend::ParseEnv Env = HW.Env; // copy: library names visible
  auto Alg = frontend::parseProc(algorithmSource(N, M, K), Env);
  if (!Alg)
    return Alg.error();

  GemminiMatmulKernels Out;
  Out.Algorithm = *Alg;
  Out.AlgStmts = 5; // signature + 3 loops + 1 reduction

  Schedule Sch(*Alg);
  // --- Tile all three loops by the 16x16 systolic array size: split the
  //     reduction first, then tile2D handles i/j and sinks ii/ji below
  //     ko (loop order io ii jo ji ko ki -> io jo ko ii ji ki). ---
  Sch.split("k", 16, "ko", "ki", SplitTail::Perfect)
      .tile2d("i", 16, 16, "io", "ii", "jo", "ji", SplitTail::Perfect)
      // --- Stage the A row panel once per io strip (reused across all jo
      //     tiles — the data reuse that makes the kernel compute-bound),
      //     its copy shaped into 16-wide mvin chunks. ---
      .stageVec("for jo in _: _",
                "A[16 * io : 16 * io + 16, 0 : " + std::to_string(K) + "]",
                "a_panel", "GEMM_SCRATCH", 16, "lv", "ll")
      // Bring the row loop of the panel copy innermost.
      .reorder("i0")
      .configWriteAt("for lv in _: _", HW.CfgLd1, "src_stride",
                     "stride(A, 0)")
      .replaceWith("for i0 in _: _", 1, HW.LdData)
      // --- Stage the output tile in the accumulator across the ko loop. --
      .stage("for ko in _: _", 1,
             "C[16 * io : 16 * io + 16, 16 * jo : 16 * jo + 16]", "res",
             "GEMM_ACC")
      // --- Stage the B tile into the scratchpad. ---
      .stage("for ii in _: _", 1,
             "B[16 * ko : 16 * ko + 16, 16 * jo : 16 * jo + 16]", "b_tile",
             "GEMM_SCRATCH")
      // --- Instruction selection (replace + unification, §3.4). ---
      // The accumulator zero-init is the first remaining copy loop.
      .replaceWith("for i0 in _: _ #0", 1, HW.ZeroAcc)
      .configWriteAt("for i0 in _: _ #0", HW.CfgLd2, "src_stride",
                     "stride(B, 0)")
      .replaceWith("for i0 in _: _ #0", 1, HW.LdData2)
      // The compute loop nest becomes one systolic-array instruction.
      .replaceWith("for ii in _: _", 1, HW.Matmul16)
      // The copy-out accumulates into C through the store unit.
      .configWriteAt("for i0 in _: _ #0", HW.CfgSt, "dst_stride",
                     "stride(C, 0)")
      .replaceWith("for i0 in _: _ #0", 1, HW.StAcc)
      // Turn the raw configuration writes into configuration instructions.
      .replaceWith("ConfigLd1.src_stride = _", 1, HW.ConfigLd1)
      .replaceWith("ConfigLd2.src_stride = _", 1, HW.ConfigLd2)
      .replaceWith("ConfigSt.dst_stride = _", 1, HW.ConfigSt);
  if (!Sch)
    return Sch.error();

  // This is the Old-lib shape: every tile re-runs its configuration
  // instruction, flushing the accelerator pipeline (§2.4).
  Out.OldLib = renameProc(Sch.proc().take("gemmini matmul schedule"),
                          "gemmini_matmul_old");
  Out.OldLibSteps = Sch.steps() + 1;

  // --- The Exo schedule: hoist all three configuration instructions to
  // the top of the kernel (reorder/fission/remove, all safety-checked). ---
  Sch.hoistToTop("gemmini_config_ld1(_)")
      .hoistToTop("gemmini_config_ld2(_)")
      .hoistToTop("gemmini_config_st(_)");
  if (!Sch)
    return Sch.error();
  Out.ExoLibSteps = Sch.steps() + 1;
  Out.ExoLib = renameProc(Sch.take("gemmini matmul schedule"),
                          "gemmini_matmul_exo");
  return Out;
}
