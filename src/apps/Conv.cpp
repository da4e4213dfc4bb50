//===- apps/Conv.cpp -------------------------------------------*- C++ -*-===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "apps/Conv.h"

#include "apps/GemminiMatmul.h"
#include "hwlibs/avx512/Avx512Lib.h"
#include "hwlibs/gemmini/GemminiLib.h"
#include "scheduling/Schedule.h"

using namespace exo;
using namespace exo::apps;
using namespace exo::ir;
using namespace exo::scheduling;

namespace {

std::string S(int64_t V) { return std::to_string(V); }

/// NHWC conv2d, fused ReLU as a final pass over the output.
std::string convSource(const ConvShape &C, bool WithRelu) {
  std::string OH = S(C.oh()), OW = S(C.ow());
  std::string Src =
      "@proc\n"
      "def conv(x: f32[" + S(C.N) + ", " + S(C.H) + ", " + S(C.W) + ", " +
      S(C.IC) + "], "
      "w: f32[" + S(C.KH) + ", " + S(C.KW) + ", " + S(C.IC) + ", " +
      S(C.OC) + "], "
      "y: f32[" + S(C.N) + ", " + OH + ", " + OW + ", " + S(C.OC) + "]):\n"
      "    for n in seq(0, " + S(C.N) + "):\n"
      "        for oh in seq(0, " + OH + "):\n"
      "            for ow in seq(0, " + OW + "):\n"
      "                for kh in seq(0, " + S(C.KH) + "):\n"
      "                    for kw in seq(0, " + S(C.KW) + "):\n"
      "                        for ic in seq(0, " + S(C.IC) + "):\n"
      "                            for oc in seq(0, " + S(C.OC) + "):\n"
      "                                y[n, oh, ow, oc] += "
      "x[n, oh + kh, ow + kw, ic] * w[kh, kw, ic, oc]\n";
  if (WithRelu)
    Src += "    for n2 in seq(0, " + S(C.N) + "):\n"
           "        for oh2 in seq(0, " + OH + "):\n"
           "            for ow2 in seq(0, " + OW + "):\n"
           "                for oc2 in seq(0, " + S(C.OC) + "):\n"
           "                    y[n2, oh2, ow2, oc2] = "
           "max(y[n2, oh2, ow2, oc2], 0.0)\n";
  return Src;
}

} // namespace

Expected<ir::ProcRef> exo::apps::buildConvX86Algorithm(const ConvShape &Shape) {
  frontend::ParseEnv Env = hw::avx512::avx512Lib().Env;
  return frontend::parseProc(convSource(Shape, /*WithRelu=*/true), Env);
}

Expected<ir::ProcRef>
exo::apps::buildConvGemminiAlgorithm(const ConvShape &Shape) {
  frontend::ParseEnv Env = hw::gemmini::gemminiLib().Env;
  return frontend::parseProc(convSource(Shape, /*WithRelu=*/false), Env);
}

Expected<ConvKernels> exo::apps::buildConvX86(const ConvShape &Shape) {
  if (Shape.OC % 16)
    return makeError(Error::Kind::Scheduling, "conv x86 needs OC % 16 == 0");
  const auto &HW = hw::avx512::avx512Lib();
  auto Alg = buildConvX86Algorithm(Shape);
  if (!Alg)
    return Alg.error();

  ConvKernels Out;
  Out.Algorithm = *Alg;
  Out.AlgStmts = 13;

  Schedule Sch(*Alg);
  // Keep the output-channel row in vector registers across the 3x3xIC
  // accumulation.
  Sch.stage("for kh in _: _", 1, "y[n, oh, ow, 0 : " + S(Shape.OC) + "]",
            "acc", "AVX512")
      // Vector shape for the accumulation, zero-init, and copy-out loops.
      .split("oc", 16, "ov", "ol", SplitTail::Perfect)
      .split("i0 #0", 16, "zv", "zl", SplitTail::Perfect)
      .split("i0 #0", 16, "sv", "sl", SplitTail::Perfect)
      .simplify()
      // Instruction selection.
      .replaceWith("for zl in _: _", 1, HW.ZeroPs)
      .replaceWith("for ol in _: _", 1, HW.FmaddBcastPs)
      .replaceWith("for sl in _: _", 1, HW.AccumPs)
      // Fused-ReLU pass: vectorize in place.
      .split("oc2", 16, "rv", "rl", SplitTail::Perfect)
      .simplify()
      .replaceWith("for rl in _: _", 1, HW.ReluPs)
      // Unroll the vector loops of the inner kernel.
      .unroll("ov")
      .simplify()
      .rename("exo_conv_x86");
  if (!Sch)
    return Sch.error();
  Out.ScheduleSteps = Sch.steps();
  Out.Scheduled = Sch.take("conv x86 schedule");
  return Out;
}

Expected<ConvKernels> exo::apps::buildConvGemmini(const ConvShape &Shape,
                                                  int64_t RowTile) {
  if (Shape.OC % 16 || Shape.IC % 16)
    return makeError(Error::Kind::Scheduling,
                     "conv gemmini needs OC, IC % 16 == 0");
  if (RowTile <= 0 || RowTile > 16 || Shape.ow() % RowTile)
    return makeError(Error::Kind::Scheduling,
                     "conv gemmini needs ow() divisible by RowTile <= 16");
  const auto &HW = hw::gemmini::gemminiLib();
  auto Alg = buildConvGemminiAlgorithm(Shape);
  if (!Alg)
    return Alg.error();

  ConvKernels Out;
  Out.Algorithm = *Alg;
  Out.AlgStmts = 9;

  std::string TW = S(RowTile);

  Schedule Sch(*Alg);
  // Tile output rows (pixels along ow) and both channel dimensions.
  Sch.split("ow", RowTile, "owo", "owi", SplitTail::Perfect)
      .split("oc", 16, "oco", "oci", SplitTail::Perfect)
      .split("ic", 16, "ico", "ici", SplitTail::Perfect)
      // Order after the splits: n, oh, owo, owi, kh, kw, ico, ici, oco,
      // oci. Target: n, oh, owo, kh, kw, ico, oco, owi, oci, ici — the
      // kernel window and input-channel loops enclose the output channels,
      // so the staged input patch is reused across every oco tile (the
      // data reuse the paper's conv schedule exploits).
      .reorder("ici") // ici <-> oco
      .reorder("ici") // ici <-> oci
      .reorder("owi") // owi <-> kh
      .reorder("owi") // owi <-> kw
      .reorder("owi") // owi <-> ico
      .reorder("owi") // owi <-> oco
      .simplify()
      // Stage the full-width output row strip (RowTile x OC) in the
      // accumulator across the kernel window.
      .stage("for kh in _: _", 1,
             "y[n, oh, " + TW + " * owo : " + TW + " * owo + " + TW +
                 ", 0 : " + S(Shape.OC) + "]",
             "res", "GEMM_ACC")
      // Stage the input patch once per (kh, kw, ic-tile) — outside the
      // oco loop — and the weight tile per oco tile.
      .stage("for oco in _: _", 1,
             "x[n, oh + kh, " + TW + " * owo + kw : " + TW +
                 " * owo + kw + " + TW + ", 16 * ico : 16 * ico + 16]",
             "xp", "GEMM_SCRATCH")
      .stage("for owi in _: _", 1,
             "w[kh, kw, 16 * ico : 16 * ico + 16, "
             "16 * oco : 16 * oco + 16]",
             "wt", "GEMM_SCRATCH")
      // Shape the accumulator zero-init into 16-wide strips: split its
      // column loop and bring the strip loop outermost.
      .split("i1 #0", 16, "zv", "zl", SplitTail::Perfect)
      .reorder("i0 #0")
      .replaceWith("for i0 in _: _ #0", 1, HW.ZeroAcc)
      // Loads: channel 1 for the input patch, channel 2 for the weights.
      .configWriteAt("for i0 in _: _ #0", HW.CfgLd1, "src_stride",
                     "stride(x, 2)")
      .replaceWith("for i0 in _: _ #0", 1, HW.LdData)
      .configWriteAt("for i0 in _: _ #0", HW.CfgLd2, "src_stride",
                     "stride(w, 2)")
      .replaceWith("for i0 in _: _ #0", 1, HW.LdData2)
      .replaceWith("for owi in _: _", 1, HW.Matmul16)
      // Copy-out in 16-wide strips through the store unit.
      .split("i1 #0", 16, "sv", "sl", SplitTail::Perfect)
      .reorder("i0 #0")
      .configWriteAt("for i0 in _: _ #0", HW.CfgSt, "dst_stride",
                     "stride(y, 2)")
      .replaceWith("for i0 in _: _ #0", 1, HW.StAcc);
  ConfigChannels Configs = gemminiConfigChannels();
  if (!replaceConfigWrites(Sch, Configs))
    return Sch.error();
  Out.OldLib = renameProc(*Sch.proc(), "gemmini_conv_old");

  // Hoist all configuration to the top (the Exo schedule).
  if (!hoistConfigs(Sch, Configs).rename("gemmini_conv_exo"))
    return Sch.error();
  Out.ScheduleSteps = Sch.steps();
  Out.Scheduled = Sch.take("conv gemmini schedule");
  return Out;
}
