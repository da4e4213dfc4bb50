//===- tuning/SearchSpace.cpp ----------------------------------*- C++ -*-===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "tuning/SearchSpace.h"

#include "apps/GemminiMatmul.h"
#include "apps/Sgemm.h"
#include "scheduling/Schedule.h"

using namespace exo;
using namespace exo::testing;
using namespace exo::tuning;

namespace {

ScheduleStep step(std::string Op, std::vector<std::string> Args) {
  return ScheduleStep{std::move(Op), std::move(Args)};
}

std::string num(int64_t V) { return std::to_string(V); }

/// The Gemmini matmul schedule skeleton with its knobs exposed: tile
/// factor F, whether to stage the A panel / C tile / B tile, and whether
/// to hoist the configuration instructions. WithStages and WithHoist at
/// F == 16 is exactly the hand-written ExoLib pipeline (apps/AccelMatmul's
/// schedule over Gemmini's table; TuningTest's
/// SeedWithStagesAndHoistIsTheHandwrittenSchedule checks the generated C);
/// everything else is a deliberately weaker or outright inapplicable
/// neighbor the search must price.
std::vector<ScheduleStep> gemminiTemplate(const KernelShape &S, int64_t F,
                                          bool WithStages, bool WithHoist) {
  std::vector<ScheduleStep> T;
  // Same named procedures the hand-written pipeline composes: split the
  // reduction, then tile2d handles i/j and sinks ii/ji below ko.
  T.push_back(step("split", {"k", num(F), "ko", "ki", "perfect"}));
  T.push_back(step("tile2d",
                   {"i", num(F), num(F), "io", "ii", "jo", "ji", "perfect"}));
  if (!WithStages)
    return T;
  T.push_back(step("stage_vec", {"for jo in _: _",
                                 "A[" + num(F) + " * io : " + num(F) +
                                     " * io + " + num(F) + ", 0 : " +
                                     num(S.K) + "]",
                                 "a_panel", "GEMM_SCRATCH", num(F), "lv",
                                 "ll"}));
  T.push_back(step("reorder", {"i0"}));
  T.push_back(step("config_write", {"for lv in _: _", "gemmini:cfg_ld1",
                                    "src_stride", "stride(A, 0)"}));
  T.push_back(step("replace", {"for i0 in _: _", "1", "gemmini:ld_data"}));
  T.push_back(step("stage", {"for ko in _: _", "1",
                             "C[" + num(F) + " * io : " + num(F) +
                                 " * io + " + num(F) + ", " + num(F) +
                                 " * jo : " + num(F) + " * jo + " + num(F) +
                                 "]",
                             "res", "GEMM_ACC"}));
  T.push_back(step("stage", {"for ii in _: _", "1",
                             "B[" + num(F) + " * ko : " + num(F) +
                                 " * ko + " + num(F) + ", " + num(F) +
                                 " * jo : " + num(F) + " * jo + " + num(F) +
                                 "]",
                             "b_tile", "GEMM_SCRATCH"}));
  T.push_back(step("replace", {"for i0 in _: _ #0", "1", "gemmini:zero_acc"}));
  T.push_back(step("config_write", {"for i0 in _: _ #0", "gemmini:cfg_ld2",
                                    "src_stride", "stride(B, 0)"}));
  T.push_back(step("replace", {"for i0 in _: _ #0", "1", "gemmini:ld_data2"}));
  T.push_back(step("replace", {"for ii in _: _", "1", "gemmini:matmul16"}));
  T.push_back(step("config_write", {"for i0 in _: _ #0", "gemmini:cfg_st",
                                    "dst_stride", "stride(C, 0)"}));
  T.push_back(step("replace", {"for i0 in _: _ #0", "1", "gemmini:st_acc"}));
  T.push_back(step("replace",
                   {"ConfigLd1.src_stride = _", "1", "gemmini:config_ld1"}));
  T.push_back(step("replace",
                   {"ConfigLd2.src_stride = _", "1", "gemmini:config_ld2"}));
  T.push_back(
      step("replace", {"ConfigSt.dst_stride = _", "1", "gemmini:config_st"}));
  if (!WithHoist)
    return T;
  T.push_back(step("hoist", {"gemmini_config_ld1(_)"}));
  T.push_back(step("hoist", {"gemmini_config_ld2(_)"}));
  T.push_back(step("hoist", {"gemmini_config_st(_)"}));
  return T;
}

/// AVX-512 sgemm seeds: plain tiling skeletons at a few factors. No
/// hand-written baseline is wired up here — wall-clock search over the
/// scheduling space is the point, not reproducing Fig. 5 exactly.
std::vector<std::vector<ScheduleStep>> sgemmSeeds() {
  std::vector<std::vector<ScheduleStep>> Seeds;
  Seeds.push_back({});
  for (int64_t F : {8, 16}) {
    std::vector<ScheduleStep> T;
    T.push_back(step("split", {"j", F == 8 ? "8" : "16", "jo", "ji",
                               "perfect"}));
    T.push_back(step("split", {"i", "4", "io", "ii", "perfect"}));
    T.push_back(step("reorder", {"ii"}));
    T.push_back(step("simplify", {}));
    Seeds.push_back(std::move(T));
  }
  return Seeds;
}

} // namespace

std::vector<std::string> exo::tuning::tunableKernels() {
  return {"gemmini_matmul", "sgemm"};
}

Expected<SearchSpace>
exo::tuning::buildSearchSpace(const std::string &Kernel,
                              const KernelShape &Shape) {
  SearchSpace Out;
  Out.Kernel = Kernel;
  Out.Shape = Shape;

  if (Kernel == "gemmini_matmul") {
    auto Alg = apps::buildGemminiMatmulAlgorithm(Shape.N, Shape.M, Shape.K);
    if (!Alg)
      return Alg.error();
    // The bare algorithm name collides with the simulator runtime's own
    // gemmini_matmul() helper once a candidate links gemmini_sim; tuner
    // clones get their own symbol (the apps layer does the same with its
    // _old/_exo suffixes).
    Out.Algorithm = scheduling::renameProc(*Alg, "gemmini_matmul_tuned");
    auto HW = apps::buildGemminiMatmul(Shape.N, Shape.M, Shape.K);
    if (!HW)
      return HW.error();
    // Under the algorithm's symbol, the F == 16 seed with stages and hoist
    // generates this baseline's C byte for byte, so one batch scores both
    // in one entry.
    Out.Handwritten =
        scheduling::renameProc(HW->ExoLib, Out.Algorithm->name());
    Out.Seeds.push_back({}); // the unscheduled algorithm itself
    for (int64_t F : {8, 16, 32}) {
      Out.Seeds.push_back(gemminiTemplate(Shape, F, false, false));
      Out.Seeds.push_back(gemminiTemplate(Shape, F, true, false));
      Out.Seeds.push_back(gemminiTemplate(Shape, F, true, true));
    }
    return Out;
  }

  if (Kernel == "sgemm") {
    auto Alg = apps::buildSgemmAlgorithm(Shape.N, Shape.M, Shape.K);
    if (!Alg)
      return Alg.error();
    Out.Algorithm = *Alg;
    Out.Seeds = sgemmSeeds();
    return Out;
  }

  return makeError(Error::Kind::Parse,
                   "unknown tunable kernel '" + Kernel +
                       "' (known: gemmini_matmul, sgemm)");
}
