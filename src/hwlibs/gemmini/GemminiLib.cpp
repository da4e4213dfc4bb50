//===- hwlibs/gemmini/GemminiLib.cpp ---------------------------*- C++ -*-===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "hwlibs/gemmini/GemminiLib.h"

#include "backend/Memory.h"
#include "support/Error.h"

using namespace exo;
using namespace exo::hw::gemmini;

namespace {

/// Scratchpad / accumulator: non-addressable; buffers are dense rows of
/// 16 floats living (in the simulator) in host memory. Allocations
/// register themselves with the simulator's region registry (and
/// deregister on free), so every mvin/matmul/mvout the generated code
/// issues is bounds-checked against live buffers — an out-of-range
/// access raises a structured trap instead of corrupting host memory.
class GemminiMemory : public backend::Memory {
public:
  GemminiMemory(const std::string &Name)
      : backend::Memory(Name, /*Addressable=*/false) {}

  std::string globalCode() const override {
    return "#include \"gemmini_sim.h\"";
  }

  std::string allocCode(const backend::AllocInfo &Info) const override {
    return backend::Memory::allocCode(Info) + " " + trackFn() + "(" +
           Info.Name + ", " + sizeExpr(Info) + ");";
  }

  std::string freeCode(const backend::AllocInfo &Info) const override {
    std::string Untrack = untrackFn() + "(" + Info.Name + ");";
    std::string Free = backend::Memory::freeCode(Info);
    return Free.empty() ? Untrack : Untrack + " " + Free;
  }

private:
  bool isAcc() const { return name() == "GEMM_ACC"; }
  std::string trackFn() const {
    return isAcc() ? "gemmini_acc_track" : "gemmini_spad_track";
  }
  std::string untrackFn() const {
    return isAcc() ? "gemmini_acc_untrack" : "gemmini_spad_untrack";
  }
  static std::string sizeExpr(const backend::AllocInfo &Info) {
    std::string Size;
    for (const std::string &D : Info.DimExprs) {
      if (!Size.empty())
        Size += " * ";
      Size += "(" + D + ")";
    }
    return Size.empty() ? "1" : Size;
  }
};

/// The whole hardware library, written in Exo surface syntax — this is
/// the hw_lib.py of the paper's running example. Every instruction names
/// the simulator header as its C global, so a module that calls one links
/// the simulator even when it allocates no accelerator memory.
const char *GemminiSource = R"x(
@config
class ConfigLd1:
    src_stride : stride

@config
class ConfigLd2:
    src_stride : stride

@config
class ConfigSt:
    dst_stride : stride

@instr("gemmini_config_ld({s});", "#include \"gemmini_sim.h\"")
def gemmini_config_ld1(s: stride):
    ConfigLd1.src_stride = s

@instr("gemmini_config_ld2({s});", "#include \"gemmini_sim.h\"")
def gemmini_config_ld2(s: stride):
    ConfigLd2.src_stride = s

@instr("gemmini_config_st({s});", "#include \"gemmini_sim.h\"")
def gemmini_config_st(s: stride):
    ConfigSt.dst_stride = s

@instr("gemmini_mvin({src}.data, {dst}.data, {dst}.strides[0], {n}, {m});", "#include \"gemmini_sim.h\"")
def gemmini_ld_data(n: size, m: size, src: [R][n, m], dst: [R][n, 16] @ GEMM_SCRATCH):
    assert n <= 16
    assert m <= 16
    assert ConfigLd1.src_stride == stride(src, 0)
    for i in seq(0, n):
        for j in seq(0, m):
            dst[i, j] = src[i, j]

@instr("gemmini_mvin2({src}.data, {dst}.data, {dst}.strides[0], {n}, {m});", "#include \"gemmini_sim.h\"")
def gemmini_ld_data2(n: size, m: size, src: [R][n, m], dst: [R][n, 16] @ GEMM_SCRATCH):
    assert n <= 16
    assert m <= 16
    assert ConfigLd2.src_stride == stride(src, 0)
    for i in seq(0, n):
        for j in seq(0, m):
            dst[i, j] = src[i, j]

@instr("gemmini_zero_acc({c}.data, {c}.strides[0], {n}, {m});", "#include \"gemmini_sim.h\"")
def gemmini_zero_acc_i(n: size, m: size, c: [R][n, 16] @ GEMM_ACC):
    assert n <= 16
    assert m <= 16
    for i in seq(0, n):
        for j in seq(0, m):
            c[i, j] = 0.0

@instr("gemmini_matmul({a}.data, {a}.strides[0], {b}.data, {b}.strides[0], {c}.data, {c}.strides[0], {n}, {m}, {k});", "#include \"gemmini_sim.h\"")
def gemmini_matmul16(n: size, m: size, k: size, a: [R][n, 16] @ GEMM_SCRATCH, b: [R][k, 16] @ GEMM_SCRATCH, c: [R][n, 16] @ GEMM_ACC):
    assert n <= 16
    assert m <= 16
    assert k <= 16
    for i in seq(0, n):
        for j in seq(0, m):
            for kk in seq(0, k):
                c[i, j] += a[i, kk] * b[kk, j]

@instr("gemmini_mvout_acc({dst}.data, {src}.data, {src}.strides[0], {n}, {m});", "#include \"gemmini_sim.h\"")
def gemmini_st_acc(n: size, m: size, src: [R][n, 16] @ GEMM_ACC, dst: [R][n, m]):
    assert n <= 16
    assert m <= 16
    assert ConfigSt.dst_stride == stride(dst, 0)
    for i in seq(0, n):
        for j in seq(0, m):
            dst[i, j] += src[i, j]

@instr("gemmini_mvout_relu({dst}.data, {src}.data, {src}.strides[0], {n}, {m});", "#include \"gemmini_sim.h\"")
def gemmini_st_acc_relu(n: size, m: size, src: [R][n, 16] @ GEMM_ACC, dst: [R][n, m]):
    assert n <= 16
    assert m <= 16
    assert ConfigSt.dst_stride == stride(dst, 0)
    for i in seq(0, n):
        for j in seq(0, m):
            dst[i, j] = max(src[i, j], 0.0)
)x";

GemminiLib *buildLibrary() {
  auto &Registry = backend::MemoryRegistry::instance();
  Registry.add(std::make_shared<GemminiMemory>("GEMM_SCRATCH"));
  Registry.add(std::make_shared<GemminiMemory>("GEMM_ACC"));

  auto *Lib = new GemminiLib();
  auto M = frontend::parseModule(GemminiSource, Lib->Env);
  if (!M)
    fatalError("gemmini library failed to parse: " + M.error().str());

  Lib->CfgLd1 = Lib->Env.findConfig("ConfigLd1");
  Lib->CfgLd2 = Lib->Env.findConfig("ConfigLd2");
  Lib->CfgSt = Lib->Env.findConfig("ConfigSt");
  Lib->ConfigLd1 = Lib->Env.findProc("gemmini_config_ld1");
  Lib->ConfigLd2 = Lib->Env.findProc("gemmini_config_ld2");
  Lib->ConfigSt = Lib->Env.findProc("gemmini_config_st");
  Lib->LdData = Lib->Env.findProc("gemmini_ld_data");
  Lib->LdData2 = Lib->Env.findProc("gemmini_ld_data2");
  Lib->ZeroAcc = Lib->Env.findProc("gemmini_zero_acc_i");
  Lib->Matmul16 = Lib->Env.findProc("gemmini_matmul16");
  Lib->StAcc = Lib->Env.findProc("gemmini_st_acc");
  Lib->StAccRelu = Lib->Env.findProc("gemmini_st_acc_relu");
  return Lib;
}

} // namespace

const GemminiLib &exo::hw::gemmini::gemminiLib() {
  static GemminiLib *Lib = buildLibrary();
  return *Lib;
}
