//===- hwlibs/amx/AmxLib.cpp -----------------------------------*- C++ -*-===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "hwlibs/amx/AmxLib.h"

#include "backend/Memory.h"
#include "support/Error.h"

using namespace exo;
using namespace exo::hw::amx;

namespace {

/// Tile-register file: non-addressable; tiles are dense rows of 16
/// floats living (in the simulator) in host memory. Allocations register
/// themselves with the simulator's region registry (and deregister on
/// free), so every tileload/tdp/tilestore the generated code issues is
/// bounds-checked against live tiles — an out-of-range access raises a
/// structured trap instead of corrupting host memory.
class AmxTileMemory : public backend::Memory {
public:
  AmxTileMemory() : backend::Memory("AMX_TILE", /*Addressable=*/false) {}

  std::string globalCode() const override { return "#include \"amx_sim.h\""; }

  std::string allocCode(const backend::AllocInfo &Info) const override {
    return backend::Memory::allocCode(Info) + " amx_tile_track(" + Info.Name +
           ", " + sizeExpr(Info) + ");";
  }

  std::string freeCode(const backend::AllocInfo &Info) const override {
    std::string Untrack = "amx_tile_untrack(" + Info.Name + ");";
    std::string Free = backend::Memory::freeCode(Info);
    return Free.empty() ? Untrack : Untrack + " " + Free;
  }

private:
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

/// The whole hardware library, written in Exo surface syntax. Real AMX
/// passes strides in every tileloadd; the model keeps them in config
/// state so there is configuration cost for schedules to hoist. Every
/// instruction names the simulator header as its C global, as in the
/// Gemmini library.
const char *AmxSource = R"x(
@config
class AmxCfgLdA:
    src_stride : stride

@config
class AmxCfgLdB:
    src_stride : stride

@config
class AmxCfgSt:
    dst_stride : stride

@instr("amx_config_ld_a({s});", "#include \"amx_sim.h\"")
def amx_config_ld_a(s: stride):
    AmxCfgLdA.src_stride = s

@instr("amx_config_ld_b({s});", "#include \"amx_sim.h\"")
def amx_config_ld_b(s: stride):
    AmxCfgLdB.src_stride = s

@instr("amx_config_st({s});", "#include \"amx_sim.h\"")
def amx_config_st(s: stride):
    AmxCfgSt.dst_stride = s

@instr("amx_tile_load_a({src}.data, {dst}.data, {dst}.strides[0], {n}, {m});", "#include \"amx_sim.h\"")
def amx_ld_tile_a(n: size, m: size, src: [R][n, m], dst: [R][n, 16] @ AMX_TILE):
    assert n <= 16
    assert m <= 16
    assert AmxCfgLdA.src_stride == stride(src, 0)
    for i in seq(0, n):
        for j in seq(0, m):
            dst[i, j] = src[i, j]

@instr("amx_tile_load_b({src}.data, {dst}.data, {dst}.strides[0], {n}, {m});", "#include \"amx_sim.h\"")
def amx_ld_tile_b(n: size, m: size, src: [R][n, m], dst: [R][n, 16] @ AMX_TILE):
    assert n <= 16
    assert m <= 16
    assert AmxCfgLdB.src_stride == stride(src, 0)
    for i in seq(0, n):
        for j in seq(0, m):
            dst[i, j] = src[i, j]

@instr("amx_tile_zero({t}.data, {t}.strides[0], {n}, {m});", "#include \"amx_sim.h\"")
def amx_zero_tile(n: size, m: size, t: [R][n, 16] @ AMX_TILE):
    assert n <= 16
    assert m <= 16
    for i in seq(0, n):
        for j in seq(0, m):
            t[i, j] = 0.0

@instr("amx_tile_dp({a}.data, {a}.strides[0], {b}.data, {b}.strides[0], {c}.data, {c}.strides[0], {n}, {m}, {k});", "#include \"amx_sim.h\"")
def amx_tdp16(n: size, m: size, k: size, a: [R][n, 16] @ AMX_TILE, b: [R][k, 16] @ AMX_TILE, c: [R][n, 16] @ AMX_TILE):
    assert n <= 16
    assert m <= 16
    assert k <= 16
    for i in seq(0, n):
        for j in seq(0, m):
            for kk in seq(0, k):
                c[i, j] += a[i, kk] * b[kk, j]

@instr("amx_tile_store_acc({dst}.data, {src}.data, {src}.strides[0], {n}, {m});", "#include \"amx_sim.h\"")
def amx_st_tile_acc(n: size, m: size, src: [R][n, 16] @ AMX_TILE, dst: [R][n, m]):
    assert n <= 16
    assert m <= 16
    assert AmxCfgSt.dst_stride == stride(dst, 0)
    for i in seq(0, n):
        for j in seq(0, m):
            dst[i, j] += src[i, j]
)x";

AmxLib *buildLibrary() {
  backend::MemoryRegistry::instance().add(std::make_shared<AmxTileMemory>());

  auto *Lib = new AmxLib();
  auto M = frontend::parseModule(AmxSource, Lib->Env);
  if (!M)
    fatalError("amx library failed to parse: " + M.error().str());

  Lib->CfgLdA = Lib->Env.findConfig("AmxCfgLdA");
  Lib->CfgLdB = Lib->Env.findConfig("AmxCfgLdB");
  Lib->CfgSt = Lib->Env.findConfig("AmxCfgSt");
  Lib->ConfigLdA = Lib->Env.findProc("amx_config_ld_a");
  Lib->ConfigLdB = Lib->Env.findProc("amx_config_ld_b");
  Lib->ConfigSt = Lib->Env.findProc("amx_config_st");
  Lib->LoadA = Lib->Env.findProc("amx_ld_tile_a");
  Lib->LoadB = Lib->Env.findProc("amx_ld_tile_b");
  Lib->ZeroTile = Lib->Env.findProc("amx_zero_tile");
  Lib->Tdp16 = Lib->Env.findProc("amx_tdp16");
  Lib->StoreAcc = Lib->Env.findProc("amx_st_tile_acc");
  return Lib;
}

} // namespace

const AmxLib &exo::hw::amx::amxLib() {
  static AmxLib *Lib = buildLibrary();
  return *Lib;
}
