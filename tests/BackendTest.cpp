//===- tests/BackendTest.cpp - Execution backend tests ---------*- C++ -*-===//
//
// Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
//
//===----------------------------------------------------------------------===//
//
// Tests for the pluggable execution backend API (src/backend/Backend.h):
// the registry and capability flags, source byte-identity between the
// csource and jit backends (and against raw generateC), a csource-vs-jit
// differential over the pinned fuzz corpus, the JIT module cache
// counters, in-process trap containment via the simulator fault hook,
// simulator state kept private to each module, the region registry reset
// before every call, instruction globals that link the simulator, the
// AMX and Gemmini matmul case studies end-to-end through both backends,
// compiles under paths with spaces, the JIT's split of a module into
// translation units (grouping, unit failures, a split fuzz block), and
// the simulator objects' float results, bit for bit.
//
//===----------------------------------------------------------------------===//

#include "backend/Backend.h"
#include "backend/BackendImpl.h"

#include "WideModule.h"
#include "amx_sim.h"
#include "apps/AmxMatmul.h"
#include "apps/GemminiMatmul.h"
#include "driver/KernelSuite.h"
#include "frontend/Parser.h"
#include "gemmini_sim.h"
#include "hwlibs/gemmini/GemminiLib.h"
#include "support/TempDir.h"
#include "testing/Corpus.h"
#include "testing/Fuzzer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <cstdlib>
#include <filesystem>
#include <thread>
#include <vector>

using namespace exo;
using namespace exo::backend;
using namespace exo::ir;
// Not `using namespace exo::testing`: gtest owns ::testing.
namespace ftest = exo::testing;

#ifndef EXO_SOURCE_DIR
#define EXO_SOURCE_DIR "."
#endif

namespace {

ProcRef mustParse(const std::string &Src) {
  frontend::ParseEnv Env;
  auto P = frontend::parseProc(Src, Env);
  if (!P)
    fatalError("test parse failed: " + P.error().str());
  return *P;
}

/// A tiny executable kernel: B[i] = A[i] + 1.
ProcRef addOneProc(const std::string &Name = "add_one") {
  return mustParse("@proc\n"
                   "def " + Name + "(A: R[8], B: R[8]):\n"
                   "    for i in seq(0, 8):\n"
                   "        B[i] = A[i] + 1.0\n");
}

/// Host-side fault hook handed to a module's simulator copy; returning
/// nonzero makes the next accelerator instruction raise INJECTED.
extern "C" int exoTestAlwaysFault() { return 1; }

/// Parses \p Src against the Gemmini hardware library.
ProcRef mustParseGemmini(const std::string &Src) {
  frontend::ParseEnv Env = hw::gemmini::gemminiLib().Env;
  auto P = frontend::parseProc(Src, Env);
  if (!P)
    fatalError("test parse failed: " + P.error().str());
  return *P;
}

} // namespace

//===----------------------------------------------------------------------===//
// Registry
//===----------------------------------------------------------------------===//

TEST(BackendRegistry, BuiltinsRegisteredWithExpectedCaps) {
  Backend *Cs = findBackend("csource");
  Backend *Jit = findBackend("jit");
  ASSERT_NE(Cs, nullptr);
  ASSERT_NE(Jit, nullptr);
  EXPECT_EQ(Cs->name(), "csource");
  EXPECT_EQ(Jit->name(), "jit");

  EXPECT_TRUE(Cs->caps() & CapCanExecute);
  EXPECT_TRUE(Cs->caps() & CapTrapContainment);
  EXPECT_FALSE(Cs->caps() & CapInProcess); // spawns a child per call

  EXPECT_TRUE(Jit->caps() & CapCanExecute);
  EXPECT_TRUE(Jit->caps() & CapInProcess);
  EXPECT_TRUE(Jit->caps() & CapTrapContainment);

  EXPECT_EQ(findBackend("no-such-backend"), nullptr);

  std::vector<Backend *> All = allBackends();
  EXPECT_NE(std::find(All.begin(), All.end(), Cs), All.end());
  EXPECT_NE(std::find(All.begin(), All.end(), Jit), All.end());
}

//===----------------------------------------------------------------------===//
// Lowering: source identity and entry metadata
//===----------------------------------------------------------------------===//

TEST(BackendLower, SourceIsByteIdenticalAcrossBackendsAndGenerateC) {
  ProcRef P = addOneProc();
  auto Raw = generateC(P);
  ASSERT_TRUE(bool(Raw)) << Raw.error().str();

  auto Cs = csourceBackend().lower(P);
  ASSERT_TRUE(bool(Cs)) << Cs.error().str();
  auto Jit = jitBackend().lower(P);
  ASSERT_TRUE(bool(Jit)) << Jit.error().str();

  // The contract behind the golden snapshots: lower() never perturbs the
  // generated C. JIT trampolines go only into the compiled artifact.
  EXPECT_EQ((*Cs)->source(), *Raw);
  EXPECT_EQ((*Jit)->source(), *Raw);
  EXPECT_EQ((*Cs)->hash(), (*Jit)->hash());

  ASSERT_EQ((*Jit)->entries().size(), 1u);
  const EntryInfo *E = (*Jit)->findEntry("add_one");
  ASSERT_NE(E, nullptr);
  EXPECT_TRUE(E->Executable);
  EXPECT_EQ(E->Args.size(), 2u);
  EXPECT_EQ((*Jit)->findEntry("missing"), nullptr);
}

TEST(BackendLower, WindowArgumentEntriesAreNotExecutable) {
  ProcRef P = mustParse(R"(
@proc
def zero(n: size, v: [R][n]):
    for i in seq(0, n):
        v[i] = 0.0
)");
  auto M = jitBackend().lower(P);
  ASSERT_TRUE(bool(M)) << M.error().str();
  const EntryInfo *E = (*M)->findEntry("zero");
  ASSERT_NE(E, nullptr);
  EXPECT_FALSE(E->Executable);

  BufferSet Args; // execute() must refuse before touching the arguments
  ExecStatus S = jitBackend().execute(**M, "zero", Args);
  EXPECT_EQ(S.Kind, ExecKind::Unsupported);
}

TEST(BackendLower, DuplicateEntryNamesAreRejected) {
  ProcRef A = addOneProc();
  ProcRef B = addOneProc(); // distinct proc, same C symbol
  auto M = csourceBackend().lower({A, B});
  ASSERT_FALSE(bool(M));
  EXPECT_NE(M.error().message().find("duplicate entry name"),
            std::string::npos)
      << M.error().str();
}

//===----------------------------------------------------------------------===//
// Execution: both backends, bit-identical results
//===----------------------------------------------------------------------===//

TEST(BackendExec, SimpleKernelBitIdenticalAcrossBackends) {
  ProcRef P = addOneProc();
  float In[8] = {0, 1, 2, 3, -4, 5.5f, -6.25f, 7};

  std::vector<std::vector<float>> Outs;
  for (Backend *BE : {static_cast<Backend *>(&csourceBackend()),
                      static_cast<Backend *>(&jitBackend())}) {
    auto M = BE->lower(P);
    ASSERT_TRUE(bool(M)) << BE->name() << ": " << M.error().str();
    std::vector<float> A(In, In + 8), B(8, -1.0f);
    BufferSet Args = {RunArg::buffer(A.data(), A.size() * sizeof(float)),
                      RunArg::buffer(B.data(), B.size() * sizeof(float))};
    ExecStatus S = BE->execute(**M, "add_one", Args);
    ASSERT_TRUE(S.ok()) << BE->name() << ": " << execKindName(S.Kind) << ": "
                        << S.Detail;
    Outs.push_back(B);
  }
  ASSERT_EQ(Outs.size(), 2u);
  EXPECT_EQ(0, std::memcmp(Outs[0].data(), Outs[1].data(), 8 * sizeof(float)));
  for (int I = 0; I < 8; ++I)
    EXPECT_EQ(Outs[1][I], In[I] + 1.0f);
}

TEST(BackendExec, ArgumentCountMismatchIsAnError) {
  ProcRef P = addOneProc();
  auto M = jitBackend().lower(P);
  ASSERT_TRUE(bool(M)) << M.error().str();
  BufferSet Args = {RunArg::control(3)};
  ExecStatus S = jitBackend().execute(**M, "add_one", Args);
  EXPECT_EQ(S.Kind, ExecKind::Error);
  ExecStatus S2 = jitBackend().execute(**M, "nope", Args);
  EXPECT_EQ(S2.Kind, ExecKind::Error);
}

//===----------------------------------------------------------------------===//
// Differential: pinned corpus and the kernel suite across backends
//===----------------------------------------------------------------------===//

TEST(BackendDifferential, PinnedCorpusAgreesAcrossBackends) {
  std::string Dir = EXO_SOURCE_DIR "/tests/corpus";
  ASSERT_TRUE(std::filesystem::is_directory(Dir));
  std::vector<std::string> Files;
  for (const auto &E : std::filesystem::directory_iterator(Dir))
    if (E.path().extension() == ".fuzz")
      Files.push_back(E.path().string());
  std::sort(Files.begin(), Files.end());
  ASSERT_GE(Files.size(), 20u);

  std::vector<ftest::OracleCase> Cases;
  for (const std::string &F : Files) {
    auto Case = ftest::readCorpusFile(F);
    ASSERT_TRUE(Case) << F << ": " << Case.error().str();
    auto OC = ftest::materializeCorpus(*Case);
    ASSERT_TRUE(OC) << F << ": " << OC.error().str();
    Cases.push_back(*OC);
  }

  std::vector<std::vector<ftest::OracleOutcome>> PerBackend;
  for (const char *Name : {"csource", "jit"}) {
    ftest::OracleOptions O;
    O.Backend = Name;
    auto Out = ftest::runOracle(Cases, O);
    ASSERT_TRUE(Out) << Name << ": " << Out.error().str();
    PerBackend.push_back(*Out);
  }
  for (size_t I = 0; I < Cases.size(); ++I) {
    EXPECT_TRUE(PerBackend[0][I].ok())
        << Files[I] << " (csource): "
        << ftest::oracleStatusName(PerBackend[0][I].Status) << ": "
        << PerBackend[0][I].Detail;
    EXPECT_EQ(PerBackend[0][I].Status, PerBackend[1][I].Status)
        << Files[I] << ": csource vs jit disagree: "
        << ftest::oracleStatusName(PerBackend[0][I].Status) << " vs "
        << ftest::oracleStatusName(PerBackend[1][I].Status) << ": "
        << PerBackend[1][I].Detail;
  }
}

TEST(BackendDifferential, SuiteKernelsLowerIdenticallyInBothBackends) {
  std::vector<std::string> Names = driver::referenceNames();
  ASSERT_GE(Names.size(), 7u); // six paper kernels + amx_matmul
  for (const std::string &Name : Names) {
    auto Procs = driver::buildReference(Name);
    ASSERT_TRUE(bool(Procs)) << Name << ": " << Procs.error().str();
    auto Cs = csourceBackend().lower(*Procs);
    ASSERT_TRUE(bool(Cs)) << Name << ": " << Cs.error().str();
    auto Jit = jitBackend().lower(*Procs);
    ASSERT_TRUE(bool(Jit)) << Name << ": " << Jit.error().str();
    EXPECT_EQ((*Cs)->source(), (*Jit)->source()) << Name;
    EXPECT_EQ((*Cs)->hash(), (*Jit)->hash()) << Name;
  }
}

//===----------------------------------------------------------------------===//
// JIT module cache
//===----------------------------------------------------------------------===//

TEST(JitCache, HitsAndEvictionsAreCounted) {
  JitBackend &BE = jitBackend();
  JitBackend::clearCache();
  JitBackend::resetCacheStats();

  ProcRef P = addOneProc("cache_probe");
  float Buf[8] = {0};
  auto runOnce = [&]() {
    auto M = BE.lower(P); // fresh LoweredModule, same content hash
    ASSERT_TRUE(bool(M)) << M.error().str();
    std::vector<float> A(8, 1.0f), B(8, 0.0f);
    BufferSet Args = {RunArg::buffer(A.data(), sizeof(Buf)),
                      RunArg::buffer(B.data(), sizeof(Buf))};
    ExecStatus S = BE.execute(**M, "cache_probe", Args);
    ASSERT_TRUE(S.ok()) << S.Detail;
  };
  runOnce();
  runOnce();
  JitBackend::CacheStats St = JitBackend::cacheStats();
  EXPECT_EQ(St.Compiles, 1u); // second run was a content-hash hit
  EXPECT_GE(St.Hits, 1u);

  // Shrink the cache to one slot and compile two distinct modules: the
  // first must be LRU-evicted.
  JitBackend::setCacheCapacity(1);
  for (const char *Name : {"evict_a", "evict_b"}) {
    ProcRef Q = addOneProc(Name);
    auto M = BE.lower(Q);
    ASSERT_TRUE(bool(M)) << M.error().str();
    std::vector<float> A(8, 0.0f), B(8, 0.0f);
    BufferSet Args = {RunArg::buffer(A.data(), sizeof(Buf)),
                      RunArg::buffer(B.data(), sizeof(Buf))};
    ASSERT_TRUE(BE.execute(**M, Name, Args).ok());
  }
  St = JitBackend::cacheStats();
  EXPECT_GE(St.Evictions, 1u);
  JitBackend::setCacheCapacity(64); // restore the default for later tests
}

TEST(JitCache, CacheSaltPartitionsTenantsInTheModuleCache) {
  JitBackend &BE = jitBackend();
  JitBackend::clearCache();
  JitBackend::resetCacheStats();

  ProcRef P = addOneProc("salted_probe");

  LowerOptions Unsalted;
  LowerOptions TenantA;
  TenantA.CacheSalt = "tenant-a";
  LowerOptions TenantB;
  TenantB.CacheSalt = "tenant-b";

  auto M0 = BE.lower(P, Unsalted);
  auto MA = BE.lower(P, TenantA);
  auto MB = BE.lower(P, TenantB);
  ASSERT_TRUE(bool(M0)) << M0.error().str();
  ASSERT_TRUE(bool(MA)) << MA.error().str();
  ASSERT_TRUE(bool(MB)) << MB.error().str();

  // Same byte-identical C under every salt ...
  EXPECT_EQ((*M0)->source(), (*MA)->source());
  EXPECT_EQ((*MA)->source(), (*MB)->source());

  // ... but pairwise-distinct content hashes: the cache key includes the
  // tenant, so an unloaded module can never be resurrected for a
  // different tenant by content-hash collision.
  EXPECT_NE((*M0)->hash(), (*MA)->hash());
  EXPECT_NE((*M0)->hash(), (*MB)->hash());
  EXPECT_NE((*MA)->hash(), (*MB)->hash());

  // The empty salt preserves the legacy plain-source hash — golden
  // snapshots and the cross-backend hash equality above depend on it.
  auto Cs = csourceBackend().lower(P);
  ASSERT_TRUE(bool(Cs)) << Cs.error().str();
  EXPECT_EQ((*M0)->hash(), (*Cs)->hash());

  // Executing the same source for two tenants compiles two distinct
  // cached modules; re-executing per tenant hits that tenant's entry.
  float Buf[8] = {0};
  auto runAs = [&](const LowerOptions &LO) {
    auto M = BE.lower(P, LO);
    ASSERT_TRUE(bool(M)) << M.error().str();
    std::vector<float> A(8, 1.0f), B(8, 0.0f);
    BufferSet Args = {RunArg::buffer(A.data(), sizeof(Buf)),
                      RunArg::buffer(B.data(), sizeof(Buf))};
    ExecStatus S = BE.execute(**M, "salted_probe", Args);
    ASSERT_TRUE(S.ok()) << S.Detail;
    EXPECT_EQ(B[0], 2.0f); // identical behavior regardless of tenant
  };
  JitBackend::resetCacheStats();
  runAs(TenantA);
  runAs(TenantB);
  runAs(TenantA);
  runAs(TenantB);
  JitBackend::CacheStats St = JitBackend::cacheStats();
  EXPECT_EQ(St.Compiles, 2u); // one artifact per tenant, not one shared
  EXPECT_GE(St.Hits, 2u);     // repeats stay within their own tenant
}

//===----------------------------------------------------------------------===//
// Trap containment in-process
//===----------------------------------------------------------------------===//

TEST(JitTrap, InjectedSimFaultIsContained) {
  // An AMX kernel whose module carries its own amx_sim copy; injecting a
  // fault through that copy's hook must fail the call with ExecKind::Trap
  // and leave this process alive.
  auto K = apps::buildAmxMatmul(16, 16, 16);
  ASSERT_TRUE(bool(K)) << K.error().str();
  JitBackend &BE = jitBackend();
  auto M = BE.lower(K->Hoisted);
  ASSERT_TRUE(bool(M)) << M.error().str();

  using FaultFn = int (*)();
  auto SetFault =
      reinterpret_cast<void (*)(FaultFn)>(BE.moduleSymbol(**M, "amx_set_fault_fn"));
  ASSERT_NE(SetFault, nullptr) << "module is missing its amx_sim copy";

  std::vector<float> A(16 * 16, 1.0f), B(16 * 16, 1.0f), C(16 * 16, 0.0f);
  BufferSet Args = {RunArg::buffer(A.data(), A.size() * sizeof(float)),
                    RunArg::buffer(B.data(), B.size() * sizeof(float)),
                    RunArg::buffer(C.data(), C.size() * sizeof(float))};

  SetFault(exoTestAlwaysFault);
  ExecStatus S = BE.execute(**M, K->Hoisted->name(), Args);
  SetFault(nullptr);
  EXPECT_EQ(S.Kind, ExecKind::Trap);
  EXPECT_NE(S.Detail.find("sim trap"), std::string::npos) << S.Detail;

  // The same module runs clean once the hook is gone.
  std::fill(C.begin(), C.end(), 0.0f);
  ExecStatus S2 = BE.execute(**M, K->Hoisted->name(), Args);
  EXPECT_TRUE(S2.ok()) << execKindName(S2.Kind) << ": " << S2.Detail;
}

TEST(JitTrap, SimulatorStateIsPrivatePerModule) {
  // Two distinct Gemmini kernels in two modules: each module links its
  // own copy of the prebuilt simulator object, so cycle counters and
  // fault hooks never leak from one module into the other.
  auto K = apps::buildGemminiMatmul(32, 32, 32);
  ASSERT_TRUE(bool(K)) << K.error().str();
  JitBackend &BE = jitBackend();
  auto MA = BE.lower(K->OldLib);
  auto MB = BE.lower(K->ExoLib);
  ASSERT_TRUE(bool(MA)) << MA.error().str();
  ASSERT_TRUE(bool(MB)) << MB.error().str();

  using ResetFn = void (*)(int);
  using CyclesFn = uint64_t (*)();
  using FaultFn = int (*)();
  using SetFaultFn = void (*)(FaultFn);
  auto ResetA =
      reinterpret_cast<ResetFn>(BE.moduleSymbol(**MA, "gemmini_reset"));
  auto ResetB =
      reinterpret_cast<ResetFn>(BE.moduleSymbol(**MB, "gemmini_reset"));
  auto CyclesA =
      reinterpret_cast<CyclesFn>(BE.moduleSymbol(**MA, "gemmini_cycles"));
  auto CyclesB =
      reinterpret_cast<CyclesFn>(BE.moduleSymbol(**MB, "gemmini_cycles"));
  auto SetFaultA = reinterpret_cast<SetFaultFn>(
      BE.moduleSymbol(**MA, "gemmini_set_fault_fn"));
  ASSERT_TRUE(ResetA && ResetB && CyclesA && CyclesB && SetFaultA);
  ASSERT_NE(CyclesA, CyclesB) << "both modules resolved one simulator copy";

  std::vector<float> A(32 * 32, 1.0f), B(32 * 32, 2.0f), C(32 * 32);
  auto run = [&](LoweredModule &M, const ProcRef &P) {
    std::fill(C.begin(), C.end(), 0.0f);
    BufferSet Args = {RunArg::buffer(A.data(), A.size() * sizeof(float)),
                      RunArg::buffer(B.data(), B.size() * sizeof(float)),
                      RunArg::buffer(C.data(), C.size() * sizeof(float))};
    return BE.execute(M, P->name(), Args);
  };

  ResetA(0); // EXO_GEMMINI_MODE_SW
  ResetB(0);
  ExecStatus SA = run(**MA, K->OldLib);
  ASSERT_TRUE(SA.ok()) << execKindName(SA.Kind) << ": " << SA.Detail;
  uint64_t OwnA = CyclesA();
  EXPECT_GT(OwnA, 0u);
  EXPECT_EQ(CyclesB(), 0u) << "module B counted module A's run";

  ExecStatus SB = run(**MB, K->ExoLib);
  ASSERT_TRUE(SB.ok()) << execKindName(SB.Kind) << ": " << SB.Detail;
  EXPECT_EQ(CyclesA(), OwnA) << "module A counted module B's run";
  EXPECT_GT(CyclesB(), 0u);
  // Hoisted configuration is cheaper than per-tile (Fig. 4a).
  EXPECT_LT(CyclesB(), OwnA);

  // A fault hook installed in A's copy traps A only.
  SetFaultA(exoTestAlwaysFault);
  ExecStatus TA = run(**MA, K->OldLib);
  ExecStatus TB = run(**MB, K->ExoLib);
  SetFaultA(nullptr);
  EXPECT_EQ(TA.Kind, ExecKind::Trap) << TA.Detail;
  EXPECT_TRUE(TB.ok()) << execKindName(TB.Kind) << ": " << TB.Detail;
}

TEST(JitTrap, RegionRegistryIsClearedBeforeEveryCall) {
  // The matmul reads 16 rows of an 8-row scratchpad buffer: out of
  // bounds, so the simulator's region check must trap. Overflowing the
  // registry first would switch that check off for good if the registry
  // survived from one call to the next. (The stray access is a read, so
  // a missed trap fails the test instead of corrupting the stack.)
  ProcRef P = mustParseGemmini(R"(
@proc
def spad_overread(C: R[16, 16]):
    a : R[8, 16] @ GEMM_SCRATCH
    b : R[16, 16] @ GEMM_SCRATCH
    acc : R[16, 16] @ GEMM_ACC
    gemmini_matmul16(16, 16, 16, a[0:16, 0:16], b[0:16, 0:16], acc[0:16, 0:16])
)");
  JitBackend &BE = jitBackend();
  auto M = BE.lower(P);
  ASSERT_TRUE(bool(M)) << M.error().str();
  using TrackFn = void (*)(const float *, int64_t);
  auto Track = reinterpret_cast<TrackFn>(
      BE.moduleSymbol(**M, "gemmini_spad_track"));
  ASSERT_NE(Track, nullptr) << "module is missing its gemmini_sim copy";

  static float Dummy[200];
  for (float &D : Dummy)
    Track(&D, 1); // 200 > the registry's 128 slots: checking disabled

  std::vector<float> C(16 * 16, 0.0f);
  BufferSet Args = {RunArg::buffer(C.data(), C.size() * sizeof(float))};
  ExecStatus S = BE.execute(**M, P->name(), Args);
  EXPECT_EQ(S.Kind, ExecKind::Trap) << execKindName(S.Kind) << ": "
                                    << S.Detail;
  EXPECT_NE(S.Detail.find("sim trap"), std::string::npos) << S.Detail;
}

TEST(JitExec, ConfigOnlyAcceleratorCallLinksTheSimulator) {
  // The only accelerator call is a configuration instruction and no
  // buffer lives in accelerator memory; the instruction's own global
  // must still pull in (and link) the simulator.
  ProcRef P = mustParseGemmini(R"(
@proc
def config_only(A: R[16, 16], B: R[16, 16]):
    gemmini_config_ld1(stride(A, 0))
    for i in seq(0, 16):
        for j in seq(0, 16):
            B[i, j] = A[i, j]
)");
  JitBackend &BE = jitBackend();
  auto M = BE.lower(P);
  ASSERT_TRUE(bool(M)) << M.error().str();
  EXPECT_NE((*M)->source().find("#include \"gemmini_sim.h\""),
            std::string::npos)
      << (*M)->source();

  std::vector<float> A(16 * 16), B(16 * 16, 0.0f);
  for (size_t I = 0; I < A.size(); ++I)
    A[I] = static_cast<float>(I);
  BufferSet Args = {RunArg::buffer(A.data(), A.size() * sizeof(float)),
                    RunArg::buffer(B.data(), B.size() * sizeof(float))};
  ExecStatus S = BE.execute(**M, P->name(), Args);
  ASSERT_TRUE(S.ok()) << execKindName(S.Kind) << ": " << S.Detail;
  EXPECT_EQ(A, B);
  using StatFn = uint64_t (*)();
  auto ConfigWrites = reinterpret_cast<StatFn>(
      BE.moduleSymbol(**M, "gemmini_stat_config_writes"));
  ASSERT_NE(ConfigWrites, nullptr);
  EXPECT_EQ(ConfigWrites(), 1u);
}

TEST(GemminiMatmul, CSourceHarnessMatchesJit) {
  // The csource backend links the same PIC simulator object into a
  // non-shared executable; its outputs must equal the JIT's.
  const int64_t N = 128;
  auto K = apps::buildGemminiMatmul(N, N, N);
  ASSERT_TRUE(bool(K)) << K.error().str();
  std::vector<float> A(N * N), B(N * N);
  uint32_t S = 4242;
  auto nextVal = [&S]() {
    S = S * 1103515245u + 12345u;
    return static_cast<float>(static_cast<int>((S >> 16) % 7) - 3);
  };
  for (float &V : A)
    V = nextVal();
  for (float &V : B)
    V = nextVal();

  std::vector<std::vector<float>> Outs;
  for (Backend *BE : {static_cast<Backend *>(&jitBackend()),
                      static_cast<Backend *>(&csourceBackend())}) {
    auto M = BE->lower(K->ExoLib);
    ASSERT_TRUE(bool(M)) << BE->name() << ": " << M.error().str();
    std::vector<float> Av = A, Bv = B, Cv(N * N, 0.0f);
    BufferSet Args = {RunArg::buffer(Av.data(), Av.size() * sizeof(float)),
                      RunArg::buffer(Bv.data(), Bv.size() * sizeof(float)),
                      RunArg::buffer(Cv.data(), Cv.size() * sizeof(float))};
    ExecStatus St = BE->execute(**M, K->ExoLib->name(), Args);
    ASSERT_TRUE(St.ok()) << BE->name() << ": " << execKindName(St.Kind)
                         << ": " << St.Detail;
    Outs.push_back(std::move(Cv));
  }
  ASSERT_EQ(Outs.size(), 2u);
  EXPECT_EQ(0, std::memcmp(Outs[0].data(), Outs[1].data(),
                           Outs[0].size() * sizeof(float)));
  float Ref00 = 0;
  for (int64_t L = 0; L < N; ++L)
    Ref00 += A[L] * B[L * N];
  EXPECT_EQ(Outs[1][0], Ref00);
}

//===----------------------------------------------------------------------===//
// AMX matmul end-to-end
//===----------------------------------------------------------------------===//

TEST(AmxMatmul, EndToEndBothBackendsMatchNaiveReference) {
  const int64_t N = 32, M = 32, K = 32;
  auto Kr = apps::buildAmxMatmul(N, M, K);
  ASSERT_TRUE(bool(Kr)) << Kr.error().str();

  // Small exact integers: float accumulation is exact, so bit-identity
  // across backends and against the host reference is a fair demand.
  std::vector<float> A(N * K), B(K * M);
  uint32_t S = 12345;
  auto nextVal = [&S]() {
    S = S * 1103515245u + 12345u;
    return static_cast<float>(static_cast<int>((S >> 16) % 7) - 3);
  };
  for (float &V : A)
    V = nextVal();
  for (float &V : B)
    V = nextVal();

  std::vector<float> Ref(N * M, 0.0f);
  for (int64_t I = 0; I < N; ++I)
    for (int64_t J = 0; J < M; ++J)
      for (int64_t L = 0; L < K; ++L)
        Ref[I * M + J] += A[I * K + L] * B[L * M + J];

  for (const ProcRef &P : {Kr->PerTile, Kr->Hoisted}) {
    for (Backend *BE : {static_cast<Backend *>(&csourceBackend()),
                        static_cast<Backend *>(&jitBackend())}) {
      auto Mod = BE->lower(P);
      ASSERT_TRUE(bool(Mod)) << BE->name() << ": " << Mod.error().str();
      std::vector<float> Av = A, Bv = B, Cv(N * M, 0.0f);
      BufferSet Args = {RunArg::buffer(Av.data(), Av.size() * sizeof(float)),
                        RunArg::buffer(Bv.data(), Bv.size() * sizeof(float)),
                        RunArg::buffer(Cv.data(), Cv.size() * sizeof(float))};
      ExecStatus St = BE->execute(**Mod, P->name(), Args);
      ASSERT_TRUE(St.ok()) << P->name() << " via " << BE->name() << ": "
                           << execKindName(St.Kind) << ": " << St.Detail;
      EXPECT_EQ(0, std::memcmp(Cv.data(), Ref.data(),
                               Cv.size() * sizeof(float)))
          << P->name() << " via " << BE->name()
          << " diverged from the naive reference";
    }
  }
}

//===----------------------------------------------------------------------===//
// Generated-C compiles: paths and translation units
//===----------------------------------------------------------------------===//

namespace {

/// The unit of \p Plan that holds the definition named \p Name; -1 if none.
int unitOf(const CModule &M, const std::vector<std::vector<size_t>> &Plan,
           const std::string &Name) {
  for (size_t U = 0; U < Plan.size(); ++U)
    for (size_t D : Plan[U])
      if (M.Defs[D].Name == Name)
        return static_cast<int>(U);
  return -1;
}

/// Files in \p Dir whose names contain \p Part.
size_t countFiles(const std::string &Dir, const std::string &Part) {
  size_t N = 0;
  for (const auto &E : std::filesystem::directory_iterator(Dir))
    N += E.path().filename().string().find(Part) != std::string::npos;
  return N;
}

/// Sets TMPDIR for one scope.
struct ScopedTmpdir {
  std::string Old;
  bool Had;
  explicit ScopedTmpdir(const std::string &Dir) {
    const char *O = std::getenv("TMPDIR");
    Had = O != nullptr;
    Old = O ? O : "";
    setenv("TMPDIR", Dir.c_str(), 1);
  }
  ~ScopedTmpdir() {
    if (Had)
      setenv("TMPDIR", Old.c_str(), 1);
    else
      unsetenv("TMPDIR");
  }
};

} // namespace

TEST(BackendExec, PathsWithSpacesCompileAndRunOnBothBackends) {
  support::TempDir Root("spaces");
  ASSERT_TRUE(Root.valid());
  std::string Spaced = Root.file("sp ace");
  std::filesystem::create_directories(Spaced);
  ScopedTmpdir Tmp(Spaced);

  ProcRef P = addOneProc();
  for (Backend *BE : {static_cast<Backend *>(&csourceBackend()),
                      static_cast<Backend *>(&jitBackend())}) {
    JitBackend::clearCache();
    auto M = BE->lower(P);
    ASSERT_TRUE(bool(M)) << BE->name() << ": " << M.error().str();
    std::vector<float> A(8), B(8, 0.0f);
    for (size_t I = 0; I < A.size(); ++I)
      A[I] = static_cast<float>(I);
    BufferSet Args = {RunArg::buffer(A.data(), A.size() * sizeof(float)),
                      RunArg::buffer(B.data(), B.size() * sizeof(float))};
    ExecStatus S = BE->execute(**M, "add_one", Args);
    ASSERT_TRUE(S.ok()) << BE->name() << ": " << execKindName(S.Kind)
                        << ": " << S.Detail;
    for (size_t I = 0; I < B.size(); ++I)
      EXPECT_EQ(B[I], A[I] + 1.0f) << BE->name() << " at " << I;
  }

  // The split path: unit sources, objects and the link all live there too.
  auto W = jitBackend().lower(testhelp::wideProcs("spaced_"));
  ASSERT_TRUE(bool(W)) << W.error().str();
  std::vector<float> A(16, 1.0f), B(16, 0.0f);
  BufferSet Args = {RunArg::buffer(A.data(), A.size() * sizeof(float)),
                    RunArg::buffer(B.data(), B.size() * sizeof(float))};
  ExecStatus S = jitBackend().execute(**W, "spaced_0", Args);
  ASSERT_TRUE(S.ok()) << execKindName(S.Kind) << ": " << S.Detail;
  EXPECT_EQ(B[0], 240.0f); // 120 lines adding 0, 1, 2, 3, 4 in turn
}

TEST(JitUnits, CallerAndCalleeShareAUnit) {
  frontend::ParseEnv Env;
  auto Parsed = frontend::parseModule(R"(
@proc
def leaf(A: R[8]):
    for i in seq(0, 8):
        A[i] = 1.0

@proc
def caller(A: R[8]):
    leaf(A)
)",
                                      Env);
  ASSERT_TRUE(bool(Parsed)) << Parsed.error().str();
  std::vector<ProcRef> Roots = testhelp::wideProcs("free_", 1, 4);
  Roots.push_back(Parsed->Procs[1]);
  auto M = generateModule(Roots);
  ASSERT_TRUE(bool(M)) << M.error().str();
  ASSERT_EQ(M->Defs.size(), 3u); // the callee is pulled in

  // The layout cuts the text exactly: the prelude, then each definition.
  std::string Joined = M->Text.substr(0, M->PreludeBytes);
  for (const CModule::Def &D : M->Defs)
    Joined += M->Text.substr(D.Begin, D.End - D.Begin);
  EXPECT_EQ(Joined, M->Text);
  EXPECT_EQ(M->Text, *generateC(Roots));

  auto Plan = detail::planUnits(*M, 3);
  EXPECT_EQ(Plan.size(), 2u); // {caller, leaf} and the free proc
  EXPECT_NE(unitOf(*M, Plan, "leaf"), -1);
  EXPECT_EQ(unitOf(*M, Plan, "leaf"), unitOf(*M, Plan, "caller"));
}

TEST(JitUnits, ProcsSharingAConfigShareAUnit) {
  frontend::ParseEnv Env;
  auto Parsed = frontend::parseModule(R"(
@config
class CfgUnits:
    s : stride

@proc
def writer(x: R[8, 8]):
    CfgUnits.s = stride(x, 0)

@proc
def reader(y: R[8]):
    y[CfgUnits.s] = 1.0

@proc
def bystander(y: R[8]):
    y[0] = 2.0
)",
                                      Env);
  ASSERT_TRUE(bool(Parsed)) << Parsed.error().str();
  auto M = generateModule(Parsed->Procs);
  ASSERT_TRUE(bool(M)) << M.error().str();
  auto Plan = detail::planUnits(*M, 3);
  EXPECT_EQ(Plan.size(), 2u); // {writer, reader} and {bystander}
  EXPECT_EQ(unitOf(*M, Plan, "writer"), unitOf(*M, Plan, "reader"));
  EXPECT_NE(unitOf(*M, Plan, "writer"), unitOf(*M, Plan, "bystander"));
}

TEST(JitUnits, SingleGroupModuleIsOneUnit) {
  auto One = generateModule(testhelp::wideProcs("alone_", 1, 600));
  ASSERT_TRUE(bool(One)) << One.error().str();
  EXPECT_GE(detail::unitCount(*One, 4), 2u); // big enough, but one group
  EXPECT_EQ(detail::planUnits(*One, 4).size(), 1u);

  // A prelude that defines something would be defined once per unit.
  CodeGenOptions Defining;
  Defining.Prelude = "static int exo_calls;";
  auto Stateful = generateModule(testhelp::wideProcs("stateful_"), Defining);
  ASSERT_TRUE(bool(Stateful)) << Stateful.error().str();
  EXPECT_EQ(detail::planUnits(*Stateful, 4).size(), 1u);

  // Many groups but too few bytes to repay a second unit.
  auto Small = generateModule(testhelp::wideProcs("small_", 4, 2));
  ASSERT_TRUE(bool(Small)) << Small.error().str();
  EXPECT_EQ(detail::unitCount(*Small, 4), 1u);
  EXPECT_EQ(detail::planUnits(*Small, 1).size(), 1u);

  // A module of the fuzz block's size splits across every host thread.
  auto Wide = generateModule(testhelp::wideProcs("wide_"));
  ASSERT_TRUE(bool(Wide)) << Wide.error().str();
  EXPECT_EQ(detail::unitCount(*Wide, 4), 4u);
  EXPECT_EQ(detail::unitCount(*Wide, 1), 1u);
  EXPECT_EQ(detail::planUnits(*Wide, 4).size(), 4u);
}

TEST(JitUnits, FailingUnitReportsItsOwnDiagnostics) {
  frontend::ParseEnv Env;
  auto Parsed = frontend::parseModule(R"(
@instr("this_is_not_c({a}.data;")
def broken(a: [R][16]):
    for i in seq(0, 16):
        a[i] = 0.0

@proc
def uses_broken(A: R[16], B: R[16]):
    broken(B[0:16])
)",
                                      Env);
  ASSERT_TRUE(bool(Parsed)) << Parsed.error().str();
  std::vector<ProcRef> Procs = testhelp::wideProcs("fine_");
  Procs.push_back(Parsed->Procs[1]);

  support::TempDir Dir("units");
  ASSERT_TRUE(Dir.valid());
  LowerOptions LO;
  LO.WorkDir = Dir.path();
  LO.KeepArtifacts = true;
  JitBackend::clearCache();
  auto M = jitBackend().lower(Procs, LO);
  ASSERT_TRUE(bool(M)) << M.error().str();
  std::vector<float> A(16, 1.0f), B(16, 0.0f);
  BufferSet Args = {RunArg::buffer(A.data(), A.size() * sizeof(float)),
                    RunArg::buffer(B.data(), B.size() * sizeof(float))};
  ExecStatus S = jitBackend().execute(**M, "fine_0", Args);
  ASSERT_EQ(S.Kind, ExecKind::CompileError) << S.Detail;
  EXPECT_NE(S.Detail.find("this_is_not_c"), std::string::npos) << S.Detail;

  // The evidence: the whole module, and every unit when it was split.
  const CModule &C = (*M)->layout();
  size_t Units =
      detail::planUnits(C, detail::unitCount(
                               C, std::thread::hardware_concurrency()))
          .size();
  std::string Base = Dir.file("module_" + (*M)->hash());
  EXPECT_TRUE(std::filesystem::exists(Base + ".c"));
  for (size_t U = 0; U < Units; ++U)
    EXPECT_EQ(std::filesystem::exists(Base + "_u" + std::to_string(U) + ".c"),
              Units > 1)
        << "unit " << U;
  if (Units > 1) {
    EXPECT_NE(S.Detail.find("of " + std::to_string(Units) + ")"),
              std::string::npos)
        << S.Detail;
  }
}

TEST(JitUnits, SplitFuzzBlockAgreesAcrossBackends) {
  // The 8-program x 3-schedule fuzz block at seed 1 (plus each program's
  // unscheduled case) is one oracle batch: one module, large enough for
  // the JIT to split. Agreement at tolerance 0 means each backend's
  // buffers are bit-identical to the interpreter's, hence to each other.
  std::vector<ftest::OracleCase> Cases;
  for (uint64_t Seed = 1; Seed <= 8; ++Seed)
    for (unsigned Variant = 0; Variant <= 3; ++Variant) {
      auto Case = ftest::makeCorpusCase(Seed, Variant, {}, {});
      ASSERT_TRUE(bool(Case)) << Case.error().str();
      auto OC = ftest::materializeCorpus(*Case);
      ASSERT_TRUE(bool(OC)) << OC.error().str();
      Cases.push_back(*OC);
    }

  support::TempDir Dir("fuzzunits");
  ASSERT_TRUE(Dir.valid());
  std::vector<std::vector<ftest::OracleOutcome>> PerBackend;
  for (const char *Name : {"csource", "jit"}) {
    JitBackend::clearCache();
    ftest::OracleOptions O;
    O.Backend = Name;
    O.WorkDir = Dir.file(Name);
    O.KeepFiles = true;
    auto Out = ftest::runOracle(Cases, O);
    ASSERT_TRUE(bool(Out)) << Name << ": " << Out.error().str();
    PerBackend.push_back(*Out);
  }
  if (std::thread::hardware_concurrency() >= 2) {
    EXPECT_GE(countFiles(Dir.file("jit"), "_u1.o"), 1u)
        << "the block's JIT module was not split";
  }
  for (size_t I = 0; I < Cases.size(); ++I) {
    EXPECT_TRUE(PerBackend[0][I].ok())
        << "case " << I << " (csource): " << PerBackend[0][I].Detail;
    EXPECT_EQ(PerBackend[0][I].Status, PerBackend[1][I].Status)
        << "case " << I << ": " << PerBackend[1][I].Detail;
  }
}

//===----------------------------------------------------------------------===//
// The simulator objects' build flags
//===----------------------------------------------------------------------===//

namespace {

/// Fixed non-integer inputs: sums of products of these round differently
/// when a multiply and an add fuse.
std::vector<float> simOperand(uint32_t Seed) {
  std::vector<float> V(16 * 16);
  for (float &X : V) {
    Seed = Seed * 1103515245u + 12345u;
    X = static_cast<float>((Seed >> 8) & 0xffff) / 4096.0f - 7.9f;
  }
  return V;
}

/// C[i,j] += sum over k of A[i,k] * B[k,j], summed from k = 0 into a float
/// that starts at 0, every product rounded on its own: the simulators'
/// order. The volatile keeps this loop from fusing a multiply-add too.
std::vector<float> referenceTileMatmul(const std::vector<float> &A,
                                       const std::vector<float> &B,
                                       std::vector<float> C) {
  for (int I = 0; I < 16; ++I)
    for (int J = 0; J < 16; ++J) {
      float Sum = 0.0f;
      for (int K = 0; K < 16; ++K) {
        volatile float Product = A[I * 16 + K] * B[K * 16 + J];
        Sum += Product;
      }
      C[I * 16 + J] += Sum;
    }
  return C;
}

void expectSameBits(const std::vector<float> &Got,
                    const std::vector<float> &Want, const char *What) {
  ASSERT_EQ(Got.size(), Want.size());
  size_t Differ = 0;
  for (size_t I = 0; I < Got.size(); ++I) {
    uint32_t G, W;
    std::memcpy(&G, &Got[I], sizeof G);
    std::memcpy(&W, &Want[I], sizeof W);
    if (G != W && Differ++ == 0)
      ADD_FAILURE() << What << ": element " << I << " is " << Got[I]
                    << ", the reference order gives " << Want[I];
  }
  EXPECT_EQ(Differ, 0u) << What << ": elements that differ in any bit";
}

} // namespace

TEST(SimulatorObjects, TileMatmulsAreBitExactInSourceOrder) {
  // The host process links the same archived simulator objects as every
  // module. Built with -march=native and contraction on, the matmul loops
  // fuse multiply-adds and these results drift in the last bits.
  std::vector<float> A = simOperand(1), B = simOperand(2), C0 = simOperand(3);
  std::vector<float> Want = referenceTileMatmul(A, B, C0);

  std::vector<float> C = C0;
  gemmini_clear_regions();
  gemmini_reset(EXO_GEMMINI_MODE_SW);
  uint64_t GemminiTraps = gemmini_trap_count();
  gemmini_matmul(A.data(), 16, B.data(), 16, C.data(), 16, 16, 16, 16);
  EXPECT_EQ(gemmini_trap_count(), GemminiTraps);
  EXPECT_EQ(gemmini_stat_matmuls(), 1u);
  expectSameBits(C, Want, "gemmini_matmul");

  C = C0;
  amx_clear_regions();
  amx_reset();
  uint64_t AmxTraps = amx_trap_count();
  amx_tile_dp(A.data(), 16, B.data(), 16, C.data(), 16, 16, 16, 16);
  EXPECT_EQ(amx_trap_count(), AmxTraps);
  EXPECT_EQ(amx_stat_tdps(), 1u);
  expectSameBits(C, Want, "amx_tile_dp");
}
