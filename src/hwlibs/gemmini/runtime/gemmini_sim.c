/*===- gemmini_sim.c - Gemmini accelerator simulator ------------- C ----===
 *
 * Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
 *
 * Timeline model: two units (DMA for mvin/mvout, EX for matmuls) each
 * with a busy-until time, plus a CPU issue clock. In software mode every
 * instruction serializes behind its unit and pays the issue cost; a
 * config write waits for *both* units to drain (pipeline flush) before
 * taking effect. In hardware-unroller mode the units run concurrently
 * from a shared dispatch queue with no per-instruction issue cost — the
 * dynamically scheduled CISC loops of the paper's "Hardware" bars.
 *
 * Safety model: every data instruction validates operands before its
 * loops run (see the trap machinery below). The checks are written so a
 * well-formed Exo-generated program never pays more than a few compares
 * per instruction.
 *
 *===----------------------------------------------------------------------===*/

#include "gemmini_sim.h"

#include <stdio.h>
#include <stdlib.h>

static struct {
  int mode;
  uint64_t cpu_now;   /* next issue time */
  uint64_t dma_busy;  /* DMA unit busy until */
  uint64_t ex_busy;   /* systolic array busy until */
  int64_t ld_stride;  /* channel 1 */
  int64_t ld2_stride; /* channel 2 */
  int64_t st_stride;
  uint64_t n_config, n_mvin_rows, n_matmul;
} S;

/* --- trap machinery ------------------------------------------------- */

static void default_trap(int code, const char *what) {
  fprintf(stderr, "gemmini_sim: trap %d (%s): %s\n", code,
          gemmini_trap_name(code), what);
  abort();
}

static gemmini_trap_fn trap_handler = default_trap;
static gemmini_fault_fn fault_fn = 0;
static uint64_t n_traps = 0;
static int last_trap = GEMMINI_TRAP_NONE;

const char *gemmini_trap_name(int code) {
  switch (code) {
  case GEMMINI_TRAP_NONE:
    return "none";
  case GEMMINI_TRAP_NULL_PTR:
    return "null-pointer";
  case GEMMINI_TRAP_BAD_EXTENT:
    return "bad-extent";
  case GEMMINI_TRAP_BAD_STRIDE:
    return "bad-stride";
  case GEMMINI_TRAP_SPAD_OOB:
    return "spad-oob";
  case GEMMINI_TRAP_ACC_OOB:
    return "acc-oob";
  case GEMMINI_TRAP_INJECTED:
    return "injected";
  default:
    return "unknown";
  }
}

gemmini_trap_fn gemmini_set_trap_handler(gemmini_trap_fn fn) {
  gemmini_trap_fn prev = trap_handler;
  trap_handler = fn ? fn : default_trap;
  return prev == default_trap ? 0 : prev;
}

void gemmini_set_fault_fn(gemmini_fault_fn fn) { fault_fn = fn; }

uint64_t gemmini_trap_count(void) { return n_traps; }
int gemmini_last_trap(void) { return last_trap; }
void gemmini_clear_traps(void) {
  n_traps = 0;
  last_trap = GEMMINI_TRAP_NONE;
}

/* Records and dispatches a trap; returns 1 so callers can write
 * `if (trap(...)) return;` — reaching the return means an installed
 * handler chose to continue, and the instruction is skipped. */
static int trap(int code, const char *what) {
  n_traps++;
  last_trap = code;
  trap_handler(code, what);
  return 1;
}

/* --- scratchpad / accumulator region registry ----------------------- */

#define GEMMINI_MAX_REGIONS 128

typedef struct {
  const float *base;
  int64_t len; /* floats */
} Region;

typedef struct {
  Region regions[GEMMINI_MAX_REGIONS];
  int count;
  int disabled; /* set on registry overflow: skip checks, never false-trap */
} RegionSet;

static RegionSet spad_set, acc_set;

static void region_track(RegionSet *set, const float *base, int64_t len) {
  if (!base || len <= 0)
    return;
  if (set->count >= GEMMINI_MAX_REGIONS) {
    set->disabled = 1;
    return;
  }
  set->regions[set->count].base = base;
  set->regions[set->count].len = len;
  set->count++;
}

static void region_untrack(RegionSet *set, const float *base) {
  for (int i = 0; i < set->count; ++i)
    if (set->regions[i].base == base) {
      set->regions[i] = set->regions[set->count - 1];
      set->count--;
      return;
    }
}

/* A strided 2-D access [ptr, ptr + (rows-1)*stride + cols) must sit
 * inside a single registered region. Checking is best-effort by design:
 * with no regions registered (hand-written callers) or after overflow it
 * always passes. */
static int region_contains(const RegionSet *set, const float *ptr,
                           int64_t stride, int64_t rows, int64_t cols) {
  if (set->count == 0 || set->disabled)
    return 1;
  /* Compare as integers: the probed pointer may not point into the
   * region object at all, where raw pointer ordering is undefined. */
  uintptr_t lo = (uintptr_t)ptr;
  uintptr_t hi = lo + (uintptr_t)((rows - 1) * stride + cols) * sizeof(float);
  for (int i = 0; i < set->count; ++i) {
    const Region *r = &set->regions[i];
    uintptr_t base = (uintptr_t)r->base;
    if (lo >= base && hi <= base + (uintptr_t)r->len * sizeof(float))
      return 1;
  }
  return 0;
}

void gemmini_spad_track(const float *base, int64_t n_floats) {
  region_track(&spad_set, base, n_floats);
}
void gemmini_spad_untrack(const float *base) {
  region_untrack(&spad_set, base);
}
void gemmini_acc_track(const float *base, int64_t n_floats) {
  region_track(&acc_set, base, n_floats);
}
void gemmini_acc_untrack(const float *base) { region_untrack(&acc_set, base); }

void gemmini_clear_regions(void) {
  spad_set.count = 0;
  spad_set.disabled = 0;
  acc_set.count = 0;
  acc_set.disabled = 0;
}

/* Shared operand validation for one strided 2-D access. `set` is the
 * scratchpad-side registry to check against, or NULL for DRAM pointers
 * (host memory: only null-checked). Returns nonzero when the caller must
 * skip the instruction. */
static int check_access(const char *who, const void *ptr, int64_t stride,
                        int64_t rows, int64_t cols, const RegionSet *set,
                        int oob_code) {
  if (!ptr)
    return trap(GEMMINI_TRAP_NULL_PTR, who);
  if (rows < 1 || rows > 16 || cols < 1 || cols > 16)
    return trap(GEMMINI_TRAP_BAD_EXTENT, who);
  if (stride < 0 || (rows > 1 && stride < cols))
    return trap(GEMMINI_TRAP_BAD_STRIDE, who);
  if (set &&
      !region_contains(set, (const float *)ptr, stride, rows, cols))
    return trap(oob_code, who);
  return 0;
}

static int injected(const char *who) {
  if (fault_fn && fault_fn())
    return trap(GEMMINI_TRAP_INJECTED, who);
  return 0;
}

/* --- timeline model -------------------------------------------------- */

void gemmini_reset(int mode) {
  S.mode = mode;
  S.cpu_now = 0;
  S.dma_busy = 0;
  S.ex_busy = 0;
  S.ld_stride = 0;
  S.ld2_stride = 0;
  S.st_stride = 0;
  S.n_config = 0;
  S.n_mvin_rows = 0;
  S.n_matmul = 0;
  /* Trap state, handlers, and tracked regions intentionally survive:
   * benchmarks reset timing between kernels with buffers still live. */
}

uint64_t gemmini_cycles(void) {
  uint64_t End = S.cpu_now;
  if (S.dma_busy > End)
    End = S.dma_busy;
  if (S.ex_busy > End)
    End = S.ex_busy;
  return End;
}

uint64_t gemmini_stat_config_writes(void) { return S.n_config; }
uint64_t gemmini_stat_mvin_rows(void) { return S.n_mvin_rows; }
uint64_t gemmini_stat_matmuls(void) { return S.n_matmul; }

static uint64_t max_u64(uint64_t A, uint64_t B) { return A > B ? A : B; }

/* Issues one instruction on a unit. In software mode the in-order CPU
 * waits for each instruction's dependence chain, so execution is fully
 * sequential; in hardware-unroller mode the units drain a dispatch queue
 * concurrently with no issue overhead (double-buffered overlap). */
static void issue(uint64_t *unit_busy, uint64_t latency) {
  if (S.mode == EXO_GEMMINI_MODE_HW) {
    /* one dispatch-queue cycle per instruction */
    *unit_busy = *unit_busy + latency + 1;
    return;
  }
  S.cpu_now = max_u64(S.cpu_now + GEMMINI_ISSUE, *unit_busy) + latency;
  *unit_busy = S.cpu_now;
}

static void config_write(void) {
  S.n_config++;
  /* Pipeline flush: wait for both units to drain, then stall. */
  uint64_t drained = max_u64(max_u64(S.dma_busy, S.ex_busy), S.cpu_now);
  uint64_t done = drained + GEMMINI_CONFIG_FLUSH;
  S.cpu_now = done;
  S.dma_busy = done;
  S.ex_busy = done;
}

void gemmini_config_ld(int64_t src_stride) {
  S.ld_stride = src_stride;
  config_write();
}

void gemmini_config_ld2(int64_t src_stride) {
  S.ld2_stride = src_stride;
  config_write();
}

void gemmini_config_st(int64_t dst_stride) {
  S.st_stride = dst_stride;
  config_write();
}

static void do_mvin(const char *who, const float *src, float *dst,
                    int64_t dst_stride, int64_t rows, int64_t cols,
                    int64_t src_stride) {
  if (injected(who))
    return;
  if (check_access(who, src, src_stride, rows, cols, /*set=*/0, 0))
    return;
  if (check_access(who, dst, dst_stride, rows, cols, &spad_set,
                   GEMMINI_TRAP_SPAD_OOB))
    return;
  for (int64_t r = 0; r < rows; ++r)
    for (int64_t c = 0; c < cols; ++c)
      dst[r * dst_stride + c] = src[r * src_stride + c];
  S.n_mvin_rows += (uint64_t)rows;
  issue(&S.dma_busy, ((uint64_t)rows + 1) / GEMMINI_DMA_ROWS_PER_CYC);
}

void gemmini_mvin(const float *src, float *spad_dst, int64_t dst_stride,
                  int64_t rows, int64_t cols) {
  do_mvin("gemmini_mvin", src, spad_dst, dst_stride, rows, cols, S.ld_stride);
}

void gemmini_mvin2(const float *src, float *spad_dst, int64_t dst_stride,
                   int64_t rows, int64_t cols) {
  do_mvin("gemmini_mvin2", src, spad_dst, dst_stride, rows, cols,
          S.ld2_stride);
}

void gemmini_mvout_acc(float *dst, const float *acc_src, int64_t src_stride,
                       int64_t rows, int64_t cols) {
  if (injected("gemmini_mvout_acc"))
    return;
  if (check_access("gemmini_mvout_acc", acc_src, src_stride, rows, cols,
                   &acc_set, GEMMINI_TRAP_ACC_OOB))
    return;
  if (check_access("gemmini_mvout_acc", dst, S.st_stride, rows, cols,
                   /*set=*/0, 0))
    return;
  for (int64_t r = 0; r < rows; ++r)
    for (int64_t c = 0; c < cols; ++c)
      dst[r * S.st_stride + c] += acc_src[r * src_stride + c];
  issue(&S.dma_busy, ((uint64_t)rows + 1) / GEMMINI_DMA_ROWS_PER_CYC);
}

void gemmini_mvout_relu(float *dst, const float *acc_src, int64_t src_stride,
                        int64_t rows, int64_t cols) {
  if (injected("gemmini_mvout_relu"))
    return;
  if (check_access("gemmini_mvout_relu", acc_src, src_stride, rows, cols,
                   &acc_set, GEMMINI_TRAP_ACC_OOB))
    return;
  if (check_access("gemmini_mvout_relu", dst, S.st_stride, rows, cols,
                   /*set=*/0, 0))
    return;
  for (int64_t r = 0; r < rows; ++r)
    for (int64_t c = 0; c < cols; ++c) {
      float v = acc_src[r * src_stride + c];
      dst[r * S.st_stride + c] = v > 0.0f ? v : 0.0f;
    }
  issue(&S.dma_busy, ((uint64_t)rows + 1) / GEMMINI_DMA_ROWS_PER_CYC);
}

void gemmini_zero_acc(float *acc, int64_t acc_stride, int64_t rows,
                      int64_t cols) {
  if (injected("gemmini_zero_acc"))
    return;
  if (check_access("gemmini_zero_acc", acc, acc_stride, rows, cols, &acc_set,
                   GEMMINI_TRAP_ACC_OOB))
    return;
  for (int64_t r = 0; r < rows; ++r)
    for (int64_t c = 0; c < cols; ++c)
      acc[r * acc_stride + c] = 0.0f;
  issue(&S.ex_busy, GEMMINI_PRELOAD);
}

void gemmini_matmul(const float *a, int64_t a_stride, const float *b,
                    int64_t b_stride, float *acc, int64_t c_stride,
                    int64_t n, int64_t m, int64_t k) {
  if (injected("gemmini_matmul"))
    return;
  if (check_access("gemmini_matmul(a)", a, a_stride, n, k, &spad_set,
                   GEMMINI_TRAP_SPAD_OOB))
    return;
  if (check_access("gemmini_matmul(b)", b, b_stride, k, m, &spad_set,
                   GEMMINI_TRAP_SPAD_OOB))
    return;
  if (check_access("gemmini_matmul(acc)", acc, c_stride, n, m, &acc_set,
                   GEMMINI_TRAP_ACC_OOB))
    return;
  for (int64_t i = 0; i < n; ++i)
    for (int64_t j = 0; j < m; ++j) {
      float sum = 0.0f;
      for (int64_t kk = 0; kk < k; ++kk)
        sum += a[i * a_stride + kk] * b[kk * b_stride + j];
      acc[i * c_stride + j] += sum;
    }
  S.n_matmul++;
  issue(&S.ex_busy, GEMMINI_MATMUL16);
}
