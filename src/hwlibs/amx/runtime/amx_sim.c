/*===- amx_sim.c - AMX-style tile engine simulator --------------- C ----===
 *
 * Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
 *
 * Timeline model: two units (LSU for tile load/store, TMUL for dot
 * products), each with a busy-until time, plus a CPU issue clock. Every
 * instruction serializes behind its unit and pays the issue cost; a
 * tile-config write waits for *both* units to drain before taking
 * effect, which is the cost that config hoisting removes.
 *
 * Safety model: every data instruction validates operands before its
 * loops run (see the trap machinery below), mirroring gemmini_sim.c.
 *
 *===----------------------------------------------------------------------===*/

#include "amx_sim.h"

#include <stdio.h>
#include <stdlib.h>

static struct {
  uint64_t cpu_now;  /* next issue time */
  uint64_t lsu_busy; /* load/store unit busy until */
  uint64_t tmul_busy;
  int64_t ld_a_stride;
  int64_t ld_b_stride;
  int64_t st_stride;
  uint64_t n_config, n_load_rows, n_tdp;
} S;

/* --- trap machinery ------------------------------------------------- */

static void default_trap(int code, const char *what) {
  fprintf(stderr, "amx_sim: trap %d (%s): %s\n", code, amx_trap_name(code),
          what);
  abort();
}

static amx_trap_fn trap_handler = default_trap;
static amx_fault_fn fault_fn = 0;
static uint64_t n_traps = 0;
static int last_trap = AMX_TRAP_NONE;

const char *amx_trap_name(int code) {
  switch (code) {
  case AMX_TRAP_NONE:
    return "none";
  case AMX_TRAP_NULL_PTR:
    return "null-pointer";
  case AMX_TRAP_BAD_EXTENT:
    return "bad-extent";
  case AMX_TRAP_BAD_STRIDE:
    return "bad-stride";
  case AMX_TRAP_TILE_OOB:
    return "tile-oob";
  case AMX_TRAP_INJECTED:
    return "injected";
  default:
    return "unknown";
  }
}

amx_trap_fn amx_set_trap_handler(amx_trap_fn fn) {
  amx_trap_fn prev = trap_handler;
  trap_handler = fn ? fn : default_trap;
  return prev == default_trap ? 0 : prev;
}

void amx_set_fault_fn(amx_fault_fn fn) { fault_fn = fn; }

uint64_t amx_trap_count(void) { return n_traps; }
int amx_last_trap(void) { return last_trap; }
void amx_clear_traps(void) {
  n_traps = 0;
  last_trap = AMX_TRAP_NONE;
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

/* --- tile region registry ------------------------------------------- */

#define AMX_MAX_REGIONS 128

typedef struct {
  const float *base;
  int64_t len; /* floats */
} Region;

static struct {
  Region regions[AMX_MAX_REGIONS];
  int count;
  int disabled; /* set on registry overflow: skip checks, never false-trap */
} tile_set;

void amx_tile_track(const float *base, int64_t n_floats) {
  if (!base || n_floats <= 0)
    return;
  if (tile_set.count >= AMX_MAX_REGIONS) {
    tile_set.disabled = 1;
    return;
  }
  tile_set.regions[tile_set.count].base = base;
  tile_set.regions[tile_set.count].len = n_floats;
  tile_set.count++;
}

void amx_tile_untrack(const float *base) {
  for (int i = 0; i < tile_set.count; ++i)
    if (tile_set.regions[i].base == base) {
      tile_set.regions[i] = tile_set.regions[tile_set.count - 1];
      tile_set.count--;
      return;
    }
}

void amx_clear_regions(void) {
  tile_set.count = 0;
  tile_set.disabled = 0;
}

/* A strided 2-D access [ptr, ptr + (rows-1)*stride + cols) must sit
 * inside a single registered tile buffer. Best-effort by design: with no
 * regions registered or after overflow it always passes. */
static int tile_contains(const float *ptr, int64_t stride, int64_t rows,
                         int64_t cols) {
  if (tile_set.count == 0 || tile_set.disabled)
    return 1;
  /* Compare as integers: the probed pointer may not point into the
   * region object at all, where raw pointer ordering is undefined. */
  uintptr_t lo = (uintptr_t)ptr;
  uintptr_t hi = lo + (uintptr_t)((rows - 1) * stride + cols) * sizeof(float);
  for (int i = 0; i < tile_set.count; ++i) {
    uintptr_t base = (uintptr_t)tile_set.regions[i].base;
    if (lo >= base && hi <= base + (uintptr_t)tile_set.regions[i].len *
                                       sizeof(float))
      return 1;
  }
  return 0;
}

/* Shared operand validation for one strided 2-D access. `in_tiles`
 * selects the tile-registry bounds check; DRAM pointers are only
 * null-checked. Returns nonzero when the caller must skip. */
static int check_access(const char *who, const void *ptr, int64_t stride,
                        int64_t rows, int64_t cols, int in_tiles) {
  if (!ptr)
    return trap(AMX_TRAP_NULL_PTR, who);
  if (rows < 1 || rows > 16 || cols < 1 || cols > 16)
    return trap(AMX_TRAP_BAD_EXTENT, who);
  if (stride < 0 || (rows > 1 && stride < cols))
    return trap(AMX_TRAP_BAD_STRIDE, who);
  if (in_tiles && !tile_contains((const float *)ptr, stride, rows, cols))
    return trap(AMX_TRAP_TILE_OOB, who);
  return 0;
}

static int injected(const char *who) {
  if (fault_fn && fault_fn())
    return trap(AMX_TRAP_INJECTED, who);
  return 0;
}

/* --- timeline model -------------------------------------------------- */

void amx_reset(void) {
  S.cpu_now = 0;
  S.lsu_busy = 0;
  S.tmul_busy = 0;
  S.ld_a_stride = 0;
  S.ld_b_stride = 0;
  S.st_stride = 0;
  S.n_config = 0;
  S.n_load_rows = 0;
  S.n_tdp = 0;
  /* Trap state, handlers, and tracked regions intentionally survive:
   * benchmarks reset timing between kernels with buffers still live. */
}

uint64_t amx_cycles(void) {
  uint64_t end = S.cpu_now;
  if (S.lsu_busy > end)
    end = S.lsu_busy;
  if (S.tmul_busy > end)
    end = S.tmul_busy;
  return end;
}

uint64_t amx_stat_config_writes(void) { return S.n_config; }
uint64_t amx_stat_tile_load_rows(void) { return S.n_load_rows; }
uint64_t amx_stat_tdps(void) { return S.n_tdp; }

static uint64_t max_u64(uint64_t a, uint64_t b) { return a > b ? a : b; }

/* Issues one instruction on a unit: the in-order front end waits for the
 * instruction's dependence chain, so execution is fully sequential. */
static void issue(uint64_t *unit_busy, uint64_t latency) {
  S.cpu_now = max_u64(S.cpu_now + AMX_ISSUE, *unit_busy) + latency;
  *unit_busy = S.cpu_now;
}

static void config_write(void) {
  S.n_config++;
  /* Engine sync: wait for both units to drain, then stall. */
  uint64_t drained = max_u64(max_u64(S.lsu_busy, S.tmul_busy), S.cpu_now);
  uint64_t done = drained + AMX_CONFIG_SYNC;
  S.cpu_now = done;
  S.lsu_busy = done;
  S.tmul_busy = done;
}

void amx_config_ld_a(int64_t src_stride) {
  S.ld_a_stride = src_stride;
  config_write();
}

void amx_config_ld_b(int64_t src_stride) {
  S.ld_b_stride = src_stride;
  config_write();
}

void amx_config_st(int64_t dst_stride) {
  S.st_stride = dst_stride;
  config_write();
}

static void do_load(const char *who, const float *src, float *tile,
                    int64_t tile_stride, int64_t rows, int64_t cols,
                    int64_t src_stride) {
  if (injected(who))
    return;
  if (check_access(who, src, src_stride, rows, cols, /*in_tiles=*/0))
    return;
  if (check_access(who, tile, tile_stride, rows, cols, /*in_tiles=*/1))
    return;
  for (int64_t r = 0; r < rows; ++r)
    for (int64_t c = 0; c < cols; ++c)
      tile[r * tile_stride + c] = src[r * src_stride + c];
  S.n_load_rows += (uint64_t)rows;
  issue(&S.lsu_busy, ((uint64_t)rows + 1) / AMX_LSU_ROWS_PER_CYC);
}

void amx_tile_load_a(const float *src, float *tile, int64_t tile_stride,
                     int64_t rows, int64_t cols) {
  do_load("amx_tile_load_a", src, tile, tile_stride, rows, cols,
          S.ld_a_stride);
}

void amx_tile_load_b(const float *src, float *tile, int64_t tile_stride,
                     int64_t rows, int64_t cols) {
  do_load("amx_tile_load_b", src, tile, tile_stride, rows, cols,
          S.ld_b_stride);
}

void amx_tile_store_acc(float *dst, const float *tile, int64_t tile_stride,
                        int64_t rows, int64_t cols) {
  if (injected("amx_tile_store_acc"))
    return;
  if (check_access("amx_tile_store_acc", tile, tile_stride, rows, cols,
                   /*in_tiles=*/1))
    return;
  if (check_access("amx_tile_store_acc", dst, S.st_stride, rows, cols,
                   /*in_tiles=*/0))
    return;
  for (int64_t r = 0; r < rows; ++r)
    for (int64_t c = 0; c < cols; ++c)
      dst[r * S.st_stride + c] += tile[r * tile_stride + c];
  issue(&S.lsu_busy, ((uint64_t)rows + 1) / AMX_LSU_ROWS_PER_CYC);
}

void amx_tile_zero(float *tile, int64_t tile_stride, int64_t rows,
                   int64_t cols) {
  if (injected("amx_tile_zero"))
    return;
  if (check_access("amx_tile_zero", tile, tile_stride, rows, cols,
                   /*in_tiles=*/1))
    return;
  for (int64_t r = 0; r < rows; ++r)
    for (int64_t c = 0; c < cols; ++c)
      tile[r * tile_stride + c] = 0.0f;
  issue(&S.tmul_busy, AMX_TILE_ZERO);
}

void amx_tile_dp(const float *a, int64_t a_stride, const float *b,
                 int64_t b_stride, float *c, int64_t c_stride, int64_t n,
                 int64_t m, int64_t k) {
  if (injected("amx_tile_dp"))
    return;
  if (check_access("amx_tile_dp(a)", a, a_stride, n, k, /*in_tiles=*/1))
    return;
  if (check_access("amx_tile_dp(b)", b, b_stride, k, m, /*in_tiles=*/1))
    return;
  if (check_access("amx_tile_dp(c)", c, c_stride, n, m, /*in_tiles=*/1))
    return;
  for (int64_t i = 0; i < n; ++i)
    for (int64_t j = 0; j < m; ++j) {
      float sum = 0.0f;
      for (int64_t kk = 0; kk < k; ++kk)
        sum += a[i * a_stride + kk] * b[kk * b_stride + j];
      c[i * c_stride + j] += sum;
    }
  S.n_tdp++;
  issue(&S.tmul_busy, AMX_TDP);
}
