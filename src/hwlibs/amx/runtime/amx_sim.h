/*===- amx_sim.h - AMX-style tile engine simulator --------------- C ----===
 *
 * Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
 *
 * A functional, cycle-approximate model of an Intel AMX-style matrix
 * tile engine: a file of 16x16 tile registers fed by a load/store unit
 * and a TMUL dot-product unit. Like the Gemmini model this exists so a
 * *second* accelerator can be brought up entirely as a user library —
 * the core compiler knows neither target.
 *
 * The model charges the costs the schedules optimize:
 *
 *   - tile-configuration writes (ldtilecfg in real AMX) synchronize the
 *     whole engine before taking effect — the expensive operation that
 *     config hoisting removes,
 *   - tile loads/stores move rows at an LSU bandwidth,
 *   - a 16x16x16 tile dot-product runs on the TMUL unit,
 *   - every instruction pays a front-end issue cost.
 *
 * Functionally, tile contents live in host memory; generated Exo code
 * can never address them directly (the AMX_TILE memory is
 * non-addressable), so only these instruction calls observe that
 * simplification.
 *
 * Every data instruction validates its operands before touching memory
 * and raises a structured trap (code + message) through a configurable
 * handler on violation. The default handler prints and aborts, like the
 * #GP a real tile instruction takes on a bad config; tests install a
 * recording handler and the faulting instruction is skipped.
 *
 *===----------------------------------------------------------------------===*/

#ifndef EXO_AMX_SIM_H
#define EXO_AMX_SIM_H

#include <stdint.h>

#ifdef __cplusplus
extern "C" {
#endif

/* --- timing model parameters (cycles) --- */
enum {
  AMX_CONFIG_SYNC = 50,     /* engine sync on any tile-config write */
  AMX_ISSUE = 1,            /* front-end issue overhead */
  AMX_LSU_ROWS_PER_CYC = 2, /* tile load/store rows moved per cycle */
  AMX_TDP = 16,             /* 16x16x16 tile dot-product (pipelined) */
  AMX_TILE_ZERO = 1,
};

/* --- structured trap codes --- */
enum {
  AMX_TRAP_NONE = 0,
  AMX_TRAP_NULL_PTR = 1,   /* instruction operand pointer is NULL */
  AMX_TRAP_BAD_EXTENT = 2, /* rows/cols/n/m/k outside 1..16 */
  AMX_TRAP_BAD_STRIDE = 3, /* row stride negative or narrower than the
                              accessed row width */
  AMX_TRAP_TILE_OOB = 4,   /* tile access outside every registered
                              tile buffer */
  AMX_TRAP_INJECTED = 5,   /* raised by the fault-injection hook */
};

/* Human-readable name of a trap code ("null-pointer", "tile-oob", ...). */
const char *amx_trap_name(int code);

/* Trap handler: receives the code and a static description. The default
 * prints to stderr and aborts. If an installed handler returns, the
 * faulting instruction is skipped (no memory access, no cycles charged).
 * Passing NULL restores the default. Returns the previous handler. */
typedef void (*amx_trap_fn)(int code, const char *what);
amx_trap_fn amx_set_trap_handler(amx_trap_fn fn);

/* Trap bookkeeping (survives amx_reset; cleared explicitly). */
uint64_t amx_trap_count(void);
int amx_last_trap(void);
void amx_clear_traps(void);

/* --- tile region registry ---
 * Generated code registers each live AMX_TILE buffer (the Exo memory
 * definition emits these calls around allocations); instructions then
 * bounds-check their tile-side accesses against the registry. With no
 * registered regions the checks are skipped (hand-written callers keep
 * working unchecked); on registry overflow checking is disabled rather
 * than raising false traps. */
void amx_tile_track(const float *base, int64_t n_floats);
void amx_tile_untrack(const float *base);
/* Forgets every tracked tile buffer and re-enables checking after an
 * overflow (called between kernels that share one simulator copy). */
void amx_clear_regions(void);

/* Fault-injection hook: called at the top of every data instruction;
 * returning nonzero raises AMX_TRAP_INJECTED. NULL (default) = off. */
typedef int (*amx_fault_fn)(void);
void amx_set_fault_fn(amx_fault_fn fn);

/* Resets cycle counters and statistics. Trap state, the trap handler,
 * the fault hook, and tracked regions are deliberately preserved. */
void amx_reset(void);

/* Total cycles consumed so far. */
uint64_t amx_cycles(void);

/* Statistics. */
uint64_t amx_stat_config_writes(void);
uint64_t amx_stat_tile_load_rows(void);
uint64_t amx_stat_tdps(void);

/* --- configuration instructions (synchronize the engine) ---
 * Real AMX packs strides into the sib operand of every tileloadd; this
 * model keeps them in tile-config state instead so that configuration
 * cost exists for schedules to hoist — the same design pressure the
 * Gemmini library exposes. Two load channels, one store channel. */
void amx_config_ld_a(int64_t src_stride);
void amx_config_ld_b(int64_t src_stride);
void amx_config_st(int64_t dst_stride);

/* --- data movement ---
 * DRAM pointers use the configured stride between rows; the tile side is
 * dense rows of 16 floats. */
void amx_tile_load_a(const float *src, float *tile, int64_t tile_stride,
                     int64_t rows, int64_t cols);
void amx_tile_load_b(const float *src, float *tile, int64_t tile_stride,
                     int64_t rows, int64_t cols);
/* tilestored variant that accumulates into DRAM. */
void amx_tile_store_acc(float *dst, const float *tile, int64_t tile_stride,
                        int64_t rows, int64_t cols);

/* Zeroes a tile (tilezero). */
void amx_tile_zero(float *tile, int64_t tile_stride, int64_t rows,
                   int64_t cols);

/* 16x16x16 (or smaller) tile dot-product: c[n,m] += a[n,k] * b[k,m].
 * All three operands are tiles; row strides are explicit. */
void amx_tile_dp(const float *a, int64_t a_stride, const float *b,
                 int64_t b_stride, float *c, int64_t c_stride, int64_t n,
                 int64_t m, int64_t k);

#ifdef __cplusplus
} /* extern "C" */
#endif

#endif /* EXO_AMX_SIM_H */
