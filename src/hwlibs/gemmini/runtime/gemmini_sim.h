/*===- gemmini_sim.h - Gemmini accelerator simulator ------------- C ----===
 *
 * Part of ExoCC, a C++ reimplementation of the Exo exocompiler (PLDI 2022).
 *
 * A functional, cycle-approximate model of the Berkeley Gemmini DNN
 * accelerator (Genc et al., DAC 2021) standing in for the real RTL the
 * paper evaluates on. The model charges the costs the paper's schedules
 * optimize:
 *
 *   - configuration writes flush the pipeline (the expensive operation
 *     the Section 2 hoisting removes),
 *   - mvin/mvout move rows at a DMA bandwidth on a load/store unit,
 *   - 16x16x16 matmuls run on the systolic array at 256 MACs/cycle,
 *   - every instruction pays a RoCC issue cost on the CPU side,
 *   - in EXO_GEMMINI_MODE_HW ("hardware loop unroller"), DMA and compute
 *     timelines overlap perfectly and issue costs amortize, modeling the
 *     dynamically-scheduled CISC instructions of the paper's "Hardware"
 *     baseline.
 *
 * Functionally, scratchpad and accumulator contents live in host memory;
 * generated Exo code can never touch them directly (the SCRATCH/ACC
 * memories are non-addressable), so only these instruction calls observe
 * that simplification.
 *
 * Every instruction validates its operands before touching memory — null
 * pointers, extents outside the 16x16 tile the ISA supports, strides
 * narrower than a row, and (when regions are registered) scratchpad or
 * accumulator accesses outside any live buffer. A violation raises a
 * structured trap (a code plus a message) through a configurable handler
 * instead of corrupting memory: the default handler prints and aborts,
 * mirroring real hardware's bus error, while tests install a recording
 * handler and the faulting instruction is skipped.
 *
 *===----------------------------------------------------------------------===*/

#ifndef EXO_GEMMINI_SIM_H
#define EXO_GEMMINI_SIM_H

#include <stdint.h>

#ifdef __cplusplus
extern "C" {
#endif

enum {
  EXO_GEMMINI_MODE_SW = 0, /* software-controlled (Old-lib / Exo-lib) */
  EXO_GEMMINI_MODE_HW = 1, /* hardware loop unrollers */
};

/* --- timing model parameters (cycles) --- */
enum {
  GEMMINI_CONFIG_FLUSH = 70,     /* pipeline flush on any config write */
  GEMMINI_ISSUE = 1,             /* RoCC instruction issue overhead */
  GEMMINI_DMA_ROWS_PER_CYC = 2,  /* mvin/mvout rows moved per cycle */
  GEMMINI_MATMUL16 = 16,         /* 16x16x16 tile matmul (pipelined) */
  GEMMINI_PRELOAD = 2,
};

/* --- structured trap codes --- */
enum {
  GEMMINI_TRAP_NONE = 0,
  GEMMINI_TRAP_NULL_PTR = 1,   /* instruction operand pointer is NULL */
  GEMMINI_TRAP_BAD_EXTENT = 2, /* rows/cols/n/m/k outside 1..16 */
  GEMMINI_TRAP_BAD_STRIDE = 3, /* row stride negative or narrower than
                                  the accessed row width */
  GEMMINI_TRAP_SPAD_OOB = 4,   /* scratchpad access outside every
                                  registered region */
  GEMMINI_TRAP_ACC_OOB = 5,    /* accumulator access outside every
                                  registered region */
  GEMMINI_TRAP_INJECTED = 6,   /* raised by the fault-injection hook */
};

/* Human-readable name of a trap code ("null-pointer", "spad-oob", ...). */
const char *gemmini_trap_name(int code);

/* Trap handler: receives the code and a static description. The default
 * prints to stderr and aborts. If an installed handler returns, the
 * faulting instruction is skipped (no memory access, no cycles charged).
 * Passing NULL restores the default. Returns the previous handler. */
typedef void (*gemmini_trap_fn)(int code, const char *what);
gemmini_trap_fn gemmini_set_trap_handler(gemmini_trap_fn fn);

/* Trap bookkeeping (survives gemmini_reset; cleared explicitly). */
uint64_t gemmini_trap_count(void);
int gemmini_last_trap(void);
void gemmini_clear_traps(void);

/* --- scratchpad / accumulator region registry ---
 * Generated code registers each live SCRATCH/ACC buffer (the Exo memory
 * definitions emit these calls around allocations); instructions then
 * bounds-check their scratchpad-side accesses against the registry.
 * With no registered regions of a given kind, that kind's checks are
 * skipped (hand-written callers keep working unchecked). If the fixed
 * registry overflows, checking of that kind is disabled rather than
 * raising false traps. */
void gemmini_spad_track(const float *base, int64_t n_floats);
void gemmini_spad_untrack(const float *base);
void gemmini_acc_track(const float *base, int64_t n_floats);
void gemmini_acc_untrack(const float *base);
/* Forgets every tracked region of both kinds and re-enables checking after
 * an overflow. Hosts that run several kernels in one simulator copy call
 * it between kernels, so one kernel's leftovers cannot switch off the
 * next kernel's checks. */
void gemmini_clear_regions(void);

/* Fault-injection hook: called at the top of every data instruction;
 * returning nonzero raises GEMMINI_TRAP_INJECTED. NULL (default) = off. */
typedef int (*gemmini_fault_fn)(void);
void gemmini_set_fault_fn(gemmini_fault_fn fn);

/* Resets cycle counters and statistics; selects the execution mode.
 * Trap state, the trap handler, the fault hook, and tracked regions are
 * deliberately preserved (timing runs reset between kernels while the
 * same buffers stay live). */
void gemmini_reset(int mode);

/* Total cycles consumed so far. */
uint64_t gemmini_cycles(void);

/* Statistics. */
uint64_t gemmini_stat_config_writes(void);
uint64_t gemmini_stat_mvin_rows(void);
uint64_t gemmini_stat_matmuls(void);

/* --- configuration instructions (flush the pipeline) --- */
void gemmini_config_ld(int64_t src_stride);  /* mvin channel 1 */
void gemmini_config_ld2(int64_t src_stride); /* mvin channel 2 */
void gemmini_config_st(int64_t dst_stride);

/* --- data movement ---
 * src/dst DRAM pointers use the configured stride between rows; the
 * scratchpad/accumulator side is dense rows of 16 floats. */
void gemmini_mvin(const float *src, float *spad_dst, int64_t dst_stride,
                  int64_t rows, int64_t cols);
void gemmini_mvin2(const float *src, float *spad_dst, int64_t dst_stride,
                   int64_t rows, int64_t cols);
/* mvout accumulates into DRAM (our ISA's accumulate-on-store). */
void gemmini_mvout_acc(float *dst, const float *acc_src, int64_t src_stride,
                       int64_t rows, int64_t cols);
/* mvout with fused ReLU activation (assignment, not accumulation). */
void gemmini_mvout_relu(float *dst, const float *acc_src, int64_t src_stride,
                        int64_t rows, int64_t cols);

/* Zeroes a tile of the accumulator. */
void gemmini_zero_acc(float *acc, int64_t acc_stride, int64_t rows,
                      int64_t cols);

/* 16x16x16 (or smaller) tile matmul: acc[n,m] += a[n,k] * b[k,m].
 * a and b live in the scratchpad, acc in the accumulator; row strides are
 * explicit (scratchpad buffers may be wider panels). */
void gemmini_matmul(const float *a, int64_t a_stride, const float *b,
                    int64_t b_stride, float *acc, int64_t c_stride,
                    int64_t n, int64_t m, int64_t k);

#ifdef __cplusplus
} /* extern "C" */
#endif

#endif /* EXO_GEMMINI_SIM_H */
