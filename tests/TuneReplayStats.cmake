# Replays a committed tuner trace with `exocc-tune --replay --json` and
# checks the run's report: replay builds at least one module, so its
# wall time and JIT compile count must not read zero, and the trace must
# still score its recorded cycles.
#
# Usage:
#   cmake -DTUNE=<exocc-tune> -DTRACE=<trace file> -DJSON=<report path>
#         -DCYCLES=<expected best_cycles> -P TuneReplayStats.cmake
if(NOT DEFINED TUNE OR NOT DEFINED TRACE OR NOT DEFINED JSON
   OR NOT DEFINED CYCLES)
  message(FATAL_ERROR
          "TuneReplayStats.cmake needs -DTUNE, -DTRACE, -DJSON, -DCYCLES")
endif()
file(REMOVE "${JSON}")
execute_process(
  COMMAND "${TUNE}" --kernel gemmini_matmul --replay "${TRACE}" --json "${JSON}"
  RESULT_VARIABLE RC)
if(NOT RC EQUAL 0)
  message(FATAL_ERROR "exocc-tune --replay failed with status ${RC}")
endif()
file(READ "${JSON}" Report)
string(JSON WallMs GET "${Report}" wall_ms)
string(JSON Compiles GET "${Report}" jit compiles)
string(JSON BestCycles GET "${Report}" best_cycles)
message(STATUS "replay: wall_ms ${WallMs}, jit.compiles ${Compiles}, "
               "best_cycles ${BestCycles}")
if(NOT WallMs GREATER 0)
  message(FATAL_ERROR "replay reports wall_ms ${WallMs}, expected > 0")
endif()
if(Compiles LESS 1)
  message(FATAL_ERROR "replay reports jit.compiles ${Compiles}, expected >= 1")
endif()
if(NOT BestCycles EQUAL CYCLES)
  message(FATAL_ERROR "replay reports best_cycles ${BestCycles}, "
                      "expected ${CYCLES}")
endif()
