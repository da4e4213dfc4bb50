# Runs exocc-soak's warm-vs-cold bench with --batch naming a symlink to
# exocc-batch inside a directory whose name contains a space: the cold
# side must start the compiler without a shell to find it.
#
# Usage:
#   cmake -DSOAK=<exocc-soak> -DSERVE=<exocc-serve> -DBATCH=<exocc-batch>
#         -DDIR=<scratch dir, may contain spaces> -P SoakBenchSpacePath.cmake
foreach(Var SOAK SERVE BATCH DIR)
  if(NOT DEFINED ${Var})
    message(FATAL_ERROR "SoakBenchSpacePath.cmake needs -D${Var}")
  endif()
endforeach()
file(REMOVE_RECURSE "${DIR}")
file(MAKE_DIRECTORY "${DIR}")
file(CREATE_LINK "${BATCH}" "${DIR}/exocc-batch" SYMBOLIC)
execute_process(
  COMMAND "${SOAK}" --bench --serve "${SERVE}" --batch "${DIR}/exocc-batch"
          --warm-reps 2 --cold-reps 1 --min-speedup 0
          --json "${DIR}/BENCH_serve.json"
  RESULT_VARIABLE RC)
if(NOT RC EQUAL 0)
  message(FATAL_ERROR "exocc-soak --bench failed with status ${RC}")
endif()
