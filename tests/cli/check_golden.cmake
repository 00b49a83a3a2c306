# Runs camps_bench on PRESETS with ARGS (both comma-separated) and requires
# its stdout to equal the goldens: GOLDEN_DIR/<preset>.txt for each preset,
# joined by the blank line camps_bench prints between presets. On a
# mismatch the actual output is left in OUT for diffing.
#
#   cmake -DBENCH=camps_bench -DPRESETS=fig5_speedup,fig6_conflicts
#         -DARGS=--quiet,--jobs=2 -DGOLDEN_DIR=tests/cli/golden
#         -DOUT=fig.out -P check_golden.cmake
string(REPLACE "," ";" presets "${PRESETS}")
string(REPLACE "," ";" args "${ARGS}")
set(expected "")
foreach(preset IN LISTS presets)
  if(NOT expected STREQUAL "")
    string(APPEND expected "\n")
  endif()
  file(READ "${GOLDEN_DIR}/${preset}.txt" golden)
  string(APPEND expected "${golden}")
endforeach()

execute_process(COMMAND "${BENCH}" ${presets} ${args}
                RESULT_VARIABLE status
                OUTPUT_VARIABLE actual
                ERROR_VARIABLE errors)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "camps_bench exited with ${status}:\n${errors}")
endif()
if(NOT actual STREQUAL expected)
  file(WRITE "${OUT}" "${actual}")
  message(FATAL_ERROR
    "camps_bench stdout differs from the goldens in ${GOLDEN_DIR}; "
    "the actual output is in ${OUT}")
endif()
