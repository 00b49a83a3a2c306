# Runs CMD (comma-separated) and requires exit status 2 with stderr
# matching the regex PATTERN: a bad command line must fail before any
# simulation runs, with a message that names the offending flag.
#
#   cmake "-DCMD=camps_sim,--warmup=abc" "-DPATTERN=--warmup expects"
#         -P expect_usage_error.cmake
string(REPLACE "," ";" cmd "${CMD}")
execute_process(COMMAND ${cmd}
                RESULT_VARIABLE status
                OUTPUT_VARIABLE output
                ERROR_VARIABLE errors)
if(NOT status EQUAL 2)
  message(FATAL_ERROR "exited with ${status}, expected 2:\n${errors}")
endif()
if(NOT errors MATCHES "${PATTERN}")
  message(FATAL_ERROR "stderr does not match \"${PATTERN}\":\n${errors}")
endif()
