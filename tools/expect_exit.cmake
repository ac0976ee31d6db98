# Runs PROGRAM with ARGS (one space-separated string) and fails unless it
# exits with EXIT_CODE and its stderr contains STDERR. ctest cases use it
# to pin how a CLI refuses a bad argument:
#   cmake -DPROGRAM=... -DARGS=... -DEXIT_CODE=2 -DSTDERR=... -P expect_exit.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${PROGRAM}" ${args}
                RESULT_VARIABLE code
                OUTPUT_QUIET
                ERROR_VARIABLE err
                TIMEOUT 10)
if(NOT code STREQUAL EXIT_CODE)
  message(FATAL_ERROR "${PROGRAM} ${ARGS}: exit '${code}', want "
                      "${EXIT_CODE}; stderr: ${err}")
endif()
string(FIND "${err}" "${STDERR}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "${PROGRAM} ${ARGS}: stderr lacks '${STDERR}': ${err}")
endif()
