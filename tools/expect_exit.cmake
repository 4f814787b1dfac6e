# Run CLI with ARGS (space-separated) and fail unless it exits with
# EXPECTED and writes exactly one "fatal:" line to stderr.
#
#   cmake -DCLI=<exe> "-DARGS=--isa vector" -DEXPECTED=2 -P expect_exit.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${CLI}" ${args}
    RESULT_VARIABLE result
    OUTPUT_QUIET
    ERROR_VARIABLE err)
if(NOT result STREQUAL "${EXPECTED}")
    message(FATAL_ERROR
        "'${ARGS}' exited with '${result}', want ${EXPECTED}:\n${err}")
endif()
string(REGEX MATCHALL "fatal:" fatals "${err}")
list(LENGTH fatals count)
if(NOT count EQUAL 1)
    message(FATAL_ERROR "want one fatal: line on stderr, got:\n${err}")
endif()
