# Runs PROGRAM with ARGS (one shell-style string) and fails unless it exits
# with EXPECTED_EXIT and, when STDERR_REGEX is set, its stderr matches it.
#
#   cmake -DPROGRAM=... -DARGS="..." -DEXPECTED_EXIT=N [-DSTDERR_REGEX=...]
#         -P expect_exit.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${PROGRAM} ${args}
                RESULT_VARIABLE exit_code
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT exit_code STREQUAL EXPECTED_EXIT)
  message(FATAL_ERROR "${PROGRAM} ${ARGS}: exit ${exit_code}, expected "
                      "${EXPECTED_EXIT}\nstdout:\n${out}\nstderr:\n${err}")
endif()
if(DEFINED STDERR_REGEX AND NOT err MATCHES "${STDERR_REGEX}")
  message(FATAL_ERROR "${PROGRAM} ${ARGS}: stderr does not match "
                      "'${STDERR_REGEX}':\n${err}")
endif()
