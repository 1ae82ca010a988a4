# Run the gpumech CLI and compare its exit code against an expected
# value. Invoked by the cli_exit_* ctest entries (see CMakeLists.txt):
#
#   cmake -DGPUMECH_BIN=<path> "-DGPUMECH_ARGS=a;b;c"
#         -DEXPECTED_CODE=N [-DSTDIN_FILE=<path>]
#         [-DSTDERR_REGEX=<regex>] -P cli_exit_code.cmake
#
# The exit-code contract this pins: 0 full success, 2 partial success
# (contained per-kernel failures), 1 total failure (bad arguments, bad
# config, or every kernel failed).

if(NOT DEFINED GPUMECH_BIN OR NOT DEFINED EXPECTED_CODE)
    message(FATAL_ERROR "GPUMECH_BIN and EXPECTED_CODE are required")
endif()

# Optional STDIN_FILE feeds the binary's stdin (the daemon reads it).
set(input_args)
if(DEFINED STDIN_FILE)
    set(input_args INPUT_FILE ${STDIN_FILE})
endif()

execute_process(
    COMMAND ${GPUMECH_BIN} ${GPUMECH_ARGS}
    ${input_args}
    RESULT_VARIABLE actual_code
    OUTPUT_VARIABLE run_output
    ERROR_VARIABLE run_errors)

if(NOT actual_code EQUAL EXPECTED_CODE)
    message(FATAL_ERROR
        "gpumech ${GPUMECH_ARGS} exited ${actual_code}, "
        "expected ${EXPECTED_CODE}\nstdout:\n${run_output}\n"
        "stderr:\n${run_errors}")
endif()

# Optional STDERR_REGEX must match the binary's stderr.
if(DEFINED STDERR_REGEX AND NOT run_errors MATCHES "${STDERR_REGEX}")
    message(FATAL_ERROR
        "gpumech ${GPUMECH_ARGS} stderr does not match "
        "'${STDERR_REGEX}':\n${run_errors}")
endif()
