# Runs a command line that must be rejected, and fails unless the command
# exits with STATUS (default 2, a usage error) and EXPECT in its stderr.
# With EMPTY_STDOUT, it also fails if the command printed anything on
# stdout: the benches and the CLI print their figure only after the run,
# so an empty stdout shows the run never started.
#
#   cmake "-DCOMMAND=<binary> <args>" "-DEXPECT=<stderr text>" [-DSTATUS=<n>]
#         [-DEMPTY_STDOUT=ON] -P expect_usage_error.cmake
if(NOT DEFINED STATUS)
  set(STATUS 2)
endif()
separate_arguments(command UNIX_COMMAND "${COMMAND}")
execute_process(COMMAND ${command}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE stdout
                ERROR_VARIABLE stderr)
if(NOT rc EQUAL STATUS)
  message(FATAL_ERROR "${COMMAND} exited with ${rc}, expected ${STATUS}\n${stderr}")
endif()
string(FIND "${stderr}" "${EXPECT}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "stderr of ${COMMAND} lacks \"${EXPECT}\":\n${stderr}")
endif()
if(EMPTY_STDOUT AND NOT stdout STREQUAL "")
  message(FATAL_ERROR "${COMMAND} printed on stdout, so the run started:\n${stdout}")
endif()
