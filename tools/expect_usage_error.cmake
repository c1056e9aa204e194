# Runs a command line that must be rejected, and fails unless the command
# exits 2 with EXPECT in its stderr.
#
#   cmake "-DCOMMAND=<binary> <args>" "-DEXPECT=<stderr text>"
#         -P expect_usage_error.cmake
separate_arguments(command UNIX_COMMAND "${COMMAND}")
execute_process(COMMAND ${command}
                RESULT_VARIABLE rc
                OUTPUT_QUIET
                ERROR_VARIABLE stderr)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "${COMMAND} exited with ${rc}, expected 2\n${stderr}")
endif()
string(FIND "${stderr}" "${EXPECT}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "stderr of ${COMMAND} lacks \"${EXPECT}\":\n${stderr}")
endif()
