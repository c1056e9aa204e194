# Runs a bench twice, at --jobs=1 and --jobs=4, and fails unless both runs
# exit 0 and print byte-identical stdout (printed tables included, which
# bench_diff does not see). stderr, where the wall time goes, is not
# compared.
#
#   cmake -DBENCH=<binary> "-DARGS=<flags>" -P same_stdout_across_jobs.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
foreach(jobs 1 4)
  execute_process(COMMAND ${BENCH} ${args} --jobs=${jobs}
                  OUTPUT_VARIABLE stdout_${jobs}
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${BENCH} --jobs=${jobs} exited with ${rc}")
  endif()
endforeach()
if(NOT stdout_1 STREQUAL stdout_4)
  message(FATAL_ERROR "stdout differs between --jobs=1 and --jobs=4\n"
                      "--- jobs=1:\n${stdout_1}\n--- jobs=4:\n${stdout_4}")
endif()
