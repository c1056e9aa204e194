# Runs a bench twice, at --jobs=1 and --jobs=4, and fails unless both runs
# exit 0, print byte-identical stdout (printed tables included, which
# bench_diff does not see), and write reports whose allocation counts match:
# `calls`, `allocs` and `alloc_bytes` of every `phases` entry, and `events`,
# `allocs` and `alloc_bytes` of every `event_profile.labels` entry. stderr,
# where the wall time goes, is not compared.
#
#   cmake -DBENCH=<binary> "-DARGS=<flags>" -DOUT_DIR=<dir>
#         -P same_stdout_across_jobs.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
foreach(jobs 1 4)
  execute_process(COMMAND ${BENCH} ${args} --jobs=${jobs}
                          --bench-out=${OUT_DIR}/jobs${jobs}.json
                  OUTPUT_VARIABLE stdout_${jobs}
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${BENCH} --jobs=${jobs} exited with ${rc}")
  endif()
  file(READ ${OUT_DIR}/jobs${jobs}.json report_${jobs})
endforeach()
if(NOT stdout_1 STREQUAL stdout_4)
  message(FATAL_ERROR "stdout differs between --jobs=1 and --jobs=4\n"
                      "--- jobs=1:\n${stdout_1}\n--- jobs=4:\n${stdout_4}")
endif()

# Compares `fields` of every entry of the array at JSON path `array` (a
# list of keys), naming each entry by its `name_key`.
function(expect_same_entries array name_key fields)
  string(REPLACE ";" "." where "${array}")
  string(JSON n1 LENGTH "${report_1}" ${array})
  string(JSON n4 LENGTH "${report_4}" ${array})
  if(NOT n1 EQUAL n4)
    message(FATAL_ERROR "${where}: ${n1} entries at --jobs=1, ${n4} at --jobs=4")
  endif()
  if(n1 EQUAL 0)
    return()
  endif()
  math(EXPR last "${n1} - 1")
  foreach(i RANGE ${last})
    foreach(field ${name_key} ${fields})
      string(JSON v1 GET "${report_1}" ${array} ${i} ${field})
      string(JSON v4 GET "${report_4}" ${array} ${i} ${field})
      if(NOT v1 STREQUAL v4)
        string(JSON name GET "${report_1}" ${array} ${i} ${name_key})
        string(APPEND diffs "\n  ${where} ${name} ${field}: ${v1} at --jobs=1, ${v4} at --jobs=4")
      endif()
    endforeach()
  endforeach()
  set(diffs "${diffs}" PARENT_SCOPE)
endfunction()

set(diffs "")
expect_same_entries(phases phase "calls;allocs;alloc_bytes")
expect_same_entries("event_profile;labels" label "events;allocs;alloc_bytes")
if(NOT diffs STREQUAL "")
  message(FATAL_ERROR "allocation counts differ between --jobs=1 and --jobs=4:${diffs}")
endif()
