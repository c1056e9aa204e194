# Generates a small core topology and runs `scion-mpr quality` on it at
# --seed=1 and --seed=5; fails unless both runs exit 0 and print different
# output (the seed drives the simulations and the pair draws).
#
#   cmake -DCLI=<scion-mpr> -DOUT_DIR=<dir> -P cli_quality_seed.cmake
set(topology ${OUT_DIR}/core.topo)
execute_process(COMMAND ${CLI} gen --kind=core --ases=200 --cores=16 --isds=4
                        --out=${topology}
                RESULT_VARIABLE rc
                OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "scion-mpr gen exited with ${rc}")
endif()
foreach(seed 1 5)
  execute_process(COMMAND ${CLI} quality --topology=${topology} --pairs=30
                          --hours=1 --seed=${seed}
                  OUTPUT_VARIABLE stdout_${seed}
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "scion-mpr quality --seed=${seed} exited with ${rc}")
  endif()
endforeach()
if(stdout_1 STREQUAL stdout_5)
  message(FATAL_ERROR "scion-mpr quality printed the same at --seed=1 and "
                      "--seed=5:\n${stdout_1}")
endif()
