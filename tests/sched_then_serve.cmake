# Runs a short `sched --store` stream, then asks `serve --store` for its
# stats, and fails unless the store holds the four workloads the stream
# calibrated:
#   cmake -DCLI=<delaystage_cli> -DSTORE=<file> -P sched_then_serve.cmake
file(REMOVE ${STORE})
execute_process(COMMAND ${CLI} sched --jobs 8 --rate 0.01 --seed 3
                        --store ${STORE}
                OUTPUT_QUIET ERROR_QUIET RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "sched --store ${STORE} exited with ${rc}")
endif()
file(WRITE ${STORE}.stats "{\"id\": 1, \"cmd\": \"stats\"}\n")
execute_process(COMMAND ${CLI} serve --threads 1 --store ${STORE}
                INPUT_FILE ${STORE}.stats OUTPUT_VARIABLE out ERROR_QUIET
                RESULT_VARIABLE rc)
file(REMOVE ${STORE} ${STORE}.stats)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "serve --store ${STORE} exited with ${rc}")
endif()
string(FIND "${out}" "\"workloads\": 4" at)
if(at EQUAL -1)
  message(FATAL_ERROR "serve did not find the 4 calibrated workloads: ${out}")
endif()
