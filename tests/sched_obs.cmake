# Runs the CI observability smoke's `sched` fleet (flight recorder, streaming
# telemetry and an SLO rule armed, at a coarser telemetry period) and fails
# unless its stdout, flight trail and telemetry stream each equal their
# golden byte for byte:
#   cmake -DCLI=<delaystage_cli> -DOUT=<dir> -DGOLDEN=<dir> -P sched_obs.cmake
set(flight ${OUT}/flight.ndjson)
set(telemetry ${OUT}/telemetry.ndjson)
file(REMOVE ${flight} ${telemetry})
execute_process(COMMAND ${CLI} sched --jobs 10 --rate 0.05 --seed 7
                        --flight-out ${flight} --telemetry-out ${telemetry}
                        --telemetry-period 600 --slo p99_slowdown<=3.0
                OUTPUT_VARIABLE stdout ERROR_QUIET RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "sched exited with ${rc}")
endif()
file(READ ${flight} flight_text)
file(READ ${telemetry} telemetry_text)
file(REMOVE ${flight} ${telemetry})
foreach(pair "stdout;sched_obs.txt" "flight_text;sched_obs_flight.ndjson"
             "telemetry_text;sched_obs_telemetry.ndjson")
  list(GET pair 0 var)
  list(GET pair 1 golden)
  file(READ ${GOLDEN}/${golden} expected)
  if(NOT "${${var}}" STREQUAL "${expected}")
    message(FATAL_ERROR "sched output differs from ${GOLDEN}/${golden}")
  endif()
endforeach()
