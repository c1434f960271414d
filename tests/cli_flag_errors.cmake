# Runs each bad `delaystage_cli` invocation below and fails unless every one
# exits 1 with an `error: …` line on stderr that is a ds::Status message
# naming the problem, not a failed internal check (no `check failed`), and
# none hangs:
#   cmake -DCLI=<delaystage_cli> -DINPUT=<file> -P cli_flag_errors.cmake
# Each case is `<text the error must contain>|<arguments…>`, split on `|`.
set(cases
    "--cache-shards|serve|--cache-shards|-1"
    "--cache-shards|serve|--cache-shards|100000000000"
    "--cache-capacity|serve|--cache-capacity|-1"
    "--batch|serve|--batch|-1"
    "--jobs|sched|--jobs|-5"
    "task_failure_rate|run|--fail-rate|1"
    "crash target 31|run|--crash|31@10"
    "negative crash time|run|--crash|1@-5"
    "crash_horizon|run|--crash-rate|1e-3"
    "max_attempts|run|--max-attempts|0"
    "pipelined shuffle|run|--strategy|AggShuffle|--fail-rate|0.1"
    "pipelined shuffle|run|--strategy|AggShuffle|--crash|1@10"
    "unknown strategy 'Bogus'|run|--strategy|Bogus")
file(WRITE ${INPUT} "{\"id\": 1, \"workload\": \"lda\"}\n")
set(failures "")
foreach(case IN LISTS cases)
  string(REPLACE "|" ";" args "${case}")
  list(POP_FRONT args needle)
  string(REPLACE ";" " " shown "${args}")
  execute_process(COMMAND ${CLI} ${args} INPUT_FILE ${INPUT} TIMEOUT 20
                  OUTPUT_QUIET ERROR_VARIABLE err RESULT_VARIABLE rc)
  string(FIND "${err}" "${needle}" at)
  if(NOT rc STREQUAL "1")
    string(APPEND failures "`${shown}` exited with '${rc}', want 1\n")
  elseif(NOT err MATCHES "^error: " OR err MATCHES "check failed" OR
         at EQUAL -1)
    string(APPEND failures
           "`${shown}` printed no Status error about '${needle}': ${err}")
  endif()
endforeach()
file(REMOVE ${INPUT})
if(failures)
  message(FATAL_ERROR "${failures}")
endif()
