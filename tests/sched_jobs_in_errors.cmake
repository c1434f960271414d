# Feeds `sched --jobs-in` one good line and two it must reject, and fails
# unless the bad lines get error rows and the good job still runs, its row
# echoing the line's "id" as "request_id":
#   cmake -DCLI=<delaystage_cli> -DINPUT=<file> -P sched_jobs_in_errors.cmake
file(WRITE ${INPUT} "{\"id\": 7, \"workload\": \"als\"}\n"
                    "{\"workload\": \"lda\", \"arrival\": \"soon\"}\n"
                    "{\"id\": 3, \"cmd\": \"save\"}\n")
execute_process(COMMAND ${CLI} sched --jobs-in ${INPUT}
                OUTPUT_VARIABLE out ERROR_QUIET RESULT_VARIABLE rc)
file(REMOVE ${INPUT})
if(NOT rc EQUAL 1)
  message(FATAL_ERROR "sched --jobs-in exited with ${rc}, want 1:\n${out}")
endif()
foreach(row "{\"v\": 1, \"id\": null, \"error\": \"line 2: \\\"arrival\\\""
            "{\"v\": 1, \"id\": 3, \"error\": \"line 3: cmd \\\"save\\\"")
  string(FIND "${out}" "${row}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "no error row starting ${row}:\n${out}")
  endif()
endforeach()
string(REGEX MATCHALL "\"name\": \"[A-Za-z]+\", \"state\": \"finished\""
       jobs "${out}")
if(NOT jobs STREQUAL "\"name\": \"ALS\", \"state\": \"finished\"")
  message(FATAL_ERROR "want one finished ALS job row, got '${jobs}':\n${out}")
endif()
string(FIND "${out}" "\"request_id\": 7, \"name\": \"ALS\"" at)
if(at EQUAL -1)
  message(FATAL_ERROR "the ALS row does not carry \"request_id\": 7:\n${out}")
endif()
