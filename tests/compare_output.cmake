# Runs `${BIN} ${ENTRY}` and fails unless its whole stdout equals the file
# ${GOLDEN} byte for byte:
#   cmake -DBIN=<binary> -DENTRY=<argument> -DGOLDEN=<file> -P compare_output.cmake
execute_process(COMMAND ${BIN} ${ENTRY} OUTPUT_VARIABLE actual
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BIN} ${ENTRY} exited with ${rc}")
endif()
file(READ ${GOLDEN} expected)
if(NOT "${actual}" STREQUAL "${expected}")
  message(FATAL_ERROR "stdout of `${BIN} ${ENTRY}` differs from ${GOLDEN}")
endif()
