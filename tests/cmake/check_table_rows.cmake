# Check the table rows a bench binary prints: run it with BENCH_ARGS,
# require exit code 0, and require the first cells of all table body rows
# (every "| ..." line except headings and the "algorithm" header) to equal
# EXPECTED_ROWS in order. Invoked from CTest (see CMakeLists.txt):
#
#   cmake -DBENCH=<binary> -DBENCH_ARGS="--tasks=30 ..." \
#         "-DEXPECTED_ROWS=ASAP;press" -P check_table_rows.cmake

separate_arguments(BENCH_ARG_LIST UNIX_COMMAND "${BENCH_ARGS}")

execute_process(
  COMMAND ${BENCH} ${BENCH_ARG_LIST}
  OUTPUT_VARIABLE actual
  ERROR_VARIABLE errors
  RESULT_VARIABLE rc)

if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with ${rc}: ${errors}")
endif()

string(REPLACE "\n" ";" lines "${actual}")
set(rows "")
foreach(line IN LISTS lines)
  if(line MATCHES "^\\| ([^ |]+)")
    set(first "${CMAKE_MATCH_1}")
    if(NOT first STREQUAL "algorithm" AND NOT first STREQUAL "Figure")
      list(APPEND rows "${first}")
    endif()
  endif()
endforeach()

if(NOT rows STREQUAL EXPECTED_ROWS)
  message(FATAL_ERROR
          "${BENCH} ${BENCH_ARGS} printed rows [${rows}], expected "
          "[${EXPECTED_ROWS}]:\n${actual}")
endif()
