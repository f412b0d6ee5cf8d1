# Check that a CLI rejects each given flag as unknown: for every entry of
# FLAGS it must exit non-zero and name the flag in an "unknown flag" error.
# Invoked from CTest (see CMakeLists.txt):
#
#   cmake -DCLI=<binary> "-DFLAGS=--a=1;--b" -P expect_unknown_flag.cmake

foreach(flag IN LISTS FLAGS)
  string(REGEX REPLACE "=.*" "" flag_name "${flag}")
  execute_process(
    COMMAND ${CLI} --workflow=missing.dot ${flag}
    OUTPUT_VARIABLE out
    ERROR_VARIABLE errors
    RESULT_VARIABLE rc)
  if(rc EQUAL 0)
    message(FATAL_ERROR "${CLI} accepted ${flag}: ${out}")
  endif()
  string(FIND "${errors}" "unknown flag ${flag_name} " at)
  if(at EQUAL -1)
    message(FATAL_ERROR
            "${CLI} ${flag} failed (exit ${rc}) without an unknown-flag "
            "error for ${flag_name}: ${errors}")
  endif()
endforeach()
