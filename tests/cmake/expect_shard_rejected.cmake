# Check that `campaign --store --shard=i/N` rejects each given shard spec
# with a typed error before any store file is written: for every entry of
# SHARDS the CLI must exit non-zero, print a precondition error that names
# the shard, and leave STORE uncreated. Invoked from CTest (see
# CMakeLists.txt):
#
#   cmake -DCLI=<binary> -DSTORE=<dir> "-DSHARDS=0/-1;..." \
#         -P expect_shard_rejected.cmake

foreach(shard IN LISTS SHARDS)
  file(REMOVE_RECURSE "${STORE}")
  execute_process(
    COMMAND ${CLI} campaign --store=${STORE} --shard=${shard}
            --families=atacseq --tasks=10 --scenarios=S1
            --deadline-factors=2 --seeds=1 --intervals=4 --algos=ASAP --quiet
    OUTPUT_VARIABLE out
    ERROR_VARIABLE errors
    RESULT_VARIABLE rc)
  if(rc EQUAL 0)
    message(FATAL_ERROR "${CLI} accepted --shard=${shard}: ${out}${errors}")
  endif()
  string(FIND "${errors}" "precondition failed" typed)
  string(FIND "${errors}" "shard" named)
  if(typed EQUAL -1 OR named EQUAL -1)
    message(FATAL_ERROR
            "--shard=${shard} failed (exit ${rc}) without a typed shard "
            "error: ${errors}")
  endif()
  if(EXISTS "${STORE}")
    message(FATAL_ERROR "--shard=${shard} was rejected only after creating "
                        "${STORE}")
  endif()
endforeach()
