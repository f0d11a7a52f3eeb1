# Runs one rlccd_cli invocation and checks its exit code and the artifacts
# it must leave behind. Registered with ctest by tests/CMakeLists.txt:
#
#   cmake -DCLI=<rlccd_cli> -DARGS="<args>" -DEXPECT_RC=<n>
#         [-DOUTPUTS="<file> ..."] -P run_cli.cmake
#
# ARGS and OUTPUTS are space-separated; OUTPUTS are removed before the run
# and must exist and be non-empty after it.
separate_arguments(args UNIX_COMMAND "${ARGS}")
separate_arguments(outputs UNIX_COMMAND "${OUTPUTS}")
foreach(f IN LISTS outputs)
  file(REMOVE "${f}")
endforeach()

execute_process(COMMAND "${CLI}" ${args} RESULT_VARIABLE rc)
if(NOT rc STREQUAL "${EXPECT_RC}")
  message(FATAL_ERROR "rlccd_cli ${ARGS}: exit '${rc}', expected ${EXPECT_RC}")
endif()

foreach(f IN LISTS outputs)
  if(NOT EXISTS "${f}")
    message(FATAL_ERROR "rlccd_cli ${ARGS}: ${f} was not written")
  endif()
  file(SIZE "${f}" size)
  if(size EQUAL 0)
    message(FATAL_ERROR "rlccd_cli ${ARGS}: ${f} is empty")
  endif()
endforeach()
