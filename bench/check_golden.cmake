# Runs one paper bench and compares its stdout byte for byte with the
# checked-in golden output.  Registered as the figures.<name> ctest cases
# by bench/CMakeLists.txt; runs standalone as
#
#   cmake -DBENCH=<bench binary> -DGOLDEN=<golden .txt> -DACTUAL=<out file>
#         -P bench/check_golden.cmake
#
# The simulated figures are deterministic, so any difference is a drift.
# On a mismatch the bench's output stays in ACTUAL for diffing.
foreach(var BENCH GOLDEN ACTUAL)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_golden: -D${var}=... is required")
  endif()
endforeach()

execute_process(COMMAND ${BENCH} OUTPUT_FILE ${ACTUAL} RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with ${status}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${ACTUAL} ${GOLDEN}
                RESULT_VARIABLE differs)
if(differs)
  message(FATAL_ERROR "stdout of ${BENCH} differs from ${GOLDEN}; "
                      "it is kept in ${ACTUAL}")
endif()
