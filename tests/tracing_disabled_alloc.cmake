# Tracing-off allocation gate: configures a nested Release build with the
# trace macros compiled out (RAVE_TRACING=OFF) and the allocation probe
# forced on, builds hotpath_alloc_test there and runs it — proving the
# tracing-disabled configuration compiles and keeps the zero-allocs-per-
# event-loop-cycle and per-sim-second budgets. Invoked by ctest
# (see tests/CMakeLists.txt):
#
#   cmake -DSRC=<source-dir> -DOUT=<scratch-build-dir>
#         -P tracing_disabled_alloc.cmake
if(NOT DEFINED SRC OR NOT DEFINED OUT)
  message(FATAL_ERROR "tracing_disabled_alloc.cmake needs -DSRC and -DOUT")
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} -B ${OUT} -S ${SRC}
          -DCMAKE_BUILD_TYPE=Release
          -DRAVE_TRACING=OFF
          -DRAVE_ALLOC_PROBE=ON
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "nested RAVE_TRACING=OFF configure failed (rc=${rc})")
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} --build ${OUT} --target hotpath_alloc_test
          --parallel 4
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "nested RAVE_TRACING=OFF build failed (rc=${rc})")
endif()

execute_process(
  COMMAND ${CMAKE_CTEST_COMMAND} --test-dir ${OUT}
          -R "^hotpath_alloc_test$" --output-on-failure
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR
          "hotpath_alloc_test failed in the RAVE_TRACING=OFF build (rc=${rc})")
endif()
