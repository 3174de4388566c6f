# Runs a bench binary once per argument variant and fails unless every run's
# output is byte-identical to the first. Generalizes bench_determinism.cmake
# to execution knobs that must never change results (--batch, --simd, --jobs
# in any combination). Invoked by ctest (see bench/CMakeLists.txt):
#
#   cmake -DBINARY=<path> -DOUT=<output-prefix>
#         "-DVARIANTS=--batch=1|--batch=16 --simd=scalar|..."
#         [-DEXTRA_ARGS=...] [-DCACHE_DIR=<dir>]
#         -P bench_variants_determinism.cmake
#
# Variants are separated by "|"; arguments within one variant by spaces.
# With CACHE_DIR set, the directory is removed first and every variant runs
# with --cache-dir=<dir>: the first run is a cold cache pass and the rest
# are warm, so the compare also gates cold-vs-warm byte-identity.
if(NOT DEFINED BINARY OR NOT DEFINED OUT OR NOT DEFINED VARIANTS)
  message(FATAL_ERROR
          "bench_variants_determinism.cmake needs -DBINARY, -DOUT, -DVARIANTS")
endif()

if(DEFINED CACHE_DIR)
  file(REMOVE_RECURSE "${CACHE_DIR}")
  list(APPEND EXTRA_ARGS "--cache-dir=${CACHE_DIR}")
endif()

string(REPLACE "|" ";" variant_list "${VARIANTS}")
set(index 0)
foreach(variant IN LISTS variant_list)
  separate_arguments(variant_args UNIX_COMMAND "${variant}")
  execute_process(
    COMMAND ${BINARY} ${variant_args} ${EXTRA_ARGS}
    OUTPUT_FILE ${OUT}_${index}.txt
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${BINARY} ${variant} failed (rc=${rc})")
  endif()
  if(index GREATER 0)
    execute_process(
      COMMAND ${CMAKE_COMMAND} -E compare_files
              ${OUT}_0.txt ${OUT}_${index}.txt
      RESULT_VARIABLE diff_rc)
    if(NOT diff_rc EQUAL 0)
      message(FATAL_ERROR
              "${BINARY}: output of '${variant}' differs from the first "
              "variant (${OUT}_0.txt vs ${OUT}_${index}.txt)")
    endif()
  endif()
  math(EXPR index "${index} + 1")
endforeach()
