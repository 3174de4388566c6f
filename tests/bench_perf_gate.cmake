# Opt-in performance gate over tab4_microbench's lockstep batch sweep.
#
# Runs the throughput/batch section (smoke mode: google-benchmark skipped,
# full 64-session x 30 s matrix kept) and fails if:
#   - the batched-vs-serial identity flags are not true (a determinism
#     regression the numeric floor could otherwise mask), or
#   - session_batch_speedup falls below FLOOR, or
#   - serial_sessions_per_s falls below SERIAL_FLOOR (absolute sessions/sec,
#     a catastrophic tripwire only — the host swings ~1.5x run to run).
#
# The floor is a catastrophic-regression tripwire, not a precision bound:
# single-run wall-clock ratios on shared/virtualized CI hosts swing from
# ~0.69 to ~1.20 for identical binaries (see DESIGN.md "Frame-boundary
# rendezvous" for the measured numbers). The gate therefore takes the BEST
# speedup over up to ATTEMPTS runs — host noise only depresses a measured
# ratio at random, so the max across runs tracks the true ratio — and the
# identity flags must hold on EVERY run. Raise the floor only from repeated
# cold-run minima on a quiet host.
#
# Usage: cmake -DBINARY=<tab4_microbench> -DOUT=<dir> -DFLOOR=<x>
#              [-DSERIAL_FLOOR=<sessions/s>] -P this
if(NOT DEFINED BINARY OR NOT DEFINED OUT)
  message(FATAL_ERROR "BINARY and OUT must be defined")
endif()
if(NOT DEFINED FLOOR)
  set(FLOOR 0.70)
endif()
if(NOT DEFINED SERIAL_FLOOR)
  set(SERIAL_FLOOR 0)
endif()
if(NOT DEFINED ATTEMPTS)
  set(ATTEMPTS 3)
endif()

file(MAKE_DIRECTORY ${OUT})
set(best_speedup 0)
set(best_serial 0)
set(control_speedup 0)
foreach(attempt RANGE 1 ${ATTEMPTS})
  execute_process(
    COMMAND ${BINARY} --smoke --runner-sessions=64 --runner-duration=30
            --jobs=2 --json=${OUT}/perf.json --hotpath-json=-
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE stdout
    ERROR_VARIABLE stderr)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR
            "tab4_microbench failed (rc=${rc}):\n${stdout}\n${stderr}")
  endif()

  file(READ ${OUT}/perf.json json)
  string(JSON session_speedup GET ${json} session_batch_speedup)
  string(JSON session_identical GET ${json} session_batch_identical)
  string(JSON control_speedup GET ${json} control_batch_speedup)
  string(JSON control_identical GET ${json} control_batch_identical)
  string(JSON serial_sps GET ${json} serial_sessions_per_s)

  # Bit-identity is noise-free: any single failure is a real regression.
  if(NOT session_identical STREQUAL "ON")
    message(FATAL_ERROR
            "batched session results are NOT bit-identical to serial "
            "(session_batch_identical=${session_identical})")
  endif()
  if(NOT control_identical STREQUAL "ON")
    message(FATAL_ERROR
            "batched control-loop trajectories are NOT bit-identical to "
            "scalar (control_batch_identical=${control_identical})")
  endif()
  if(best_speedup LESS session_speedup)
    set(best_speedup ${session_speedup})
  endif()
  if(best_serial LESS serial_sps)
    set(best_serial ${serial_sps})
  endif()
  if(NOT best_speedup LESS FLOOR AND NOT best_serial LESS SERIAL_FLOOR)
    break()  # above both floors — no need to burn more attempts
  endif()
  message(STATUS
          "attempt ${attempt}/${ATTEMPTS}: session_batch_speedup="
          "${session_speedup} (floor ${FLOOR}), serial_sessions_per_s="
          "${serial_sps} (floor ${SERIAL_FLOOR}), retrying")
endforeach()

if(best_speedup LESS FLOOR)
  message(FATAL_ERROR
          "best session_batch_speedup over ${ATTEMPTS} runs = ${best_speedup}"
          " fell below the committed floor ${FLOOR} (control_batch_speedup="
          "${control_speedup}); the rendezvous or the batched kernels "
          "regressed catastrophically")
endif()
if(best_serial LESS SERIAL_FLOOR)
  message(FATAL_ERROR
          "best serial_sessions_per_s over ${ATTEMPTS} runs = ${best_serial} "
          "fell below the committed floor ${SERIAL_FLOOR}; the serial "
          "session fast path regressed "
          "catastrophically")
endif()
message(STATUS
        "perf gate passed: session_batch_speedup=${best_speedup} "
        "(floor ${FLOOR}), serial_sessions_per_s=${best_serial} "
        "(floor ${SERIAL_FLOOR}, best of <=${ATTEMPTS}), "
        "control_batch_speedup=${control_speedup}, identity flags true on "
        "every run")
