# Same-seed determinism gate, run as a CTest:
#
#   cmake -DFIG7A=<bin> -DFIG7F=<bin> -DSCALE_AGG=<bin> -DHOTSPOT=<bin>
#         -DSCHEMA_CHECK=<bin> -DWORK_DIR=<dir> -P determinism_check.cmake
#
# Runs each smoke bench twice at its fixed seed and asserts:
#   * the TSV stdout of fig7a, scale_aggregation and hotspot_rebalance is
#     byte-identical (every cell derives from virtual time or accounted
#     controller/switch state, so the table must not move by a byte);
#   * every bench's BENCH_*.json series are cell-identical via
#     `schema_check --compare-series`, ignoring only fig7f's wall-clock
#     columns (controller_wall_us, subs_per_sec), which vary run to run.
foreach(v FIG7A FIG7F SCALE_AGG HOTSPOT SCHEMA_CHECK WORK_DIR)
  if(NOT DEFINED ${v})
    message(FATAL_ERROR "determinism_check.cmake: -D${v}=... is required")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}/run1" "${WORK_DIR}/run2")
set(ENV{PLEROMA_BENCH_SMOKE} "1")

# check_bench(<bin> <report name> <compare TSV: TRUE|FALSE>
#             [--ignore-column=NAME]...)
function(check_bench bin name compare_tsv)
  foreach(run run1 run2)
    set(ENV{PLEROMA_BENCH_DIR} "${WORK_DIR}/${run}")
    execute_process(
      COMMAND "${bin}"
      OUTPUT_FILE "${WORK_DIR}/${name}_${run}.tsv"
      RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
      message(FATAL_ERROR "${bin} failed (${rc})")
    endif()
  endforeach()

  if(compare_tsv)
    execute_process(
      COMMAND "${CMAKE_COMMAND}" -E compare_files
              "${WORK_DIR}/${name}_run1.tsv" "${WORK_DIR}/${name}_run2.tsv"
      RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
      message(FATAL_ERROR
              "${name} TSV differs between two runs of one seed "
              "(diff ${WORK_DIR}/${name}_run1.tsv ${WORK_DIR}/${name}_run2.tsv)")
    endif()
  endif()

  execute_process(
    COMMAND "${SCHEMA_CHECK}" --compare-series
            "${WORK_DIR}/run1/BENCH_${name}.json"
            "${WORK_DIR}/run2/BENCH_${name}.json" ${ARGN}
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR
            "${name} BENCH json series differ between two runs of one seed")
  endif()
endfunction()

check_bench("${FIG7A}" fig7a TRUE)
check_bench("${FIG7F}" fig7f FALSE
            --ignore-column=controller_wall_us --ignore-column=subs_per_sec)
check_bench("${SCALE_AGG}" scale_aggregation TRUE)
check_bench("${HOTSPOT}" hotspot_rebalance TRUE)

message(STATUS "determinism check passed: same seed, same bytes")
