# Scenario catalog gate, run as a CTest:
#
#   cmake -DSCENARIO_RUN=<bin> -DSCHEMA_CHECK=<bin> -DSCENARIO_DIR=<dir>
#         -DWORK_DIR=<dir> -P scenario_check.cmake
#
# For every scenarios/*.json:
#   * lints it (`schema_check --scenario`);
#   * smoke-runs it twice;
#   * asserts the TSV stdout of the two runs is byte-identical (every
#     reported value is virtual-time derived);
#   * schema-validates both BENCH_*.json reports and requires their series
#     to be cell-identical via `schema_check --compare-series`.
foreach(v SCENARIO_RUN SCHEMA_CHECK SCENARIO_DIR WORK_DIR)
  if(NOT DEFINED ${v})
    message(FATAL_ERROR "scenario_check.cmake: -D${v}=... is required")
  endif()
endforeach()

file(GLOB scenarios "${SCENARIO_DIR}/*.json")
list(LENGTH scenarios count)
if(count EQUAL 0)
  message(FATAL_ERROR "no scenario files in ${SCENARIO_DIR}")
endif()
list(SORT scenarios)

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}/run1" "${WORK_DIR}/run2")

execute_process(
  COMMAND "${SCHEMA_CHECK}" --scenario ${scenarios}
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "scenario lint failed")
endif()

foreach(scenario IN LISTS scenarios)
  get_filename_component(stem "${scenario}" NAME_WE)
  foreach(run run1 run2)
    set(ENV{PLEROMA_BENCH_DIR} "${WORK_DIR}/${run}")
    execute_process(
      COMMAND "${SCENARIO_RUN}" "${scenario}" --smoke
      OUTPUT_FILE "${WORK_DIR}/${stem}_${run}.tsv"
      RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
      message(FATAL_ERROR "${scenario} failed (${rc})")
    endif()
  endforeach()

  execute_process(
    COMMAND "${CMAKE_COMMAND}" -E compare_files
            "${WORK_DIR}/${stem}_run1.tsv" "${WORK_DIR}/${stem}_run2.tsv"
    RESULT_VARIABLE tsv_diff)
  if(NOT tsv_diff EQUAL 0)
    message(FATAL_ERROR
            "${stem}: TSV differs between two runs "
            "(diff ${WORK_DIR}/${stem}_run1.tsv ${WORK_DIR}/${stem}_run2.tsv)")
  endif()

  # The per-run report name is BENCH_<scenario name>.json; the scenario's
  # "name" field must match the file stem for the catalog (enforced here).
  if(NOT EXISTS "${WORK_DIR}/run1/BENCH_${stem}.json")
    message(FATAL_ERROR
            "${stem}: expected report BENCH_${stem}.json was not written "
            "(scenario name must match the file stem)")
  endif()

  execute_process(
    COMMAND "${SCHEMA_CHECK}"
            "${WORK_DIR}/run1/BENCH_${stem}.json" "${WORK_DIR}/run2/BENCH_${stem}.json"
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${stem}: report failed pleroma-bench-v1 validation")
  endif()

  execute_process(
    COMMAND "${SCHEMA_CHECK}" --compare-series
            "${WORK_DIR}/run1/BENCH_${stem}.json" "${WORK_DIR}/run2/BENCH_${stem}.json"
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${stem}: report series differ between two runs")
  endif()
endforeach()

message(STATUS "scenario smoke passed: ${count} scenario(s), run twice")
