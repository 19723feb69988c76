# Pins the command-line tools' handling of malformed decimal fields: each
# command below must end in the usage exit code (2), not run with a value
# wrapped, saturated, truncated at the first bad character or read as NaN.
# Run as a script:
#
#   cmake -DEXPLORER=<property_explorer> -DFUZZ=<ats_fuzz> -DSERVE=<ats_serve>
#         -DDIFF=<ats_diff> -DGOLDEN=<repo>/tests/golden -DOUT_DIR=<dir>
#         -P cmake/check_cli_decimal_fields.cmake

foreach(var EXPLORER FUZZ SERVE DIFF GOLDEN OUT_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "usage: cmake -DEXPLORER=<exe> -DFUZZ=<exe> -DSERVE=<exe> -DDIFF=<exe> -DGOLDEN=<dir> -DOUT_DIR=<dir> -P check_cli_decimal_fields.cmake")
  endif()
endforeach()
file(MAKE_DIRECTORY "${OUT_DIR}")

function(expect_usage)
  # A daemon that wrongly accepts its options would serve until killed.
  execute_process(COMMAND ${ARGN}
    WORKING_DIRECTORY "${OUT_DIR}"
    RESULT_VARIABLE code
    OUTPUT_QUIET ERROR_QUIET
    TIMEOUT 20)
  if(NOT code STREQUAL "2")
    message(SEND_ERROR "expected exit code 2, got '${code}': ${ARGN}")
  else()
    message(STATUS "usage error as expected: ${ARGN}")
  endif()
endfunction()

# 2^32 + 1 once wrapped to r=1; 20 nines once saturated to r=-1.
expect_usage("${EXPLORER}" run late_sender np=2 r=4294967297)
expect_usage("${EXPLORER}" run late_sender np=2 r=99999999999999999999)
expect_usage("${EXPLORER}" run late_sender np=2 extrawork=nan)
expect_usage("${FUZZ}" --seeds 0 --jobs 4294967297)
expect_usage("${FUZZ}" --seeds 0 --start -1)
expect_usage("${SERVE}" --socket "${OUT_DIR}/s.sock" --workers 4x)
expect_usage("${DIFF}" --rel-floor 0.02x --corpus "${GOLDEN}" "${GOLDEN}")
expect_usage("${DIFF}" --abs-floor nan --corpus "${GOLDEN}" "${GOLDEN}")
