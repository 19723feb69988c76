# Pins ats_diff's output bytes on a checked-in input set (tests/diff_pin).
#
# Runs ats_diff on the severity-CSV pair a/pin.expected, b/pin.expected
# (text on stdout, --csv, --xml) and on the corpus directories a, b
# (--corpus, same three renderings), then compares every rendering and the
# exit code (9, diff_regression) with tests/diff_pin/expected.  The pair
# holds a duplicate display triple, added, removed, increased and
# decreased cells, a location order that differs between A and B, and
# ties in |delta|; the corpus adds a defect-set change, an identical entry
# and an entry missing in B.  Run as a script:
#
#   cmake -DATS_DIFF=<exe> -DPIN_DIR=<repo>/tests/diff_pin -DOUT_DIR=<dir>
#         -P cmake/check_ats_diff_output.cmake

if(NOT DEFINED ATS_DIFF OR NOT DEFINED PIN_DIR OR NOT DEFINED OUT_DIR)
  message(FATAL_ERROR "usage: cmake -DATS_DIFF=<exe> -DPIN_DIR=<dir> -DOUT_DIR=<dir> -P check_ats_diff_output.cmake")
endif()
file(MAKE_DIRECTORY "${OUT_DIR}")

function(check_rendering name actual)
  file(READ "${PIN_DIR}/expected/${name}" expected)
  if(NOT actual STREQUAL expected)
    message(SEND_ERROR "ats_diff output ${name} differs from ${PIN_DIR}/expected/${name}:\n${actual}")
  else()
    message(STATUS "${name}: identical")
  endif()
endfunction()

foreach(mode pair corpus)
  if(mode STREQUAL "pair")
    set(inputs a/pin.expected b/pin.expected)
  else()
    set(inputs --corpus a b)
  endif()
  file(REMOVE "${OUT_DIR}/${mode}.csv" "${OUT_DIR}/${mode}.xml")
  execute_process(
    COMMAND "${ATS_DIFF}" ${inputs}
            --csv "${OUT_DIR}/${mode}.csv" --xml "${OUT_DIR}/${mode}.xml"
    WORKING_DIRECTORY "${PIN_DIR}"
    RESULT_VARIABLE code
    OUTPUT_VARIABLE text)
  if(NOT code EQUAL 9)
    message(SEND_ERROR "ats_diff ${mode}: exit code ${code}, expected 9")
  endif()
  check_rendering(${mode}.txt "${text}")
  foreach(ext csv xml)
    file(READ "${OUT_DIR}/${mode}.${ext}" written)
    check_rendering(${mode}.${ext} "${written}")
  endforeach()
endforeach()
