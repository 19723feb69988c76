# Pins the detection matrix's determinism across worker counts.
#
# Runs tab_detection_matrix once with ATS_JOBS=1 and once with ATS_JOBS=4,
# requires exit code 0 from both and byte-identical standard output: the
# parallel sweep must print exactly what the serial one prints.  Run as a
# script:
#
#   cmake -DMATRIX=<tab_detection_matrix exe> -DOUT_DIR=<dir>
#         -P cmake/check_detection_matrix_jobs.cmake

if(NOT DEFINED MATRIX OR NOT DEFINED OUT_DIR)
  message(FATAL_ERROR "usage: cmake -DMATRIX=<exe> -DOUT_DIR=<dir> -P check_detection_matrix_jobs.cmake")
endif()
file(MAKE_DIRECTORY "${OUT_DIR}")

foreach(jobs 1 4)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E env ATS_JOBS=${jobs} "${MATRIX}"
    WORKING_DIRECTORY "${OUT_DIR}"
    RESULT_VARIABLE code
    OUTPUT_VARIABLE out_${jobs})
  file(WRITE "${OUT_DIR}/matrix.jobs${jobs}.txt" "${out_${jobs}}")
  if(NOT code EQUAL 0)
    message(SEND_ERROR "tab_detection_matrix with ATS_JOBS=${jobs}: exit code ${code}, expected 0")
  endif()
endforeach()

if(NOT out_1 STREQUAL out_4)
  message(SEND_ERROR "tab_detection_matrix output differs between ATS_JOBS=1 and ATS_JOBS=4; compare ${OUT_DIR}/matrix.jobs1.txt and ${OUT_DIR}/matrix.jobs4.txt")
else()
  message(STATUS "ATS_JOBS=1 and ATS_JOBS=4 outputs identical")
endif()
