# Keeps ats::parse_decimal / ats::parse_finite (src/common/strutil.hpp) the
# one decimal reader in the libraries: fails when a file under src/ calls
# std::sto*, strto* or ato*, which accept prefixes, blanks, NaN or
# out-of-range values that the codec rejects.  Run as a script:
#
#   cmake -DREPO_ROOT=<repo> -P cmake/check_decimal_codec.cmake
#
# Registered as the `decimal_codec_lint` ctest.

if(NOT DEFINED REPO_ROOT)
  get_filename_component(REPO_ROOT "${CMAKE_CURRENT_LIST_DIR}/.." ABSOLUTE)
endif()

file(GLOB_RECURSE sources RELATIVE "${REPO_ROOT}"
  "${REPO_ROOT}/src/*.cpp" "${REPO_ROOT}/src/*.hpp")

set(banned "(^|[^A-Za-z0-9_])(std::sto(i|l|ll|ul|ull|f|d|ld)|strto(l|ll|ul|ull|f|d|ld|imax|umax)|ato(i|l|ll|f))[ \t]*\\(")
set(hits 0)
foreach(src IN LISTS sources)
  file(STRINGS "${REPO_ROOT}/${src}" lines)
  set(lineno 0)
  foreach(line IN LISTS lines)
    math(EXPR lineno "${lineno} + 1")
    if(line MATCHES "${banned}")
      message(SEND_ERROR "${src}:${lineno}: ${CMAKE_MATCH_2} — parse through ats::parse_decimal / ats::parse_finite instead")
      math(EXPR hits "${hits} + 1")
    endif()
  endforeach()
endforeach()

list(LENGTH sources checked)
if(hits GREATER 0)
  message(FATAL_ERROR "${hits} call(s) to a non-codec decimal parser under src/")
endif()
message(STATUS "decimal codec lint: ${checked} file(s) under src/ clean")
