# Fails when production code is kept alive only by tests: every header
# under src/ must be #included by some file outside tests/ other than its
# own .cpp (src/, bench/, examples/ and gcrbench/ count; the generated
# header self-containment TUs live in the build tree and do not).
#
#   cmake -DGCR_ROOT=<source root> -P tests/test_only_headers.cmake

cmake_minimum_required(VERSION 3.16)

if(NOT GCR_ROOT)
  message(FATAL_ERROR "pass -DGCR_ROOT=<source root>")
endif()

file(GLOB_RECURSE headers RELATIVE ${GCR_ROOT}/src ${GCR_ROOT}/src/*.hpp)
file(GLOB_RECURSE includers
  ${GCR_ROOT}/src/*.hpp ${GCR_ROOT}/src/*.cpp
  ${GCR_ROOT}/bench/*.hpp ${GCR_ROOT}/bench/*.cpp
  ${GCR_ROOT}/examples/*.hpp ${GCR_ROOT}/examples/*.cpp
  ${GCR_ROOT}/gcrbench/*.hpp ${GCR_ROOT}/gcrbench/*.cpp)

set(included "")
foreach(file IN LISTS includers)
  file(STRINGS ${file} lines REGEX "^[ \t]*#[ \t]*include[ \t]*\"")
  foreach(line IN LISTS lines)
    string(REGEX REPLACE "^[ \t]*#[ \t]*include[ \t]*\"([^\"]+)\".*" "\\1"
      header "${line}")
    # A header's own implementation file does not keep it alive.
    string(REGEX REPLACE "\\.hpp$" ".cpp" own_cpp "${GCR_ROOT}/src/${header}")
    if(NOT file STREQUAL own_cpp)
      list(APPEND included ${header})
    endif()
  endforeach()
endforeach()

list(REMOVE_DUPLICATES included)
set(orphans "")
foreach(header IN LISTS headers)
  if(NOT header IN_LIST included)
    list(APPEND orphans src/${header})
  endif()
endforeach()

if(orphans)
  list(JOIN orphans "\n  " listing)
  message(FATAL_ERROR
    "headers included only by tests or by their own .cpp:\n  ${listing}")
endif()
list(LENGTH headers count)
message(STATUS "${count} src/ headers, each included outside tests/")
