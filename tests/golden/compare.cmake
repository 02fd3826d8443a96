# Runs a command and byte-compares its result with a committed golden file.
#
#   cmake -DGOLDEN=<file> [-DOUTPUT=<file>] -DACTUAL=<file> -P compare.cmake
#         <command> [args...]
#
# Without OUTPUT the command's stdout is the result; with OUTPUT the result
# is the file the command writes there (stdout is then ignored). The result
# is kept at ACTUAL, so a failing test leaves the new bytes next to the
# build for inspection or for regenerating the golden:
#
#   cp <ACTUAL> <GOLDEN>

foreach(var GOLDEN ACTUAL)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "compare.cmake: -D${var}=... is required")
  endif()
endforeach()

# The command is everything after "-P <this script>".
set(command "")
set(first -1)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE 1 ${last})
  if(first GREATER 0 AND i GREATER_EQUAL first)
    list(APPEND command "${CMAKE_ARGV${i}}")
  elseif(CMAKE_ARGV${i} STREQUAL "-P")
    math(EXPR first "${i} + 2")
  endif()
endforeach()
if(NOT command)
  message(FATAL_ERROR "compare.cmake: no command given")
endif()

if(DEFINED OUTPUT)
  file(REMOVE "${OUTPUT}")
  execute_process(COMMAND ${command} RESULT_VARIABLE rc
                  OUTPUT_QUIET ERROR_VARIABLE err)
  if(rc EQUAL 0 AND EXISTS "${OUTPUT}")
    file(READ "${OUTPUT}" actual)
  endif()
else()
  execute_process(COMMAND ${command} RESULT_VARIABLE rc
                  OUTPUT_VARIABLE actual ERROR_VARIABLE err)
endif()
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "command failed (${rc}): ${command}\n${err}")
endif()
file(WRITE "${ACTUAL}" "${actual}")

file(READ "${GOLDEN}" expected)
if(NOT actual STREQUAL expected)
  # The diff goes straight to the test log; message() would reflow it.
  execute_process(COMMAND diff -u "${GOLDEN}" "${ACTUAL}" ERROR_QUIET)
  message(FATAL_ERROR
          "result differs from ${GOLDEN} (diff above).\n"
          "If the change is intended, regenerate the golden:\n"
          "  cp ${ACTUAL} ${GOLDEN}")
endif()
