# Runs a CLI with a malformed flag value and checks that it is refused as a
# usage error: exit status 2 and the flag's name on stderr.
#
#   cmake -DFLAG=<name> -P bad_flag.cmake <command> [args...]

if(NOT DEFINED FLAG)
  message(FATAL_ERROR "bad_flag.cmake: -DFLAG=... is required")
endif()

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
  message(FATAL_ERROR "bad_flag.cmake: no command given")
endif()

execute_process(COMMAND ${command} RESULT_VARIABLE rc
                OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc STREQUAL "2")
  message(FATAL_ERROR "expected exit status 2, got ${rc}: ${command}\n${err}")
endif()
string(FIND "${err}" "--${FLAG}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "stderr does not name --${FLAG}: ${command}\n${err}")
endif()
