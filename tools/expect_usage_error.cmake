# Runs one command that must be refused as a usage error: exit code 2
# and a "cable_sim: error:" line on stderr. A crash, an abort or any
# other exit status fails the test (WILL_FAIL would pass all three):
#
#   cmake -P expect_usage_error.cmake -- <command> [args...]

set(cmd)
set(collect FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
    if(collect)
        list(APPEND cmd "${CMAKE_ARGV${i}}")
    elseif("${CMAKE_ARGV${i}}" STREQUAL "--")
        set(collect TRUE)
    endif()
endforeach()
if(NOT cmd)
    message(FATAL_ERROR "expect_usage_error.cmake: no command after --")
endif()

execute_process(COMMAND ${cmd} RESULT_VARIABLE rc
                OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc STREQUAL "2")
    message(FATAL_ERROR "'${cmd}' exited '${rc}', want 2; stderr:\n${err}")
endif()
if(NOT err MATCHES "(^|\n)cable_sim: error: ")
    message(FATAL_ERROR "'${cmd}' printed no 'cable_sim: error:' line; "
                        "stderr:\n${err}")
endif()
