# Runs one command that must be refused with a given exit code and a
# given stderr line. Any other exit status fails the test, and so does
# the right status without the line, so a crash, an abort or a Python
# traceback cannot pass where WILL_FAIL would:
#
#   cmake -P expect_exit.cmake -- <exit code> <stderr regex>
#         <command> [args...]
#
# The regex must match at the start of some line of stderr.

set(args)
set(collect FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
    if(collect)
        list(APPEND args "${CMAKE_ARGV${i}}")
    elseif("${CMAKE_ARGV${i}}" STREQUAL "--")
        set(collect TRUE)
    endif()
endforeach()
list(LENGTH args n)
if(n LESS 3)
    message(FATAL_ERROR "expect_exit.cmake: want <exit code> "
                        "<stderr regex> <command> after --")
endif()
list(POP_FRONT args want_rc want_err)

execute_process(COMMAND ${args} RESULT_VARIABLE rc
                OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc STREQUAL want_rc)
    message(FATAL_ERROR "'${args}' exited '${rc}', want ${want_rc}; "
                        "stderr:\n${err}")
endif()
if(NOT err MATCHES "(^|\n)${want_err}")
    message(FATAL_ERROR "'${args}' printed no line matching "
                        "'${want_err}'; stderr:\n${err}")
endif()
