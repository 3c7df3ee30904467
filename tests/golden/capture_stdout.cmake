# Runs one command and writes its stdout to a file, failing when the
# command exits non-zero. ctest cannot redirect a test's stdout, so
# the golden-output gate captures through this script:
#
#   cmake -DOUT=<file> -P capture_stdout.cmake -- <command> [args...]

if(NOT OUT)
    message(FATAL_ERROR "capture_stdout.cmake: pass -DOUT=<file>")
endif()

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
    message(FATAL_ERROR "capture_stdout.cmake: no command after --")
endif()

execute_process(COMMAND ${cmd} OUTPUT_FILE ${OUT} RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "capture_stdout.cmake: '${cmd}' exited ${rc}")
endif()
