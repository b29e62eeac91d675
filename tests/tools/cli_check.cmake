# Runs one tool command line and checks its exit code and output.
#
#   cmake -DCOMMAND=<exe>|<arg>|... -DEXIT=<code>
#         [-DEXPECT=<text>|...] [-DREJECT=<text>|...]
#         [-DFLAGS=<--flag>|...] -P cli_check.cmake
#
# Lists are separated by '|'. Every EXPECT text must occur in the
# command's combined stdout and stderr, no REJECT text may occur
# there, and every FLAGS entry must start a line of its usage text.

string(REPLACE "|" ";" command "${COMMAND}")
execute_process(COMMAND ${command}
                RESULT_VARIABLE status
                OUTPUT_VARIABLE output
                ERROR_VARIABLE output
                TIMEOUT 300)
if(NOT status STREQUAL "${EXIT}")
    message(FATAL_ERROR
        "exit status ${status}, want ${EXIT}\n${output}")
endif()
string(REPLACE "|" ";" expected "${EXPECT}")
string(REPLACE "|" ";" flags "${FLAGS}")
foreach(flag IN LISTS flags)
    list(APPEND expected "\n  ${flag} ")
endforeach()
foreach(text IN LISTS expected)
    string(FIND "${output}" "${text}" at)
    if(at EQUAL -1)
        message(FATAL_ERROR "output lacks '${text}'\n${output}")
    endif()
endforeach()
string(REPLACE "|" ";" rejected "${REJECT}")
foreach(text IN LISTS rejected)
    string(FIND "${output}" "${text}" at)
    if(NOT at EQUAL -1)
        message(FATAL_ERROR "output holds '${text}'\n${output}")
    endif()
endforeach()
