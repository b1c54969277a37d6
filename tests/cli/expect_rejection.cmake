# Passes only when BINARY run with ARGS ('|'-separated, since ';' would split
# the -D value) exits with status 2 and names EXPECT on stderr, so a crash or
# an abort fails:
#   cmake -DBINARY=<program> -DARGS=<arg>|<arg> -DEXPECT=<text> -P expect_rejection.cmake
string(REPLACE "|" ";" args "${ARGS}")
execute_process(COMMAND "${BINARY}" ${args} RESULT_VARIABLE status OUTPUT_QUIET ERROR_VARIABLE err)
string(FIND "${err}" "${EXPECT}" at)
if(NOT status STREQUAL "2" OR at EQUAL -1)
  message(FATAL_ERROR "${BINARY} ${ARGS}: exit status '${status}', want 2 and '${EXPECT}' "
                      "named on stderr\nstderr: ${err}")
endif()
