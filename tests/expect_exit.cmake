# Runs `${TOOL} ${DOC}` and fails unless the tool exits with EXPECT_EXIT
# and, when EXPECT_MESSAGE is set, its output matches that regex. Used by
# the check_metrics_json contract fixtures:
#
#   cmake -DTOOL=... -DDOC=... -DEXPECT_EXIT=1 [-DEXPECT_MESSAGE=...]
#         -P expect_exit.cmake
execute_process(COMMAND "${TOOL}" "${DOC}"
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT rc STREQUAL "${EXPECT_EXIT}")
  message(FATAL_ERROR "${DOC}: exit ${rc}, expected ${EXPECT_EXIT}\n${out}${err}")
endif()
if(DEFINED EXPECT_MESSAGE AND NOT "${out}${err}" MATCHES "${EXPECT_MESSAGE}")
  message(FATAL_ERROR "${DOC}: output does not match '${EXPECT_MESSAGE}'\n${out}${err}")
endif()
