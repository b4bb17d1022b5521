# Runs `denali_server --bulk CORPUS --stats` and compares its output, with
# the `:seconds` and `:cache-bytes` values masked, to EXPECTED; the exit
# code must be EXPECT_RC. With DEEP set, CORPUS is first written as one
# request whose parentheses nest DEEP deep, then one plain request.
if(DEFINED DEEP)
  math(EXPR NOTS "${DEEP} - 2")
  string(REPEAT "(not64 " ${NOTS} OPEN)
  string(REPEAT ")" ${DEEP} CLOSE)
  file(WRITE ${CORPUS} "(gma deep (assign r ${OPEN}a${CLOSE}\n"
                       "(gma after (assign r (add64 a b)))\n")
endif()
execute_process(COMMAND ${SERVER_BIN} --bulk ${CORPUS} --stats
                OUTPUT_VARIABLE OUT
                ERROR_VARIABLE ERR
                RESULT_VARIABLE RC)
string(REGEX REPLACE ":seconds [0-9.]+" ":seconds S" OUT "${OUT}")
string(REGEX REPLACE ":cache-bytes [0-9]+" ":cache-bytes B" OUT "${OUT}")
file(READ ${EXPECTED} WANT)
if(NOT RC EQUAL ${EXPECT_RC} OR NOT OUT STREQUAL WANT)
  message(FATAL_ERROR "exit code ${RC}, expected ${EXPECT_RC}\n"
                      "--- got ---\n${OUT}${ERR}\n--- want ---\n${WANT}")
endif()
