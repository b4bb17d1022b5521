# Writes a .den procedure whose \res expression nests DEEP levels of FORM
# (`parens`: "((...a...))", `negations`: "--...-a") to FILE, runs
# `denali --no-verify FILE`, and requires exit code 1 (a parse error, not
# a crash). Prints the compiler's messages only then, so a test's
# PASS_REGULAR_EXPRESSION cannot match output of a failed run.
if(FORM STREQUAL "parens")
  string(REPEAT "(" ${DEEP} OPEN)
  string(REPEAT ")" ${DEEP} CLOSE)
  set(EXPR "${OPEN}a${CLOSE}")
else()
  string(REPEAT "-" ${DEEP} OPEN)
  set(EXPR "${OPEN}a")
endif()
file(WRITE ${FILE} "\\proc deep : [ a : long ] -> long =\n"
                   "\\res := ${EXPR}\n\\end\n")
execute_process(COMMAND ${DENALI_BIN} --no-verify ${FILE}
                OUTPUT_VARIABLE OUT
                ERROR_VARIABLE ERR
                RESULT_VARIABLE RC)
if(NOT RC EQUAL 1)
  message(FATAL_ERROR "exit code ${RC}, expected 1")
endif()
message("${OUT}${ERR}")
