# Writes a .den procedure that nests DEEP levels of FORM to FILE: in its
# \res expression (`parens`: "((...a...))", `negations`: "--...-a") or as
# statements around it, one opener a line from line 2 (`vars`: "\var v :
# long \in", `dos`: "\do a < 1 -> ... \od", `ifs`: "\if a < 1 -> ... \fi").
# Runs `denali --no-verify FILE` and requires exit code 1 (a parse error,
# not a crash). Prints the compiler's messages only then, so a test's
# PASS_REGULAR_EXPRESSION cannot match output of a failed run.
set(BODY "\\res := a\n")
if(FORM STREQUAL "parens")
  string(REPEAT "(" ${DEEP} OPEN)
  string(REPEAT ")" ${DEEP} CLOSE)
  set(BODY "\\res := ${OPEN}a${CLOSE}\n")
elseif(FORM STREQUAL "negations")
  string(REPEAT "-" ${DEEP} OPEN)
  set(BODY "\\res := ${OPEN}a\n")
elseif(FORM STREQUAL "vars")
  string(REPEAT "\\var v : long \\in\n" ${DEEP} OPEN)
  set(BODY "${OPEN}${BODY}")
elseif(FORM STREQUAL "dos")
  string(REPEAT "\\do a < 1 ->\n" ${DEEP} OPEN)
  string(REPEAT "\\od\n" ${DEEP} CLOSE)
  set(BODY "${OPEN}${BODY}${CLOSE}")
elseif(FORM STREQUAL "ifs")
  string(REPEAT "\\if a < 1 ->\n" ${DEEP} OPEN)
  string(REPEAT "\\fi\n" ${DEEP} CLOSE)
  set(BODY "${OPEN}${BODY}${CLOSE}")
else()
  message(FATAL_ERROR "unknown FORM '${FORM}'")
endif()
file(WRITE ${FILE} "\\proc deep : [ a : long ] -> long =\n${BODY}\\end\n")
execute_process(COMMAND ${DENALI_BIN} --no-verify ${FILE}
                OUTPUT_VARIABLE OUT
                ERROR_VARIABLE ERR
                RESULT_VARIABLE RC)
if(NOT RC EQUAL 1)
  message(FATAL_ERROR "exit code ${RC}, expected 1")
endif()
message("${OUT}${ERR}")
