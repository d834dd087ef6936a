# Command-line checks of gsnp_cli, run as ctest scripts:
#
#   cmake -DGSNP_CLI=<gsnp_cli> -DWORK=<dir> -DCHECK=<check> -P cli_checks.cmake
#
# unknown_flag        a call given a flag that `call` does not take
#                     (--streams, the spelling before --overlap) exits 2,
#                     names the flag and publishes nothing.
# leaves_only_output  a SAM call on the gsnp engine and a SOAP call on
#                     gsnp-cpu each leave their output file and nothing
#                     else: no temp `.tmp`, no `.part`.
# boolean_flags       a boolean flag never takes the next token as its
#                     value: `fsck --repair SPOOL` and `fsck --deep SPOOL`
#                     check an empty spool like `fsck SPOOL --repair`.

function(run_cli expected_rc)
  execute_process(COMMAND "${GSNP_CLI}" ${ARGN}
                  WORKING_DIRECTORY "${WORK}"
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL expected_rc)
    message(FATAL_ERROR "gsnp_cli ${ARGN}: exit ${rc}, expected "
                        "${expected_rc}\n${out}${err}")
  endif()
  set(cli_stderr "${err}" PARENT_SCOPE)
endfunction()

file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}/out")

if(CHECK STREQUAL "boolean_flags")
  file(MAKE_DIRECTORY "${WORK}/spool")
  run_cli(0 fsck --repair spool)
  run_cli(0 fsck --deep spool)
  run_cli(0 fsck spool --repair --deep)
else()
  run_cli(0 simulate --out sim --sites 20000 --depth 5 --seed 3 --sam)
endif()

if(CHECK STREQUAL "boolean_flags")
elseif(CHECK STREQUAL "unknown_flag")
  run_cli(2 call --ref sim/ref.fa --align sim/align.soap --out out/o.snp
          --streams 2)
  if(NOT cli_stderr MATCHES "unknown flag --streams")
    message(FATAL_ERROR "the error does not name the flag: ${cli_stderr}")
  endif()
elseif(CHECK STREQUAL "leaves_only_output")
  run_cli(0 call --ref sim/ref.fa --align sim/align.sam --out out/sam.snp)
  run_cli(0 call --engine gsnp-cpu --ref sim/ref.fa --align sim/align.soap
          --out out/cpu.snp)
else()
  message(FATAL_ERROR "unknown CHECK '${CHECK}'")
endif()

set(expected "")
if(CHECK STREQUAL "leaves_only_output")
  set(expected "cpu.snp;sam.snp")
endif()
file(GLOB left RELATIVE "${WORK}/out" "${WORK}/out/*")
list(SORT left)
if(NOT "${left}" STREQUAL "${expected}")
  message(FATAL_ERROR "out/ holds '${left}', expected '${expected}'")
endif()
file(REMOVE_RECURSE "${WORK}")
