# Runs the paper harnesses (and the index-family ablation) and compares their stdout, with timing values
# masked, against the committed goldens in this directory.
#
#   cmake -DBIN_DIR=<build dir> -DGOLDEN_DIR=<this dir> -DOUT_DIR=<scratch>
#         -P check_goldens.cmake
#
# The workload knobs come from the environment (CMakeLists.txt pins
# CNED_SCALE, CNED_SEED and CNED_TABLE_PRECISION on the registered tests).
# With CNED_UPDATE_GOLDENS=1 in the environment the masked outputs are
# written over the goldens instead of compared with them.

set(CNED_PAPER_HARNESSES
    fig1_heuristic_histogram
    fig2_histograms_genes
    fig3_laesa_dictionary
    fig4_laesa_digits
    table1_intrinsic_dimension
    table2_classification
    sec41_heuristic_agreement
    ablation_indexes)

# Timing values are the only lines that differ between runs and kernels:
#   - fig3/fig4's "average search time" block, header and separator too
#     (its column widths move with the values), up to the next blank line;
#   - "(<t> s)", "(<t> s elapsed)" and "in <t> s" (fig1, fig2, table1,
#     table2);
#   - sec41's last two columns, t(dC) s and t(dC,h) s.
function(cned_mask_timings name text out_var)
  set(t "[0-9.e+-]+")
  string(REGEX REPLACE "--- average search time[^\n]*\n([^\n]+\n)*"
         "--- average search time (masked) ---\n" text "${text}")
  string(REGEX REPLACE "\\(${t} s\\)" "(<t> s)" text "${text}")
  string(REGEX REPLACE "\\(${t} s elapsed\\)" "(<t> s elapsed)" text
         "${text}")
  string(REGEX REPLACE " in ${t} s\n" " in <t> s\n" text "${text}")
  if(name STREQUAL "sec41_heuristic_agreement")
    string(REGEX REPLACE "\\| *[0-9.-]+ *\\| *[0-9.-]+ *\\|\n" "| <t> | <t> |\n"
           text "${text}")
  endif()
  set(${out_var} "${text}" PARENT_SCOPE)
endfunction()

foreach(var BIN_DIR GOLDEN_DIR OUT_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_goldens.cmake: -D${var}=... is required")
  endif()
endforeach()
file(MAKE_DIRECTORY "${OUT_DIR}")
find_program(CNED_DIFF diff)

set(failed "")
foreach(name IN LISTS CNED_PAPER_HARNESSES)
  execute_process(COMMAND "${BIN_DIR}/${name}"
                  OUTPUT_VARIABLE stdout RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(SEND_ERROR "${name}: exited with ${rc}")
    list(APPEND failed ${name})
    continue()
  endif()
  cned_mask_timings(${name} "${stdout}" masked)
  set(golden "${GOLDEN_DIR}/${name}.txt")
  if("$ENV{CNED_UPDATE_GOLDENS}" STREQUAL "1")
    file(WRITE "${golden}" "${masked}")
    message(STATUS "${name}: golden rewritten")
    continue()
  endif()
  set(actual "${OUT_DIR}/${name}.txt")
  file(WRITE "${actual}" "${masked}")
  if(NOT EXISTS "${golden}")
    message(SEND_ERROR "${name}: no golden at ${golden}")
    list(APPEND failed ${name})
    continue()
  endif()
  file(READ "${golden}" expected)
  if(expected STREQUAL masked)
    message(STATUS "${name}: matches its golden")
    continue()
  endif()
  list(APPEND failed ${name})
  if(CNED_DIFF)
    execute_process(COMMAND "${CNED_DIFF}" -u "${golden}" "${actual}")
  endif()
  message(SEND_ERROR "${name}: output differs from ${golden} "
                     "(masked output kept at ${actual})")
endforeach()

if(failed)
  message(FATAL_ERROR "paper goldens failed: ${failed}")
endif()
