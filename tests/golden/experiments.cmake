# Checks the tables EXPERIMENTS.md restates against the goldens they come
# from, so a number cannot change in one without the other:
#
#   cmake -DDOC=<EXPERIMENTS.md> -DGOLDEN_DIR=<tests/golden>
#         -DBENCH_SCENARIO=<BENCH_scenario.json> -P experiments.cmake
#
# - Fig. 5a/5b: the camera-count table under "## Fig. 5a/5b" against the
#   first table of bench_fig5_scalability.txt.
# - Table 1: the measured columns of the table under "## Table 1" (config,
#   #TPUs (measured), #RPis, cost (measured)) against
#   bench_table1_cost.txt. The paper's columns are not read.
# - Fig. 6: the acceptance table under "## Fig. 6a/6b" (config, attempted,
#   accepted, Fig. 6b peak) against bench_fig6_trace.txt's acceptance totals
#   and each config's largest Fig. 6b per-minute camera count.
# - Flash crowd: the attainment table under "## Scenario engine" and the
#   table after "Deadline-met ÷ submitted by phase" against
#   BENCH_scenario.json. Rows are keyed by phase name, columns are the
#   file's policies in its order, and each cell is recomputed from the
#   phase's integer counts (deadline_met over completed or submitted),
#   rounded half up to three decimals.
#
# Only tables are read, never prose: a markdown row "| a | b |" (indented
# or not) and a golden row "a    b" (cells two or more spaces apart) both
# become "a,b".

foreach(var DOC GOLDEN_DIR BENCH_SCENARIO)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "experiments.cmake: -D${var}=... is required")
  endif()
endforeach()

# The rows of the first table headed by the line `header` after `anchor` in
# `file`: the lines after the header and its rule, up to a blank line.
function(table_rows file anchor header out)
  file(READ "${file}" text)
  string(FIND "${text}" "${anchor}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "${file}: no \"${anchor}\"")
  endif()
  string(SUBSTRING "${text}" ${at} -1 text)
  string(FIND "${text}" "${header}\n" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "${file}: no table headed \"${header}\" after "
                        "\"${anchor}\"")
  endif()
  string(SUBSTRING "${text}" ${at} -1 text)
  string(FIND "${text}" "\n\n" end)
  string(SUBSTRING "${text}" 0 ${end} text)
  string(REPLACE "\n" ";" lines "${text}")
  list(SUBLIST lines 2 -1 lines)
  set(rows "")
  foreach(line IN LISTS lines)
    string(STRIP "${line}" line)
    if(line MATCHES "^\\|")
      string(REGEX REPLACE "^\\| *(.*[^ ]) *\\|$" "\\1" line "${line}")
      string(REGEX REPLACE " *\\| *" "," line "${line}")
    else()
      string(REGEX REPLACE "   *" "," line "${line}")
    endif()
    list(APPEND rows "${line}")
  endforeach()
  set(${out} "${rows}" PARENT_SCOPE)
endfunction()

function(expect_rows what doc golden)
  if(NOT doc STREQUAL golden)
    string(REPLACE ";" "\n    " doc "${doc}")
    string(REPLACE ";" "\n    " golden "${golden}")
    message(FATAL_ERROR "${what} differs from its golden.\n"
                        "  EXPERIMENTS.md:\n    ${doc}\n"
                        "  golden:\n    ${golden}")
  endif()
endfunction()

# Fig. 5a/5b camera counts.
table_rows("${DOC}" "## Fig. 5a/5b" "| #TPUs | baseline | w/o W.P. | w/ W.P. |"
           doc_fig5)
table_rows("${GOLDEN_DIR}/bench_fig5_scalability.txt" "== Fig. 5a/5b"
           "#TPUs  baseline  MicroEdge w/o W.P.  MicroEdge w/ W.P."
           golden_fig5)
expect_rows("Fig. 5a/5b camera counts (bench_fig5_scalability.txt)"
            "${doc_fig5}" "${golden_fig5}")

# Table 1 measured columns.
table_rows("${DOC}" "## Table 1"
           "| config | #TPUs (paper) | #TPUs (measured) | #RPis | cost (paper) | cost (measured) |"
           rows)
set(doc_table1 "")
foreach(row IN LISTS rows)
  string(REPLACE "," ";" cells "${row}")
  list(GET cells 0 2 3 5 measured)
  list(JOIN measured "," measured)
  list(APPEND doc_table1 "${measured}")
endforeach()
table_rows("${GOLDEN_DIR}/bench_table1_cost.txt" "== Table 1"
           "config  #TPUs  #RPis  total cost" golden_table1)
expect_rows("Table 1 TPUs, RPis and cost (bench_table1_cost.txt)"
            "${doc_table1}" "${golden_table1}")

# Fig. 6 acceptance totals and per-minute peaks. The Fig. 6b header names
# the configs in the acceptance table's row order, so column i + 1 of a
# Fig. 6b row is config i.
set(fig6 "${GOLDEN_DIR}/bench_fig6_trace.txt")
table_rows("${fig6}" "== Acceptance totals"
           "config  attempted  accepted  rejected  streams meeting SLO"
           totals)
set(configs "")
foreach(row IN LISTS totals)
  string(REGEX MATCH "^[^,]*" config "${row}")
  list(APPEND configs "${config}")
endforeach()
list(JOIN configs "  " columns)
table_rows("${fig6}" "== Fig. 6b" "minute  ${columns}" minutes)
list(LENGTH configs n)
math(EXPR last "${n} - 1")
set(peaks "")
foreach(i RANGE ${last})
  set(peak 0)
  math(EXPR column "${i} + 1")
  foreach(row IN LISTS minutes)
    string(REPLACE "," ";" cells "${row}")
    list(GET cells ${column} served)
    if(served GREATER peak)
      set(peak ${served})
    endif()
  endforeach()
  list(APPEND peaks ${peak})
endforeach()
set(golden_fig6 "")
foreach(i RANGE ${last})
  list(GET totals ${i} row)
  string(REGEX MATCH "^[^,]*,[^,]*,[^,]*" row "${row}")
  list(GET peaks ${i} peak)
  list(APPEND golden_fig6 "${row},${peak}")
endforeach()
table_rows("${DOC}" "## Fig. 6a/6b" "| config | attempted | accepted | Fig. 6b peak |"
           doc_fig6)
expect_rows("Fig. 6 acceptance totals and peaks (bench_fig6_trace.txt)"
            "${doc_fig6}" "${golden_fig6}")

# Flash-crowd tables. ratio3(num den out) sets `out` to num / den rounded
# half up to three decimals ("1.000" when den is 0, as the bench reads an
# empty phase); counts are non-negative, and a ratio may pass 1.
function(ratio3 num den out)
  if(den EQUAL 0)
    set(${out} "1.000" PARENT_SCOPE)
    return()
  endif()
  math(EXPR milli "(${num} * 2000 + ${den}) / (2 * ${den})")
  math(EXPR whole "${milli} / 1000")
  math(EXPR frac "${milli} % 1000 + 1000")
  string(SUBSTRING "${frac}" 1 3 frac)
  set(${out} "${whole}.${frac}" PARENT_SCOPE)
endfunction()

file(READ "${BENCH_SCENARIO}" bench)
string(JSON npolicies LENGTH "${bench}" policies)
math(EXPR lastPolicy "${npolicies} - 1")
set(header "| phase (s) |")
foreach(p RANGE ${lastPolicy})
  string(JSON policy GET "${bench}" policies ${p} policy)
  string(APPEND header " ${policy} |")
endforeach()

# flash_table(anchor denominator what): the doc table headed `header` after
# `anchor`, each row "<phase> (<span>)" against that phase's deadline_met /
# <denominator> under every policy.
function(flash_table anchor denominator what)
  table_rows("${DOC}" "${anchor}" "${header}" rows)
  set(doc "")
  set(golden "")
  foreach(row IN LISTS rows)
    string(REGEX REPLACE " \\([^)]*\\)," "," row "${row}")
    list(APPEND doc "${row}")
    string(REGEX MATCH "^[^,]*" phase "${row}")
    set(cells "${phase}")
    foreach(p RANGE ${lastPolicy})
      string(JSON nphases LENGTH "${bench}" policies ${p} phases)
      math(EXPR lastPhase "${nphases} - 1")
      set(cell "")
      foreach(i RANGE ${lastPhase})
        string(JSON name GET "${bench}" policies ${p} phases ${i} name)
        if(name STREQUAL phase)
          string(JSON met GET "${bench}" policies ${p} phases ${i}
                 deadline_met)
          string(JSON den GET "${bench}" policies ${p} phases ${i}
                 ${denominator})
          ratio3(${met} ${den} cell)
        endif()
      endforeach()
      if(cell STREQUAL "")
        set(cell "no phase ${phase}")
      endif()
      string(APPEND cells ",${cell}")
    endforeach()
    list(APPEND golden "${cells}")
  endforeach()
  string(JSON nphases LENGTH "${bench}" policies 0 phases)
  list(LENGTH rows nrows)
  if(NOT nrows EQUAL nphases)
    message(FATAL_ERROR "${what}: EXPERIMENTS.md has ${nrows} rows, "
                        "BENCH_scenario.json ${nphases} phases")
  endif()
  expect_rows("${what}" "${doc}" "${golden}")
endfunction()

flash_table("## Scenario engine" completed
            "Flash-crowd attainment (BENCH_scenario.json)")
flash_table("Deadline-met ÷ submitted by phase" submitted
            "Flash-crowd deadline-met ÷ submitted (BENCH_scenario.json)")
