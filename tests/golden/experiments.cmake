# Checks the paper tables EXPERIMENTS.md restates against the goldens they
# come from, so a number cannot change in one without the other:
#
#   cmake -DDOC=<EXPERIMENTS.md> -DGOLDEN_DIR=<tests/golden>
#         -P experiments.cmake
#
# - Fig. 5a/5b: the camera-count table under "## Fig. 5a/5b" against the
#   first table of bench_fig5_scalability.txt.
# - Fig. 6: the acceptance table under "## Fig. 6a/6b" (config, attempted,
#   accepted, Fig. 6b peak) against bench_fig6_trace.txt's acceptance totals
#   and each config's largest Fig. 6b per-minute camera count.
#
# Only tables are read, never prose: a markdown row "| a | b |" and a
# golden row "a    b" (cells two or more spaces apart) both become "a,b".

foreach(var DOC GOLDEN_DIR)
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
    if(line MATCHES "^\\|")
      string(REGEX REPLACE "^\\| *(.*[^ ]) *\\|$" "\\1" line "${line}")
      string(REGEX REPLACE " *\\| *" "," line "${line}")
    else()
      string(STRIP "${line}" line)
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
