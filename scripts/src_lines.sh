#!/bin/sh
# Non-comment lines of the main sources: per file and in total, the non-blank
# lines under src/main/scala whose first non-blank characters are not `//`,
# `*` or `/**`. Run from anywhere inside the repository.
cd "$(git rev-parse --show-toplevel)" || exit 1
find src/main/scala -name '*.scala' | sort | xargs awk '
  FNR == 1 && NR > 1 { printf "%6d  %s\n", n, prev; n = 0 }
  { prev = FILENAME; line = $0; sub(/^[ \t]+/, "", line) }
  line != "" && line !~ /^(\/\/|\*|\/\*\*)/ { n++; total++ }
  END { if (NR > 0) printf "%6d  %s\n", n, prev; printf "%6d  total\n", total }'
