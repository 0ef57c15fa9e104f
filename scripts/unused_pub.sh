#!/usr/bin/env bash
# Public functions that no non-test code calls, one `file:line name` a line.
#
#   bash scripts/unused_pub.sh            # this checkout
#   bash scripts/unused_pub.sh <dir>      # another one
#
# A `pub fn` in `crates/*/src` is listed when its name appears on no other
# non-comment line of non-test code: `crates/*/src` before each file's
# first `#[cfg(test)]`, `crates/*/examples`, `examples/` and
# `benchmark/src`. A line that declares another `fn` of the same name does
# not count as a use. The match is by name only, so a listed function is
# reached from tests alone (or from nowhere); one that shares its name with
# a used function is not listed.
set -euo pipefail
export LC_ALL=C
cd "${1:-$(dirname "${BASH_SOURCE[0]}")/..}"

{
  find crates/*/src -name '*.rs' | sort | while read -r f; do
    awk '/#\[cfg\(test\)\]/ { exit } { print FILENAME ":" FNR "\t" $0 }' "$f"
  done
  find crates/*/examples examples benchmark/src -name '*.rs' 2>/dev/null | sort | while read -r f; do
    awk '{ print FILENAME ":" FNR "\t" $0 }' "$f"
  done
} | awk -F '\t' '
  {
    where = $1
    line = substr($0, length(where) + 2)
    if (line ~ /^[ \t]*\/\//) next
    declared = ""
    if (match(line, /fn[ \t]+[A-Za-z_][A-Za-z0-9_]*/)) {
      declared = substr(line, RSTART, RLENGTH)
      sub(/^fn[ \t]+/, "", declared)
    }
    if (where ~ /^crates\/[^\/]+\/src\// && line ~ /^[ \t]*pub (const |unsafe |async )*fn /) {
      defs[++n] = where " " declared
      name[n] = declared
    }
    delete seen
    count_tokens = split(line, tokens, /[^A-Za-z0-9_]+/)
    for (i = 1; i <= count_tokens; i++) {
      t = tokens[i]
      if (t != "" && t != declared && !(t in seen)) {
        seen[t] = 1
        uses[t]++
      }
    }
  }
  END {
    for (i = 1; i <= n; i++) if (!(name[i] in uses)) print defs[i]
  }'
