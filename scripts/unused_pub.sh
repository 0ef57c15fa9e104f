#!/usr/bin/env bash
# Public functions and types that no non-test code reaches, one
# `file:line name` a line.
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
#
# A `pub struct` or `pub enum` in `crates/*/src` is listed when no other
# file's non-comment line of non-test code names it, `use` statements
# (imports and re-exports, a braced one up to its `;`) aside: its own impl
# blocks do not count as a use. A type
# reached only through another type's API, never by name, is listed too.
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
    file = where
    sub(/:[0-9]+$/, "", file)
    if (where ~ /^crates\/[^\/]+\/src\// && match(line, /^[ \t]*pub (struct|enum)[ \t]+[A-Za-z_][A-Za-z0-9_]*/)) {
      type = substr(line, RSTART, RLENGTH)
      sub(/^[ \t]*pub (struct|enum)[ \t]+/, "", type)
      tdefs[++tn] = where " " type
      tname[tn] = type
      tfile[tn] = file
    }
    # A `use` runs to its `;`, over several lines when braced.
    if (file != last_file) in_use = 0
    last_file = file
    if (line ~ /^[ \t]*(pub(\([a-z]+\))? )?use /) in_use = 1
    importing = in_use
    if (line ~ /;/) in_use = 0
    delete seen
    count_tokens = split(line, tokens, /[^A-Za-z0-9_]+/)
    for (i = 1; i <= count_tokens; i++) {
      t = tokens[i]
      if (t != "" && t != declared && !(t in seen)) {
        seen[t] = 1
        uses[t]++
        # The files that name `t`: how many, and the first.
        if (!importing && !((t, file) in named)) {
          named[t, file] = 1
          if (!(t in files)) first[t] = file
          files[t]++
        }
      }
    }
  }
  END {
    for (i = 1; i <= n; i++) if (!(name[i] in uses)) print defs[i]
    for (i = 1; i <= tn; i++) {
      t = tname[i]
      if (!(files[t] > 1 || (t in files && first[t] != tfile[i]))) print tdefs[i]
    }
  }'
