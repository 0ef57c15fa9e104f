#!/usr/bin/env bash
# Non-test and test lines of Rust per crate, as a Markdown table.
#
#   bash scripts/lines.sh          # this checkout
#   bash scripts/lines.sh <dir>    # another one, e.g. a `git archive` export
#
# Every `.rs` file is split at its first `#[cfg(test)]`: what comes
# before is non-test, the rest test. Files under a `tests/` directory
# count as test, `examples/` as non-test. Subtract two runs to get a
# change's delta.
set -euo pipefail
cd "${1:-$(dirname "${BASH_SOURCE[0]}")/..}"
for dir in crates/*/ examples/ tests/ vendor/*/; do
  find "$dir" -name '*.rs' | while read -r f; do
    case "$f" in
      */tests/*) echo "0 $(wc -l < "$f")" ;;
      *) awk '/#\[cfg\(test\)\]/ { t = 1 } { if (t) test++; else code++ } END { print code + 0, test + 0 }' "$f" ;;
    esac
  done | awk -v d="$dir" '{ code += $1; test += $2 } END { print d, code + 0, test + 0 }'
done | awk '
  BEGIN { print "| dir | non-test | test |"; print "|---|---:|---:|" }
  { printf "| %s | %d | %d |\n", $1, $2, $3; code += $2; test += $3 }
  END { printf "| total | %d | %d |\n", code, test }'
