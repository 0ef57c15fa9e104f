#!/usr/bin/env bash
# Non-test and test lines of Rust per crate, as a Markdown table.
#
#   bash scripts/lines.sh                 # this checkout
#   bash scripts/lines.sh <dir>           # another one, e.g. a `git archive` export
#   bash scripts/lines.sh <parent> <change>   # both, and the change's delta
#
# Every `.rs` file is split at its first `#[cfg(test)]`: what comes
# before is non-test, the rest test. Files under a `tests/` directory
# count as test, `examples/` as non-test.
set -euo pipefail
export LC_ALL=C

# Prints "<dir> <non-test> <test>" for every crate of the checkout at $1.
count() (
  cd "$1"
  for dir in crates/*/ examples/ tests/ vendor/*/; do
    find "$dir" -name '*.rs' | while read -r f; do
      case "$f" in
        */tests/*) echo "0 $(wc -l < "$f")" ;;
        *) awk '/#\[cfg\(test\)\]/ { t = 1 } { if (t) test++; else code++ } END { print code + 0, test + 0 }' "$f" ;;
      esac
    done | awk -v d="$dir" '{ code += $1; test += $2 } END { print d, code + 0, test + 0 }'
  done
)

if [ $# -eq 2 ]; then
  # A crate missing from one side counts as zero lines there.
  join -a 1 -a 2 -e 0 -o 0,1.2,1.3,2.2,2.3 <(count "$1" | sort) <(count "$2" | sort) | awk '
    BEGIN {
      print "| dir | non-test parent | non-test change | non-test delta | test parent | test change | test delta |"
      print "|---|---:|---:|---:|---:|---:|---:|"
    }
    {
      printf "| %s | %d | %d | %+d | %d | %d | %+d |\n", $1, $2, $4, $4 - $2, $3, $5, $5 - $3
      for (i = 2; i <= 5; i++) sum[i] += $i
    }
    END {
      printf "| total | %d | %d | %+d | %d | %d | %+d |\n", sum[2], sum[4], sum[4] - sum[2], sum[3], sum[5], sum[5] - sum[3]
    }'
else
  count "${1:-$(dirname "${BASH_SOURCE[0]}")/..}" | awk '
    BEGIN { print "| dir | non-test | test |"; print "|---|---:|---:|" }
    { printf "| %s | %d | %d |\n", $1, $2, $3; code += $2; test += $3 }
    END { printf "| total | %d | %d |\n", code, test }'
fi
