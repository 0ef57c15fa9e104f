#!/usr/bin/env bash
# Every `thread::sleep` in the non-test part of `crates/*/src`, one
# `file:line  code` a line; exits 1 when one is not on the allowlist.
#
#   bash scripts/sleeps.sh            # this checkout
#   bash scripts/sleeps.sh <dir>      # another one
#
# Each file is split at its first `#[cfg(test)]`, as `lines.sh` splits
# it: what comes before is non-test. Comment lines do not count. A
# shipped path waits on readiness, a timer or a blocking call, not on a
# sleep that polls.
set -euo pipefail
export LC_ALL=C
cd "${1:-$(dirname "${BASH_SOURCE[0]}")/..}"

# The allowlist: a file, a tab, and code the line must contain.
# - The reactor's portable backend: without epoll it cannot wait for
#   readiness, so it sleeps a beat and reports every descriptor ready.
#   Linux builds never run it.
allowed=$'crates/reactor/src/poll.rs\tsleep(timeout.min('

status=0
while IFS=$'\t' read -r where code; do
  verdict="NOT ALLOWED"
  while IFS=$'\t' read -r file fragment; do
    if [ "${where%%:*}" = "$file" ] && [[ "$code" == *"$fragment"* ]]; then
      verdict="allowed"
    fi
  done <<< "$allowed"
  echo "$where  $code  ($verdict)"
  if [ "$verdict" != allowed ]; then status=1; fi
done < <(find crates/*/src -name '*.rs' | sort | while read -r f; do
  awk '/#\[cfg\(test\)\]/ { exit }
       /^[ \t]*\/\// { next }
       /(^|[^A-Za-z0-9_])sleep\(/ { code = $0; sub(/^[ \t]+/, "", code); print FILENAME ":" FNR "\t" code }' "$f"
done)
exit "$status"
