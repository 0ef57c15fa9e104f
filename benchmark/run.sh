#!/usr/bin/env bash
# The one command of BENCHMARK.json: builds ltnc-ledger offline from this
# checkout, then runs it with the given arguments.
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   bash benchmark/run.sh all   [--seed <n>]    every workload, untraced then traced
#   bash benchmark/run.sh check [--seed <n>]    the untraced suite twice, compared
#
# Without arguments it runs `all`. Build output goes to standard error, so
# the result stays the last line of standard output.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml 1>&2
exec "$CARGO_TARGET_DIR/release/ltnc-ledger" "$@"
