#!/usr/bin/env bash
# Build `reclaimd` and the load generator from this checkout, then run
# one benchmark workload:
#
#   bash perfbench/run.sh --workload hot-cache --seed 1 --seconds 10 --trace 0
#
# Run from the root of a checkout. Build output goes to
# $CARGO_TARGET_DIR (default .bench_build); temporary files to .bench_run.
# The last line of standard output is the JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
if [[ ! -f Cargo.toml || ! -f crates/service/Cargo.toml ]]; then
    echo "perfbench: no reclaim workspace here (run from the root of a checkout)" >&2
    exit 1
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p reclaim_service --bin reclaimd >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" --reclaimd "$CARGO_TARGET_DIR/release/reclaimd" "$@"
