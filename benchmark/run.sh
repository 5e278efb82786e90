#!/usr/bin/env bash
# The repo benchmark's single entry point (the command in /BENCHMARK.json).
#
#   benchmark/run.sh run [--workload W] [--seed N] [--seconds S] [--trace [0|1]]
#                        [--smoke] [--repeats K] [--out FILE]
#   benchmark/run.sh compare A.json B.json
#   benchmark/run.sh test
#
# Builds the stand-alone benchmark crate from source (offline, no
# external crates) and runs it. Everything it writes lands under
# benchmark/out/ or the cargo target directory.
set -euo pipefail

here="$(dirname "${BASH_SOURCE[0]}")"
target="${CARGO_TARGET_DIR:-$here/target}"

cmd="run"
case "${1:-}" in
    run | compare | test)
        cmd="$1"
        shift
        ;;
esac

if [ "$cmd" = "test" ]; then
    exec cargo test --release --offline --locked \
        --manifest-path "$here/Cargo.toml" --target-dir "$target" "$@"
fi

# Build chatter goes to stderr: the last line of stdout is the result.
cargo build --release --offline --locked \
    --manifest-path "$here/Cargo.toml" --target-dir "$target" 1>&2

if [ "$cmd" = "run" ]; then
    exec "$target/release/sailfish-benchmark" run --out-dir "$here/out" "$@"
fi
exec "$target/release/sailfish-benchmark" compare "$@"
