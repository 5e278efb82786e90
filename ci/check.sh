#!/usr/bin/env bash
# Tier-1 verification gate for the Sailfish workspace.
#
# The workspace is hermetic: it must build and test fully offline, from
# an empty cargo registry, with no external crates (sailfish-util is the
# in-tree replacement for what used to come from crates.io). This script
# is the single check every PR must pass:
#
#   ci/check.sh            # build + test + fmt + clippy + smokes + benchmark gate + dependency policy
#
# fmt and clippy skip gracefully when the component is not installed
# (e.g. a minimal CI container); build and test never skip.

set -u -o pipefail

cd "$(dirname "$0")/.."

failures=0

run_step() {
    local name="$1"
    shift
    echo
    echo "==> ${name}: $*"
    if "$@"; then
        echo "==> ${name}: OK"
    else
        echo "==> ${name}: FAILED"
        failures=$((failures + 1))
    fi
}

# Runs a seeded smoke command twice and requires the artifact directory
# it writes to come out byte-identical — the workspace-wide determinism
# contract. Usage:
#
#   determinism_gate <name> <dir> <cmd...>
#
# The command runs once (as a normal gated step), the directory is
# stashed, the command runs again, and the two copies are compared file
# by file.
determinism_gate() {
    local name="$1"
    local dir="$2"
    shift 2
    run_step "${name}" "$@"
    local stash
    stash="$(mktemp -d)"
    cp -R "${dir}/." "${stash}"
    run_step "${name}-rerun" "$@"
    echo
    echo "==> ${name}-determinism: comparing the two runs of ${dir}/"
    if diff -r -q "${stash}" "${dir}"; then
        echo "==> ${name}-determinism: OK (byte-identical)"
    else
        echo "==> ${name}-determinism: FAILED (runs differ)"
        failures=$((failures + 1))
    fi
    rm -rf "${stash}"
}

# 1. Offline release build — proves dependency resolution needs no network.
run_step "build" cargo build --release --offline

# 2. Offline test suite.
run_step "test" cargo test -q --offline

# 3. Formatting (skip if rustfmt is not installed).
if cargo fmt --version >/dev/null 2>&1; then
    run_step "fmt" cargo fmt --check
else
    echo "==> fmt: SKIPPED (rustfmt not installed)"
fi

# 4. Lints (skip if clippy is not installed).
if cargo clippy --version >/dev/null 2>&1; then
    run_step "clippy" cargo clippy --offline --workspace --all-targets -- -D warnings
else
    echo "==> clippy: SKIPPED (clippy not installed)"
fi

# 5. Reproduction smoke: every experiment at --tiny scale must hold all
#    its claims (the static analyzers' layouts verify clean and their
#    known-bad corpora fire their pinned codes; the chaos, re-shard, SNAT
#    and tier sweeps hold their invariants; Fig 18's executor agrees with
#    the differential oracle), and two runs must write byte-identical
#    experiments/ directories.
determinism_gate "repro-smoke" experiments \
    cargo run --release --offline -q -p sailfish-bench --bin repro -- --tiny

# 5'. The committed experiments/ are those --tiny outputs: a change that
#     moves any artifact must commit it, or the two runs above agreeing
#     with each other proves nothing about the tree.
experiments_match_tree() {
    local changed
    changed="$(git status --porcelain -- experiments/)"
    if [ -n "${changed}" ]; then
        echo "experiments/ differs from the committed tree:"
        echo "${changed}"
        return 1
    fi
}
run_step "repro-artifacts" experiments_match_tree

# 10a. Stand-alone benchmark crate: `benchmark/` is frozen between
#      `[benchmark]` PRs and builds against this workspace's public API,
#      so drift in anything it imports must fail here, not in the
#      benchmark pipeline. Its own tests, then one smoke pass per
#      workload for the correctness gate (differential oracle, zero
#      failed operations) — no timing is asserted.
run_step "benchmark" bash -c 'benchmark/run.sh test && benchmark/run.sh run --smoke'

# 10a'. Steady-state allocation gate: one traced pass (counting
#       allocator on) per workload shape must come out correct with zero
#       allocations per packet — `hot_path` for the all-hit fast path,
#       `miss_walk` for the batch executor's miss stage, and `churn`, the
#       one workload that builds an epoch *beside* traffic, which must
#       also be free of torn epochs.
traced_smoke() {
    local workload="$1"
    shift
    local line want
    line=$(benchmark/run.sh run --smoke --workload "${workload}" --trace 1 | tail -n 1) || return 1
    for want in '"correct":true' "$@"; do
        case "${line}" in
            *"${want}"*) ;;
            *)
                echo "${workload}: want ${want}, got: ${line}"
                return 1
                ;;
        esac
    done
}
run_step "benchmark-hot-path-allocs" traced_smoke hot_path '"batch.allocs_per_pkt":{"value":0,'
run_step "benchmark-miss-stage-allocs" traced_smoke miss_walk \
    '"batch.allocs_per_pkt":{"value":0,'
run_step "benchmark-churn-install" traced_smoke churn \
    '"batch.allocs_per_pkt":{"value":0,' '"epoch.violations":{"value":0,'

# 10b. Documentation: every public item documents cleanly — broken
#      intra-doc links or missing docs on lint-enforced crates fail.
run_step "doc" env RUSTDOCFLAGS="-D warnings" \
    cargo doc --no-deps --offline --workspace

# 11. Dependency policy: no external crates anywhere in the workspace.
echo
echo "==> policy: no external crate references in manifests"
if grep -rn "rand\|proptest\|criterion\|serde\|crossbeam\|parking_lot\|bytes" \
    Cargo.toml crates/*/Cargo.toml; then
    echo "==> policy: FAILED (external crate reference found above)"
    failures=$((failures + 1))
else
    echo "==> policy: OK"
fi

# 12. Size report: non-test lines per crate. Informational, never fails;
#     run `ci/loc.sh DIR` on a checkout of the parent commit to compare.
echo
echo "==> loc: non-test lines in crates/*/src (report only)"
ci/loc.sh || true

# 13. Panic census: `.expect(`/`.unwrap()`/`panic!`/`unreachable!`/
#     `assert*!` sites in library code, per file. Informational, never
#     fails; `ci/panics.sh DIR` on a parent checkout compares.
echo
echo "==> panics: panic sites in non-test crates/*/src, crates/bench aside (report only)"
ci/panics.sh || true

echo
if [ "${failures}" -ne 0 ]; then
    echo "ci/check.sh: ${failures} step(s) failed"
    exit 1
fi
echo "ci/check.sh: all checks passed"
