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

# Runs a seeded smoke command twice and requires its artifact to come out
# byte-identical — the workspace-wide determinism contract. Usage:
#
#   determinism_gate <name> <artifact> <cmd...>
#
# The command runs once (as a normal gated step), the artifact is
# stashed, the command runs again, and the two artifacts are cmp'd.
determinism_gate() {
    local name="$1"
    local artifact="$2"
    shift 2
    run_step "${name}" "$@"
    if [ ! -f "${artifact}" ]; then
        echo "==> ${name}-determinism: FAILED (${artifact} missing)"
        failures=$((failures + 1))
        return
    fi
    local stash
    stash="/tmp/sailfish_$(echo "${name}" | tr -c 'a-zA-Z0-9' '_')run1"
    cp "${artifact}" "${stash}"
    run_step "${name}-rerun" "$@"
    echo
    echo "==> ${name}-determinism: comparing the two runs of ${artifact}"
    if cmp -s "${stash}" "${artifact}"; then
        echo "==> ${name}-determinism: OK (byte-identical)"
    else
        echo "==> ${name}-determinism: FAILED (runs differ)"
        failures=$((failures + 1))
    fi
    rm -f "${stash}"
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

# 5. Static-analyzer smoke: every shipped layout must verify clean and
#    the known-bad corpus must fire its pinned codes.
determinism_gate "verify-smoke" experiments/verify_report.txt \
    cargo run --release --offline -q -p sailfish-bench --bin sailfish-verify

# 5b. Plan-time world-verifier smoke: staged installs and re-shard plans
#     must prove clean, the known-bad world corpus must fire its pinned
#     codes, delta re-verification must stay O(delta), and the chaos
#     soundness differential must report zero unflagged escapes.
determinism_gate "verify-world-smoke" experiments/verify_world_report.txt \
    cargo run --release --offline -q -p sailfish-bench \
    --bin verify_world_sweep -- --tiny

# 6. Fault-injection smoke: the chaos sweep must run clean (zero
#    invariant violations, every fault recovered) at tiny scale.
determinism_gate "chaos-smoke" experiments/fault_injection.json \
    cargo run --release --offline -q -p sailfish-bench \
    --bin fault_injection_sweep -- --tiny

# 7. Live-executor chaos smoke: fault schedules replayed against the
#    packet-level dataplane must hold all three invariants (no black
#    hole, bounded fallback, oracle agreement after every epoch swap).
determinism_gate "chaos-dataplane-smoke" experiments/chaos_dataplane.json \
    cargo run --release --offline -q -p sailfish-bench \
    --bin chaos_dataplane_sweep -- --tiny

# 7b. Elastic re-shard smoke: scripted make-before-break migrations
#     under live traffic and per-phase faults must commit or roll back
#     cleanly (zero violations, rollback from every pre-commit phase).
determinism_gate "reshard-smoke" experiments/reshard.json \
    cargo run --release --offline -q -p sailfish-bench \
    --bin reshard_sweep -- --tiny

# 7c. Stateful SNAT smoke: the hybrid connection-tracking tier must
#     agree with its naive reference, the port-pool alert must precede
#     the first dropped connection, and the published offload epoch must
#     leave the decision digest byte-identical.
determinism_gate "snat-smoke" experiments/snat.json \
    cargo run --release --offline -q -p sailfish-bench \
    --bin snat_sweep -- --tiny

# 7d. Three-tier ladder smoke: the DPU middle tier must keep decision
#     digests byte-identical, absorb the punt stream, fail over with
#     bounded churn, and fire per-tier alerts before breakers open.
determinism_gate "tier-smoke" experiments/tier.json \
    cargo run --release --offline -q -p sailfish-bench \
    --bin tier_sweep -- --tiny

# 8. Dataplane smoke: the behavioral executor must hold the differential
#    oracle at tiny scale.
determinism_gate "dataplane-smoke" BENCH_dataplane.json \
    cargo run --release --offline -q -p sailfish-bench \
    --bin dataplane_bench -- --tiny

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

echo
if [ "${failures}" -ne 0 ]; then
    echo "ci/check.sh: ${failures} step(s) failed"
    exit 1
fi
echo "ci/check.sh: all checks passed"
