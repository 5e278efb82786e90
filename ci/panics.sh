#!/usr/bin/env bash
# Panic sites in library code, per file.
#
#   ci/panics.sh          # the workspace this script lives in
#   ci/panics.sh DIR      # another checkout, e.g. a clone of the parent commit
#
# Counts `.expect(`, `.unwrap()`, `panic!`, `unreachable!` and the
# `assert*!` macros (`debug_assert*!` included) in the non-test code of
# `crates/*/src`, leaving out `crates/bench` (the experiment harness,
# whose claims are assertions by design) and comment lines. A file's
# non-test code is every line up to its first `#[cfg(test)]`, as in
# `ci/loc.sh`. Prints one `<sites> <file>` row per file that has any,
# then a `<sites> total` row, for comparing a change against its parent.

set -u -o pipefail

root="${1:-$(dirname "$0")/..}"
cd "${root}" || exit 1

find crates/*/src -name '*.rs' -not -path 'crates/bench/*' -print0 | sort -z |
    xargs -0 -r awk '
        FNR == 1 { done = 0 }
        /#\[cfg\(test\)\]/ { done = 1 }
        done || /^[[:space:]]*\/\// { next }
        {
            n = gsub(/\.expect\(|\.unwrap\(\)|panic!|unreachable!|assert[a-z_]*!/, "&")
            if (n > 0) { sites[FILENAME] += n; total += n }
        }
        END {
            for (file in sites) printf "%7d %s\n", sites[file], file | "sort -k2"
            close("sort -k2")
            printf "%7d total\n", total
        }'
