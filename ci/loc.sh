#!/usr/bin/env bash
# Non-test source lines per crate.
#
#   ci/loc.sh          # the workspace this script lives in
#   ci/loc.sh DIR      # another checkout, e.g. a clone of the parent commit
#
# A file under `crates/*/src` counts every line up to its first
# `#[cfg(test)]`: unit-test modules sit at the end of their file, so what
# is left is the library code. Prints one `<lines> <crate>` row per crate
# and a `<lines> total` row, for comparing a change against its parent.

set -u -o pipefail

root="${1:-$(dirname "$0")/..}"
cd "${root}" || exit 1

total=0
for src in crates/*/src; do
    crate="${src#crates/}"
    crate="${crate%/src}"
    lines=$(find "${src}" -name '*.rs' -print0 | sort -z |
        xargs -0 -r awk 'FNR == 1 { done = 0 } /#\[cfg\(test\)\]/ { done = 1 } !done { n++ } END { print n + 0 }' |
        awk '{ s += $1 } END { print s + 0 }')
    printf '%7d %s\n' "${lines:-0}" "${crate}"
    total=$((total + ${lines:-0}))
done
printf '%7d total\n' "${total}"
