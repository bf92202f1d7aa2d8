#!/bin/sh
# Non-test lines per crate: the lines above the first `#[cfg(test)]` of
# every crates/*/src/**/*.rs and src/**/*.rs (the test module at the foot
# of the file; `tests.rs` files, and files that open with `#![cfg(test)]`,
# count nothing).
# ROADMAP item 7 names this number as the scoreboard. `--max <total>`
# makes it a ceiling: same output, exit 1 when the total is above it (CI
# passes the number the last PR landed on; a PR that must grow the
# program raises it in its own diff).
set -eu
max=
case "${1-}" in
    '') ;;
    --max) max=${2:?--max needs a line count} ;;
    *) echo "usage: $0 [--max <total>]" >&2; exit 2 ;;
esac
cd "$(dirname "$0")/.."
find crates/*/src src -name '*.rs' ! -name tests.rs | sort | while read -r f; do
    case "$f" in crates/*) crate=${f#crates/}; crate=${crate%%/*} ;; *) crate=pvfs ;; esac
    echo "$crate $(awk '/^#!?\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$f")"
done | awk -v max="$max" '
    { lines[$1] += $2; total += $2 }
    END {
        for (c in lines) printf "%-12s %6d\n", c, lines[c] | "sort"
        close("sort")
        printf "%-12s %6d\n", "total", total
        if (max != "" && total > max + 0) {
            printf "loc.sh: %d non-test lines, %d over the ceiling of %d\n", total, total - max, max > "/dev/stderr"
            exit 1
        }
    }'
