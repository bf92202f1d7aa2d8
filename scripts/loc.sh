#!/bin/sh
# Non-test lines per crate: the lines above the first `#[cfg(test)]` of
# every crates/*/src/**/*.rs and src/**/*.rs (the test module at the foot
# of the file; `tests.rs` files excluded).
# ROADMAP item 6 names this number as the scoreboard.
set -eu
cd "$(dirname "$0")/.."
find crates/*/src src -name '*.rs' ! -name tests.rs | sort | while read -r f; do
    case "$f" in crates/*) crate=${f#crates/}; crate=${crate%%/*} ;; *) crate=pvfs ;; esac
    echo "$crate $(awk '/^#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$f")"
done | awk '
    { lines[$1] += $2; total += $2 }
    END {
        for (c in lines) printf "%-12s %6d\n", c, lines[c] | "sort"
        close("sort")
        printf "%-12s %6d\n", "total", total
    }'
