#!/bin/sh
# Non-test lines per crate: the lines above the first `#[cfg(test)]` of
# every crates/*/src/**/*.rs and src/**/*.rs (the test module at the foot
# of the file; `tests.rs` files, and files that open with `#![cfg(test)]`,
# count nothing) — then `vendor/`, the path shims, counted the same way
# on a line of its own, outside the total — and, last, the prose: the
# lines of DESIGN.md, EXPERIMENTS.md, README.md and the verify skill
# together.
# ROADMAP item 7 names the code total as the scoreboard, item 13 the
# prose one. `--max <total>` and `--max-prose <lines>` make them
# ceilings: same output, exit 1 when a total is above its ceiling (CI
# passes the numbers the last PR landed on; a PR that must grow either
# raises it in its own diff).
set -eu
max=
max_prose=
while [ $# -gt 0 ]; do
    case "$1" in
        --max) max=${2:?--max needs a line count}; shift 2 ;;
        --max-prose) max_prose=${2:?--max-prose needs a line count}; shift 2 ;;
        *) echo "usage: $0 [--max <total>] [--max-prose <lines>]" >&2; exit 2 ;;
    esac
done
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
find vendor/*/src -name '*.rs' | sort | while read -r f; do
    awk '/^#!?\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$f"
done | awk '{ n += $1 } END { printf "%-12s %6d\n", "vendor", n }'
cat DESIGN.md EXPERIMENTS.md README.md .claude/skills/verify/SKILL.md | awk -v max="$max_prose" '
    END {
        printf "%-12s %6d\n", "prose", NR
        if (max != "" && NR > max + 0) {
            printf "loc.sh: %d lines of prose, %d over the ceiling of %d\n", NR, NR - max, max > "/dev/stderr"
            exit 1
        }
    }'
