#!/usr/bin/env bash
# Non-test Rust lines per crate: every line of crates/*/src/**/*.rs except
# `#[cfg(test)]` items. Items are matched by braces (string, char and
# comment text is skipped), because some sit mid-file rather than at the
# end. The bench binaries (crates/bench/src/bin) are reported on their own
# line and left out of the total. Takes no options; works from any cwd.
set -euo pipefail
cd "$(dirname "$0")/.."

find crates -path '*/src/*' -name '*.rs' | LC_ALL=C sort | xargs awk '
# Feeds one line of a #[cfg(test)] item through a small lexer; returns 1
# when the item ends on it (its outermost brace closes, or a `;` ends a
# brace-less item such as `use`).
function scan(line,   i, j, n, c, prev) {
    n = length(line)
    for (i = 1; i <= n; i++) {
        c = substr(line, i, 1)
        if (in_str) {
            if (c == "\\") { i++ } else if (c == "\"") { in_str = 0 }
            continue
        }
        if (in_raw) {
            if (c == "\"" && substr(line, i + 1, length(raw_close)) == raw_close) {
                in_raw = 0
                i += length(raw_close)
            }
            continue
        }
        if (c == "/" && substr(line, i + 1, 1) == "/") { break }
        prev = i > 1 ? substr(line, i - 1, 1) : " "
        if (c == "\"") { in_str = 1; continue }
        if (c == "r" && prev !~ /[A-Za-z0-9_]/ && match(substr(line, i + 1), /^#*"/)) {
            raw_close = substr(line, i + 1, RLENGTH - 1)
            in_raw = 1
            i += RLENGTH
            continue
        }
        if (c == "\x27") {
            if (substr(line, i + 1, 1) == "\\") {
                j = index(substr(line, i + 2), "\x27")
                i += 1 + j
            } else if (substr(line, i + 2, 1) == "\x27") {
                i += 2
            }
            continue
        }
        if (c == "{") { depth++; opened = 1 }
        else if (c == "}") { depth--; if (opened && depth == 0) { return 1 } }
        else if (c == ";" && !opened) { return 1 }
    }
    return 0
}
FNR == 1 {
    skip = 0
    split(FILENAME, parts, "/")
    crate = parts[2]
    if (FILENAME ~ /^crates\/bench\/src\/bin\//) { crate = "bench binaries" }
}
{
    if (!skip && $0 ~ /^[ \t]*#\[cfg\(test\)\]/) {
        skip = 1; depth = 0; opened = 0; in_str = 0; in_raw = 0
        rest = $0
        sub(/^[ \t]*#\[cfg\(test\)\]/, "", rest)
        if (scan(rest)) { skip = 0 }
        next
    }
    if (skip) {
        if (scan($0)) { skip = 0 }
        next
    }
    lines[crate]++
}
END {
    for (c in lines) {
        if (c != "bench binaries") {
            printf "%-16s %7d\n", c, lines[c] | "LC_ALL=C sort"
            total += lines[c]
        }
    }
    close("LC_ALL=C sort")
    printf "%-16s %7d\n", "total", total
    printf "%-16s %7d\n", "bench binaries", lines["bench binaries"]
}'
