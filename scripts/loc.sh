#!/bin/sh
# Prints the size of the source tree as the repository's committed ruler
# for "smaller": non-test Go lines per package (tracked files only,
# benchmark/ excluded), and one total. Two columns, because deleting or
# reflowing comments is not a reduction: "lines" is what wc -l counts,
# "code" drops blank lines and lines holding only a // comment.
#
# Usage: scripts/loc.sh            (CI prints it on every run)
set -eu
cd "$(dirname "$0")/.."
git ls-files '*.go' | grep -v '_test\.go$' | grep -v '^benchmark/' | sort |
    xargs awk '
        FNR == 1 {
            pkg = FILENAME
            if (!sub("/[^/]*$", "", pkg)) pkg = "."
            if (!(pkg in lines)) order[++n] = pkg
        }
        { lines[pkg]++; total++ }
        !/^[ \t]*(\/\/.*)?$/ { code[pkg]++; totalCode++ }
        END {
            printf "%-32s %8s %8s\n", "package", "lines", "code"
            for (i = 1; i <= n; i++)
                printf "%-32s %8d %8d\n", order[i], lines[order[i]], code[order[i]]
            printf "%-32s %8d %8d\n", "total", total, totalCode
        }'
