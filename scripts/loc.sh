#!/bin/sh
# Prints the size of the source tree as the repository's committed ruler
# for "smaller": Go lines per package (tracked files only, benchmark/
# excluded), and one total. Three columns, because deleting or reflowing
# comments is not a reduction and tests are not source: "lines" is what
# wc -l counts of the non-test files, "code" drops their blank lines and
# lines holding only a // comment, and "tests" is what wc -l counts of
# the _test.go files.
#
# Usage: scripts/loc.sh            (CI prints it on every run)
set -eu
cd "$(dirname "$0")/.."
git ls-files '*.go' | grep -v '^benchmark/' | sort |
    xargs awk '
        FNR == 1 {
            pkg = FILENAME
            if (!sub("/[^/]*$", "", pkg)) pkg = "."
            if (!(pkg in seen)) { seen[pkg] = 1; order[++n] = pkg }
            test = FILENAME ~ /_test\.go$/
        }
        test { tests[pkg]++; totalTests++; next }
        { lines[pkg]++; total++ }
        !/^[ \t]*(\/\/.*)?$/ { code[pkg]++; totalCode++ }
        END {
            printf "%-32s %8s %8s %8s\n", "package", "lines", "code", "tests"
            for (i = 1; i <= n; i++)
                printf "%-32s %8d %8d %8d\n", order[i], lines[order[i]], code[order[i]], tests[order[i]]
            printf "%-32s %8d %8d %8d\n", "total", total, totalCode, totalTests
        }'
