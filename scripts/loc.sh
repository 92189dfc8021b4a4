#!/bin/sh
# Prints the size of the source tree as the repository's committed ruler
# for "smaller": Go lines per package (tracked files only, benchmark/
# excluded), and one total. Three columns, because deleting or reflowing
# comments is not a reduction and tests are not source: "lines" is what
# wc -l counts of the non-test files, "code" drops their blank lines and
# lines holding only a // comment, and "tests" is what wc -l counts of
# the _test.go files.
#
# Usage: scripts/loc.sh          the working tree (CI prints it on every run)
#        scripts/loc.sh <rev>    <rev>'s three columns beside the working
#                                tree's, "-" where a side has no package
set -eu
cd "$(dirname "$0")/.."

# count DIR reads file paths relative to DIR on stdin and prints one row
# per package, "package lines code tests", then the total row.
count() {
    grep '\.go$' | grep -v '^benchmark/' | sort | (cd "$1" && xargs awk '
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
            for (i = 1; i <= n; i++)
                print order[i], lines[order[i]] + 0, code[order[i]] + 0, tests[order[i]] + 0
            print "total", total + 0, totalCode + 0, totalTests + 0
        }')
}

if [ $# -eq 0 ]; then
    git ls-files | count . | awk '
        BEGIN { printf "%-32s %8s %8s %8s\n", "package", "lines", "code", "tests" }
        { printf "%-32s %8d %8d %8d\n", $1, $2, $3, $4 }'
    exit 0
fi

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/src"
git archive "$1" | tar -x -C "$tmp/src"
git ls-tree -r --name-only "$1" | count "$tmp/src" >"$tmp/rev"
git ls-files | count . >"$tmp/tree"
awk -v rev="$1" '
    NR == FNR { a[$1] = $2 " " $3 " " $4; if (!($1 in seen)) { seen[$1] = 1; order[++n] = $1 }; next }
    { b[$1] = $2 " " $3 " " $4; if (!($1 in seen)) { seen[$1] = 1; order[++n] = $1 } }
    function cols(s, f) { if (s == "") return "       -        -        -"; split(s, f, " "); return sprintf("%8d %8d %8d", f[1], f[2], f[3]) }
    END {
        printf "%-32s %-26s   %s\n", "", substr(rev, 1, 26), "working tree"
        printf "%-32s %8s %8s %8s   %8s %8s %8s\n", "package", "lines", "code", "tests", "lines", "code", "tests"
        for (i = 1; i <= n; i++)
            if (order[i] != "total") printf "%-32s %s   %s\n", order[i], cols(a[order[i]]), cols(b[order[i]]) | "sort"
        close("sort")
        printf "%-32s %s   %s\n", "total", cols(a["total"]), cols(b["total"])
    }' "$tmp/rev" "$tmp/tree"
