#!/bin/sh
# Runs the repository benchmark (benchmark/, declared in BENCHMARK.json) as
# alternating parent/change pairs and writes the per-PR trajectory file
# BENCH_<pr>.json: the procedure a PR that touches measured code owes the
# record, whether or not it claims a gain.
#
# Both sides are built once — the parent from a `git archive` of
# <parent-ref> unpacked in a temporary directory (nothing is fetched, the
# working tree and .git are untouched), the change from the working tree —
# and every run is its own process, started from its side's root. The
# parent runs first on odd seeds, the change on even ones. A run takes
# about 16 s, so the default 10 pairs of 4 workloads take about 25 minutes;
# leave the machine alone meanwhile. Needs python3 for the summary.
#
# Usage: scripts/bench-pairs.sh <parent-ref> <pr> [pairs=10]
#        FIRST_SEED=11 scripts/bench-pairs.sh ...   (extend an earlier set)
# Raw per-run output stays in the temporary directory the script names.
set -eu
cd "$(dirname "$0")/.."
if [ $# -lt 2 ]; then
    echo "usage: $0 <parent-ref> <pr> [pairs=10]" >&2
    exit 2
fi
parent="$(git rev-parse --verify "$1^{commit}")"
pr="$2"
pairs="${3:-10}"
first="${FIRST_SEED:-1}"
root="$(pwd)"
work="$(mktemp -d "${TMPDIR:-/tmp}/bench-pairs.XXXXXX")"
mkdir "$work/parent" "$work/runs"
echo "bench-pairs: parent $parent, $pairs pairs from seed $first, raw runs in $work" >&2

export GOTOOLCHAIN=local
git archive "$parent" | tar -x -C "$work/parent"
(cd "$work/parent/benchmark" && go build -o "$work/fleetbench.parent" .)
(cd benchmark && go build -o "$work/fleetbench.change" .)

# run <side> <side's root> <workload> <seed>: one process, result line and
# report kept apart. A failed run is recorded by its empty result file.
run() {
    (cd "$2" && "$work/fleetbench.$1" --workload "$3" --seed "$4" --seconds 12 --trace 0 \
        --out "$work/out.$1" >"$work/runs/$3.$4.$1.json" 2>"$work/runs/$3.$4.$1.err") ||
        echo "bench-pairs: $3 seed $4 $1: run failed, see $work/runs/$3.$4.$1.err" >&2
}

for w in hit-serve miss-churn push-fleet pull-refresh; do
    seed="$first"
    while [ "$seed" -lt $((first + pairs)) ]; do
        if [ $((seed % 2)) -eq 1 ]; then
            run parent "$work/parent" "$w" "$seed"
            run change "$root" "$w" "$seed"
        else
            run change "$root" "$w" "$seed"
            run parent "$work/parent" "$w" "$seed"
        fi
        seed=$((seed + 1))
    done
    echo "bench-pairs: $w done" >&2
done
rm -rf "$work/parent" "$work/out.parent" "$work/out.change"

python3 - "$work/runs" "$pr" "$parent" <<'EOF' >"$work/summary.json"
import glob, json, os, re, statistics, sys

runs_dir, pr, parent = sys.argv[1:4]
bench = json.load(open("BENCHMARK.json"))
SIDES = ("parent", "change")


def load(workload, seed, side):
    """One run: (attempted, failed, end-to-end values, report values) or None."""
    stem = os.path.join(runs_dir, "%s.%d.%s" % (workload, seed, side))
    try:
        line = json.loads(open(stem + ".json").read())
    except ValueError:
        return None
    e2e = {k: v["value"] for k, v in line["metrics"].items()}
    layer = {}
    for text in open(stem + ".err"):
        m = re.match(r"  (\S+)\s+(-?[\d.]+) \S+$", text)
        if m:  # the metric table
            layer[m.group(1)] = float(m.group(2))
            continue
        m = re.match(re.escape(workload) + r" (\w+): (.*)$", text)
        if m:  # per-node counters: "<label words> k=v k=v; <label words> k=v"
            for part in m.group(2).split("; "):
                words = part.split()
                label = "_".join(x for x in words if "=" not in x)
                for kv in words:
                    if "=" in kv:
                        k, v = kv.split("=")
                        layer["%s.%s.%s" % (m.group(1), label, k)] = float(v)
    return line["attempted"], line["failed"], e2e, layer


def quartiles(xs):
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"median": round(med, 6), "q1": round(q1, 6), "q3": round(q3, 6), "runs": xs}


out = {
    "pr": int(pr) if pr.isdigit() else pr,
    "parent": parent,
    "command": "fleetbench --workload <w> --seed <s> --seconds 12 --trace 0, one process per run, "
               "binaries built once per side, alternating which side runs first (parent first on odd seeds); "
               "scripts/bench-pairs.sh",
    "claim": None,
    "workloads": {},
    "notes": "",
    "microbenchmark_gate": None,
}
for w in [x["name"] for x in bench["workloads"]]:
    seeds = sorted({int(os.path.basename(p).split(".")[1]) for p in glob.glob(os.path.join(runs_dir, w + ".*.json"))})
    both = {s: [load(w, s, side) for side in SIDES] for s in seeds}
    good = [s for s in seeds if all(both[s])]
    rec = {
        "seeds": good,
        "pairs": len(good),
        "failed_runs": sum(r is None for s in seeds for r in both[s]),
        "attempted_failed": {side: [sum(both[s][i][0] for s in good), sum(both[s][i][1] for s in good)]
                             for i, side in enumerate(SIDES)},
        "end_to_end": {},
        "per_layer_medians": {},
    }
    if len(good) < 2:
        out["workloads"][w] = rec
        continue
    for m in bench["end_to_end"]:
        name, lower = m["name"], m["better"] == "lower"
        p = [both[s][0][2][name] for s in good]
        c = [both[s][1][2][name] for s in good]
        better = (lambda a, b: a < b) if lower else (lambda a, b: a > b)
        pq, cq = quartiles(p), quartiles(c)
        spread = pq["q3"] - pq["q1"]
        worse_by = 0.0
        if pq["median"]:
            worse_by = (cq["median"] - pq["median"]) / pq["median"] * (1 if lower else -1)
        iqr_share = spread / pq["median"] if pq["median"] else 0.0
        # The parent's own quartile spread first, then the benchmark's bound;
        # a spread wider than the bound resolves nothing unless the two sides
        # do not overlap at all.
        if iqr_share > m["bound"]:
            every = all(better(x, y) for x in c for y in p)
            verdict = "better in every run" if every else "unresolved: parent spread exceeds bound"
        elif abs(cq["median"] - pq["median"]) <= spread:
            verdict = "inside parent quartile spread"
        elif worse_by > m["bound"]:
            verdict = "worse than bound"
        elif worse_by > 0:
            verdict = "inside bound"
        else:
            verdict = "better beyond parent quartile spread"
        rec["end_to_end"][name] = {
            "unit": m["unit"], "better": m["better"], "bound": m["bound"],
            "parent": pq, "change": cq,
            "change_wins": sum(better(y, x) for x, y in zip(p, c)),
            "change_losses": sum(better(x, y) for x, y in zip(p, c)),
            "median_worse_by": round(worse_by, 4),
            "parent_iqr_over_median": round(iqr_share, 4),
            "verdict": verdict,
        }
    for name in sorted(set.intersection(*(set(r[3]) for s in good for r in both[s]))):
        if name not in rec["end_to_end"]:
            rec["per_layer_medians"][name] = {
                side: round(statistics.median(both[s][i][3][name] for s in good), 4)
                for i, side in enumerate(SIDES)}
    out["workloads"][w] = rec


def render(x, depth=0):
    """json.dumps(x, indent=1), except that a container of numbers alone stays on one line."""
    inner = list(x.values() if isinstance(x, dict) else x) if isinstance(x, (dict, list)) else []
    if not inner or all(isinstance(v, (int, float)) for v in inner):
        return json.dumps(x)
    pad = " " * (depth + 1)
    if isinstance(x, dict):
        brackets = "{}"
        rows = [pad + json.dumps(k) + ": " + render(v, depth + 1) for k, v in x.items()]
    else:
        brackets = "[]"
        rows = [pad + render(v, depth + 1) for v in x]
    return brackets[0] + "\n" + ",\n".join(rows) + "\n" + " " * depth + brackets[1]


print(render(out))
EOF
mv "$work/summary.json" "BENCH_$pr.json"
echo "bench-pairs: wrote BENCH_$pr.json" >&2
