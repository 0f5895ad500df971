#!/usr/bin/env python3
"""Compare two result sets of modb_ledger.

    compare.py <a.jsonl> <b.jsonl>     a = parent, b = change

A result set is the JSON-lines file `modb_ledger --out <file>` appends to:
one record per run. Bounds, units and directions come from BENCHMARK.json
(looked for in the current directory, then beside this script's parent).

Runs are paired by (workload, seed): the same seed gives the same inputs,
so the difference within a pair is what the code (and the machine) changed,
not what the inputs did. For every workload and every end-to-end metric the
comparison prints both medians, the median of the paired relative changes
with its base, the bound, and a verdict:

    ok          the median paired change is no worse than the bound
    regressed   it is worse by more than the bound
    unresolved  the paired changes spread (distance between their quartiles)
                wider than the bound, so their median says nothing

The rates and latencies an untraced run records beside its result have no
bound in BENCHMARK.json (they do not repeat well enough on a shared
sandbox); they are listed the same way, without a verdict.

Exit status 1 when any pairing regressed, 2 on bad input.
"""

import json
import statistics
import sys
from pathlib import Path

SCHEMA = 2


def load_benchmark():
    for path in (Path("BENCHMARK.json"), Path(__file__).resolve().parent.parent / "BENCHMARK.json"):
        if path.exists():
            return json.loads(path.read_text())
    sys.exit("compare.py: BENCHMARK.json not found")


def load_runs(path):
    """(workload, seed) -> metric -> value, correct untraced records only."""
    runs = {}
    for line in Path(path).read_text().splitlines():
        record = json.loads(line)
        if record["schema"] != SCHEMA:
            sys.exit(f"compare.py: {path}: schema {record['schema']}, this script reads {SCHEMA}")
        if record["trace"] or not record["result"]["correct"]:
            continue
        metrics = {**record["result"]["metrics"], **record["timings"]}
        runs[record["workload"], record["seed"]] = {k: m["value"] for k, m in metrics.items()}
    return runs


def quartile_distance(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def compare(path_a, path_b, benchmark):
    a, b = load_runs(path_a), load_runs(path_b)
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    listed = benchmark["end_to_end"] + benchmark["per_layer"]
    regressed = False
    print(
        f"{'workload':<16} {'metric':<24} {'pairs':>5} {'parent':>14} {'change':>14} "
        f"{'relative':>9} {'bound':>6}  verdict"
    )
    for workload in [w["name"] for w in benchmark["workloads"]]:
        seeds = sorted(s for (w, s) in a if w == workload and (w, s) in b)
        for metric in listed:
            name = metric["name"]
            pairs = [
                (a[workload, s][name], b[workload, s][name])
                for s in seeds
                if name in a[workload, s] and name in b[workload, s]
            ]
            if not pairs:
                continue
            ma = statistics.median(x for x, _ in pairs)
            mb = statistics.median(y for _, y in pairs)
            # A metric that is 0 on the parent (a failed share) moves
            # absolutely, not relatively.
            changes = [(y - x) / x if x else y - x for x, y in pairs]
            relative = statistics.median(changes)
            worse = relative if metric["better"] == "lower" else -relative
            bound = bounds.get(name)
            if bound is None:
                verdict, shown = "-", "     -"
            else:
                shown = f"{bound:>6.0%}"
                if quartile_distance(changes) > bound:
                    verdict = "unresolved"
                elif worse > bound:
                    verdict, regressed = "regressed", True
                else:
                    verdict = "ok"
            print(
                f"{workload:<16} {name:<24} {len(pairs):>5} {ma:>14.4f} {mb:>14.4f} "
                f"{relative:>+9.2%} {shown}  {verdict} (base {ma:.4g} {metric['unit']})"
            )
    return regressed


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    sys.exit(1 if compare(argv[1], argv[2], load_benchmark()) else 0)


if __name__ == "__main__":
    main(sys.argv)
