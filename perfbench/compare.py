#!/usr/bin/env python3
"""Compare benchmark results of a parent commit and a change.

    python3 perfbench/compare.py --parent p1.jsonl [p2.jsonl ...] --change c1.jsonl [...]

Each file holds the JSON lines perfbench/run.py --out appends.  A
parent record and a change record pair up when they have the same
workload and seed (run the parent and the change alternately, at least
ten seeds, so that a pair shares the machine's state).  For every
workload and end-to-end metric of BENCHMARK.json it prints each side's
median and quartiles, the pairs the change won, and a verdict:

  improved    the change won at least 9 in 10 pairs and its median beats
              the parent's by more than the parent's own quartile spread;
  worse       the change's median is worse than the parent's by more
              than the metric's bound;
  unresolved  either side's quartile spread, as a share of its median,
              exceeds the bound (unless every change run beats every
              parent run);
  no worse    otherwise.

A change that fails more operations than the parent counts as worse.
Results taken with a different number of CPUs are refused, and so are
sides whose workloads do not have the same seeds.  The exit status is 1
if any pairing is worse.
"""

import argparse
import json
import os
import statistics
import sys

BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json")


def load(paths):
    """Untraced records, keyed by (workload, seed)."""
    records = {}
    for path in paths:
        with open(path) as f:
            for line in f:
                if not line.strip():
                    continue
                r = json.loads(line)
                if r.get("trace", 0) != 0:
                    continue
                key = (r["workload"], r["seed"])
                if key in records:
                    sys.exit(f"compare: {path}: a second {key[0]} run with seed {key[1]}")
                records[key] = r
    return records


def invalid(r):
    """Why a run measured its own stall rather than the program, or None."""
    late = r.get("gen.late_p99_ms", 0.0)
    if late > 5.0:
        return f"generator p99 lateness {late:.1f} ms > 5 ms"
    return None


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(pairs, better, bound):
    sign = 1.0 if better == "higher" else -1.0
    parent = [p for p, _ in pairs]
    change = [c for _, c in pairs]
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    gain = sign * (cm - pm)
    if wins >= 0.9 * len(pairs) and gain > (p3 - p1):
        v = "improved"
    elif all_better:
        v = "no worse"
    elif (p3 - p1) / abs(pm) > bound or (c3 - c1) / abs(cm) > bound:
        v = "unresolved"
    elif -gain / abs(pm) > bound:
        v = "worse"
    else:
        v = "no worse"
    return (p1, pm, p3), (c1, cm, c3), wins, v


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", nargs="+", required=True)
    ap.add_argument("--change", nargs="+", required=True)
    args = ap.parse_args()
    with open(BENCHMARK) as f:
        bench = json.load(f)
    parent, change = load(args.parent), load(args.change)
    nprocs = {r.get("nproc") for r in list(parent.values()) + list(change.values())}
    if len(nprocs) != 1:
        sys.exit(f"compare: results come from machines with different nproc: {sorted(map(str, nprocs))}")
    regressed = False
    print(f"{'workload':<20} {'metric':<18} {'parent q1/median/q3':>32} {'change q1/median/q3':>32} "
          f"{'won':>7}  verdict")
    for w in bench["workloads"]:
        name = w["name"]
        pseeds = sorted(s for wl, s in parent if wl == name)
        cseeds = sorted(s for wl, s in change if wl == name)
        if not pseeds or not cseeds:
            print(f"{name:<20} (no results on {'the parent' if not pseeds else 'the change'})")
            continue
        if pseeds != cseeds:
            sys.exit(f"compare: {name}: the parent ran seeds {pseeds}, the change {cseeds}")
        pairs = []
        for s in pseeds:
            p, c = parent[(name, s)], change[(name, s)]
            why = invalid(p) or invalid(c)
            if why:
                print(f"compare: dropping the {name} pair with seed {s}: {why}")
            else:
                pairs.append((p, c))
        if not pairs:
            print(f"{name:<20} (no valid pair)")
            continue
        pf = sum(p["failed"] for p, _ in pairs)
        cf = sum(c["failed"] for _, c in pairs)
        if cf > pf:
            regressed = True
            print(f"{name:<20} {'failed ops':<18} {pf:>32} {cf:>32} {'':>7}  worse")
        for m in bench["end_to_end"]:
            values = [(p["metrics"][m["name"]]["value"], c["metrics"][m["name"]]["value"]) for p, c in pairs]
            (p1, pm, p3), (c1, cm, c3), wins, v = verdict(values, m["better"], m["bound"])
            regressed = regressed or v == "worse"
            print(f"{name:<20} {m['name']:<18} {p1:>10.4g} {pm:>10.4g} {p3:>10.4g} "
                  f"{c1:>10.4g} {cm:>10.4g} {c3:>10.4g} {wins:>3}/{len(pairs):<3}  {v}")
    sys.exit(1 if regressed else 0)


if __name__ == "__main__":
    main()
