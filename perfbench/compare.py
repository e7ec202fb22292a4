"""Compare two result sets written by perfbench/suite.py.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

For each workload and end-to-end metric, prints each side's median and
quartiles over its untraced runs and a verdict under the bound that
BENCHMARK.json fixes for the metric:

  better      NEW wins at least 9/10 of all (BASE, NEW) run pairs and the
              medians differ by more than BASE's quartile distance
  worse       NEW's median is worse than BASE's by more than the bound
  unresolved  a side's quartile spread exceeds the bound, unless every NEW
              run beats every BASE run (better) or loses to it (worse)
  unchanged   otherwise

op_p50_s, fail_frac and proven_frac have no bound; they read "better" only
when every NEW run beats every BASE run, else "no bound".

Traced per-layer medians follow, side by side, for a look at where a
change landed; they carry no verdict.
"""

from __future__ import annotations

import argparse
import statistics
import sys

from suite import SPEC, UNBOUNDED, WORKLOADS, load, quartiles, values


def verdict(base, new, better, bound) -> str:
    sign = 1 if better == "higher" else -1
    b1, bmed, b3 = quartiles(base)
    n1, nmed, n3 = quartiles(new)
    pairs = [(sign * (n - b)) for b in base for n in new]
    if all(p > 0 for p in pairs):
        return "better"
    if bound is None:
        return "no bound"
    if all(p < 0 for p in pairs) and sign * (bmed - nmed) > bound * bmed:
        return "worse"
    if (b3 - b1) > bound * bmed or (n3 - n1) > bound * nmed:
        return "unresolved"
    if sign * (bmed - nmed) > bound * bmed:
        return "worse"
    wins = sum(p > 0 for p in pairs) / len(pairs)
    if wins >= 0.9 and sign * (nmed - bmed) > (b3 - b1):
        return "better"
    return "unchanged"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Compare two perfbench result sets.")
    ap.add_argument("base")
    ap.add_argument("new")
    args = ap.parse_args(argv)
    base, new = load(args.base), load(args.new)

    for w in WORKLOADS:
        if not values(base, w, 0, "setup_s") or not values(new, w, 0, "setup_s"):
            continue
        print(f"\n== {w}")
        print(f"  {'metric':<14} {'base median [q1, q3]':>34} {'new median [q1, q3]':>34}  verdict")
        for m in SPEC["end_to_end"] + UNBOUNDED:
            b, n = values(base, w, 0, m["name"]), values(new, w, 0, m["name"])
            if not b or not n:
                continue
            bq, nq = quartiles(b), quartiles(n)
            print(f"  {m['name']:<14} {bq[1]:>12.6g} [{bq[0]:.6g}, {bq[2]:.6g}]"
                  f"{'':>2} {nq[1]:>12.6g} [{nq[0]:.6g}, {nq[2]:.6g}] {m['unit']:<5} "
                  f"{verdict(b, n, m['better'], m.get('bound'))}")
        for label, recs in (("base", base), ("new", new)):
            runs = [r["result"] for r in recs if r["workload"] == w and r["trace"] == 0]
            print(f"  {label}: {sum(r['failed'] for r in runs)} of "
                  f"{sum(r['attempted'] for r in runs)} operations failed")
        rows = []
        for m in SPEC["per_layer"]:
            b, n = values(base, w, 1, m["name"]), values(new, w, 1, m["name"])
            if b and n and (any(b) or any(n)):
                rows.append(f"    {m['name']:<40} {statistics.median(b):>12.6g} "
                            f"{statistics.median(n):>12.6g} {m['unit']}")
        if rows:
            print("  traced per-layer medians (base, new):")
            print("\n".join(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
