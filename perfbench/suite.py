"""Run every workload and print each metric by name, with its unit.

    python3 perfbench/suite.py [--seeds 1 2 3] [--out FILE]

Each workload of BENCHMARK.json runs once per seed untraced, then once
traced (first seed), each run for BENCHMARK.json's run_seconds.
Every run is a separate `perfbench/run.py` process, started after the
previous one has exited.  Records go to a JSON-lines result set (default
.perfbench/results/<time>.jsonl), which perfbench/compare.py reads.  The
summary gives medians and quartiles over seeds, the failure and proof
fractions, the tail latency, the traced layer shares and the tracing
overhead (traced minus untraced op_p50_s).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# End-to-end figures every run prints but BENCHMARK.json does not bound:
# op_p50_s of a mix of 5 ms to 6 s operations swings with the operation at
# the middle, and fail_frac and proven_frac read 0 or a fixed value here.
UNBOUNDED = [{"name": "op_p50_s", "unit": "s", "better": "lower"},
             {"name": "fail_frac", "unit": "ratio", "better": "lower"},
             {"name": "proven_frac", "unit": "ratio", "better": "higher"}]


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def run_one(workload, seed, seconds, trace):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    info = next(json.loads(ln[len("# info "):]) for ln in lines if ln.startswith("# info "))
    return {"workload": workload, "seed": seed, "trace": trace,
            "result": json.loads(lines[-1]), "info": info}


def load(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def values(records, workload, trace, name):
    """One value per run: a metric of the JSON result, else an info field."""
    out = []
    for r in records:
        if r["workload"] == workload and r["trace"] == trace:
            m = r["result"]["metrics"].get(name)
            val = m["value"] if m is not None else r["info"].get(name)
            if val is not None:
                out.append(val)
    return out


def summarize(records) -> None:
    for w in WORKLOADS:
        runs = [r for r in records if r["workload"] == w]
        if not runs:
            continue
        attempted = sum(r["result"]["attempted"] for r in runs if r["trace"] == 0)
        wrong = sum(not r["result"]["correct"] for r in runs)
        print(f"\n== {w}: {sum(r['trace'] == 0 for r in runs)} untraced runs, "
              f"{attempted} operations, {wrong} runs not correct")
        for m in SPEC["end_to_end"] + UNBOUNDED:
            vals = values(records, w, 0, m["name"])
            if vals:
                q1, med, q3 = quartiles(vals)
                spread = (q3 - q1) / med if med else 0.0
                print(f"  {m['name']:<14} {med:>12.6g} {m['unit']:<6} (q1 {q1:.6g}, q3 {q3:.6g}, "
                      f"spread {spread:.3f}, bound {m.get('bound', 'none')})")
        tails = values(records, w, 0, "op_tail")
        if tails:
            t = sorted(tails, key=lambda t: t["seconds"])[len(tails) // 2]
            print(f"  {'op_tail_s':<14} {t['seconds']:>12.6g} s      (p{t['percentile']}, "
                  f"{t['beyond']} of {t['samples']} samples beyond, median run)")
        else:
            print(f"  {'op_tail_s':<14} {'n/a':>12}        (fewer than 20 operations per run)")
        traced = [r for r in runs if r["trace"] == 1]
        untraced_p50 = values(records, w, 0, "op_p50_s")
        if traced and untraced_p50:
            p50 = statistics.median(values(records, w, 1, "op_p50_s"))
            base = statistics.median(untraced_p50)
            print(f"  tracing overhead on op_p50_s: {p50 - base:+.6g} s "
                  f"({(p50 - base) / base:+.1%})")
        for r in traced:
            per_op = r["info"]["layer_self_s_per_op"]
            total = sum(per_op.values())
            shares = ", ".join(f"{layer} {s / total:.1%}" for layer, s in
                               sorted(per_op.items(), key=lambda kv: -kv[1]) if s / total >= 0.001)
            print(f"  layer self-time shares (seed {r['seed']}): {shares}")
            print("  per-layer: " + ", ".join(
                f"{name}={m['value']:.4g}" for name, m in r["result"]["metrics"].items()
                if m["value"]))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Run every gencov benchmark workload.")
    ap.add_argument("--seeds", type=int, nargs="+", default=[1])
    ap.add_argument("--out", type=Path, default=None)
    args = ap.parse_args(argv)

    out = args.out or ROOT / ".perfbench" / "results" / time.strftime("%Y%m%d-%H%M%S.jsonl")
    out.parent.mkdir(parents=True, exist_ok=True)
    records = []
    with open(out, "a", encoding="utf-8") as fh:
        for w in WORKLOADS:
            for seed, trace in [(seed, 0) for seed in args.seeds] + [(args.seeds[0], 1)]:
                rec = run_one(w, seed, SPEC["run_seconds"], trace)
                fh.write(json.dumps(rec) + "\n")
                fh.flush()
                records.append(rec)
                print(f"{w} seed={seed} trace={trace} correct={rec['result']['correct']}",
                      file=sys.stderr)
    summarize(records)
    print(f"\nresult set: {out}")
    return 0 if all(r["result"]["correct"] for r in records) else 1


if __name__ == "__main__":
    sys.exit(main())
