"""Run one gencov benchmark workload and print its result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; gencov is imported from ./src and the
checks use ./tests/naive_oracle.py.  One client drives the workload
closed-loop: each operation is one in-process call into gencov, started
when the previous one returns.  Whole rounds of the workload's operation
list run until S seconds have passed, and at least three rounds.  Every
timing is scaled by the host's speed at the time (speed.py).  Outputs are
checked after the timed region.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics of a traced run with --trace 1.  Exits 2
without a result when ./src/gencov or ./tests/naive_oracle.py is missing.
"""

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from speed import reference, scaled
from tracing import OP, Profile, Tracer, layer_metrics
from workloads import WORKLOADS, Context

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = 3
MIN_ROUNDS = 3  # ops_per_s takes each operation's median, which needs three times


@dataclass
class Record:
    key: str
    seconds: float
    ref_s: float  # reference() time around the operation, mean of before and after
    result: object
    error: str | None
    op: int = 0   # span operation id in a traced run
    failed: bool = False

    @property
    def scaled_s(self) -> float:
        return scaled(self.seconds, self.ref_s)


def import_seconds() -> tuple[float, float]:
    """(seconds, scaled seconds) of `import gencov, gencov.cli` in a fresh
    interpreter, which is what a user of the library pays once."""
    out = subprocess.run([sys.executable, str(Path(__file__).with_name("speed.py")),
                          str(ROOT / "src")], cwd=ROOT, capture_output=True, text=True,
                         check=True, timeout=120).stdout.split()
    took, before, after = map(float, out)
    return took, scaled(took, (before + after) / 2)


def tail(durations):
    """(percentile, value, samples beyond it) for the highest whole
    percentile with at least ten samples beyond it, or None."""
    d = sorted(durations)
    n = len(d)
    for p in range(99, 49, -1):
        rank = math.ceil(p * n / 100)
        if n - rank >= 10:
            return p, d[rank - 1], n - rank
    return None


def timed_loop(ops, seconds, tracer):
    """Whole rounds of ops, each between two reference() samples, until
    seconds have passed and at least MIN_ROUNDS rounds have run."""
    records = []
    rounds = 0
    start = time.perf_counter()
    before = reference()
    while True:
        for op in ops:
            if tracer is not None:
                tracer.op += 1
            t0 = time.perf_counter()
            try:
                result = tracer.call(OP, op.fn) if tracer is not None else op.fn()
                error = None
            except Exception as e:  # an operation failure is a result, not a crash
                result, error = None, f"{type(e).__name__}: {e}"
            took = time.perf_counter() - t0
            after = reference()
            records.append(Record(op.key, took, (before + after) / 2, result, error,
                                  tracer.op if tracer is not None else 0))
            before = after
        rounds += 1
        if rounds >= MIN_ROUNDS and time.perf_counter() - start >= seconds:
            return records, rounds, time.perf_counter() - start


def ops_per_s(records) -> float:
    """Correct operations per second of one round in which each operation
    takes the median of its scaled times.  A host slowdown that the samples
    beside a long operation miss moves that median less than the sum."""
    times = {}
    for r in records:
        times.setdefault(r.key, []).append(r.scaled_s)
    good = sum(not r.failed for r in records) / len(records)
    return good * len(times) / sum(statistics.median(t) for t in times.values())


def first_results(records) -> dict:
    """The first output of each operation that returned one."""
    firsts = {}
    for r in records:
        if r.error is None:
            firsts.setdefault(r.key, r.result)
    return firsts


def judge(wl, records, firsts) -> list[str]:
    """Check each distinct output once and mark failed records: an error,
    an output its check rejects, or one that differs from the first."""
    verdicts = {}
    for key, result in firsts.items():
        try:
            verdicts[key] = wl.check(key, result, firsts)
        except Exception as e:  # a check that crashes counts the output as wrong
            verdicts[key] = f"check raised {type(e).__name__}: {e}"
    for r in records:
        r.failed = (r.error is not None or verdicts.get(r.key) is not None
                    or r.result != firsts[r.key])
    problems = [f"{key}: {why}" for key, why in verdicts.items() if why is not None]
    problems += [f"{r.key}: {r.error}" for r in records if r.error is not None][:5]
    return problems


def environment(gencov):
    try:
        import numba
        numba_version = numba.__version__
    except ImportError:
        numba_version = None
    import numpy

    kernels = sys.modules.get("gencov._kernels")
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "numba": numba_version, "nproc": os.cpu_count(),
            "backend": kernels.active_backend() if kernels is not None else None,
            "gencov": gencov.__version__}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Run one gencov benchmark workload.")
    ap.add_argument("--workload", required=True, choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    # The measured program must not pick up a worker count or a kernel
    # backend from the caller's environment.
    for var in ("GENCOV_JOBS", "GENCOV_BACKEND"):
        os.environ.pop(var, None)
    if not (ROOT / "src" / "gencov" / "__init__.py").is_file():
        print(f"perfbench: no gencov sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not (ROOT / "tests" / "naive_oracle.py").is_file():
        print(f"perfbench: no reference checker at {ROOT / 'tests'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import gencov
    import gencov.cli  # noqa: F401  (the CLI module is not imported by the package)

    work = ROOT / ".perfbench" / "work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        return measure(args, gencov, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, gencov, work) -> int:
    wl = WORKLOADS[args.workload](Context(args.seed, work, ROOT, gencov))
    setup_problems = []
    before = reference()
    raw_reps, reps = [], []
    for _ in range(1 if args.trace else SETUP_REPS):
        t0 = time.perf_counter()
        ops = wl.prepare()
        try:
            ops[wl.warmup].fn()
        except Exception:
            setup_problems.append("warm-up raised:\n" + traceback.format_exc())
        raw_reps.append(time.perf_counter() - t0)
        after = reference()
        reps.append(scaled(raw_reps[-1], (before + after) / 2))
        before = after
    imports = [import_seconds() for _ in range(SETUP_REPS)]
    raw_setup_s = statistics.median(i for i, _ in imports) + statistics.median(raw_reps)
    setup_s = statistics.median(i for _, i in imports) + statistics.median(reps)

    tracer = Tracer() if args.trace else None
    jobs2 = {}
    if tracer is not None:
        tracer.install()
    try:
        records, rounds, wall = timed_loop(ops, args.seconds, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        firsts = first_results(records)
        if tracer is not None:
            main_ops = [r.op for r in records]

            def run_op(op):
                tracer.op += 1
                jobs2_ops.append(tracer.op)
                return tracer.call(OP, op.fn)

            jobs2_ops = []
            try:
                setup_problems += wl.jobs2(run_op, firsts)
                jobs2 = jobs2_metrics(wl, tracer, records, jobs2_ops)
            except Exception:
                setup_problems.append("jobs=2 rows raised:\n" + traceback.format_exc())
    finally:
        if tracer is not None:
            tracer.uninstall()

    problems = judge(wl, records, firsts)
    problems += setup_problems
    try:
        missed = (wl.selftest(firsts) if len(firsts) == len(ops)
                  else ["no output to plant errors in"])
    except Exception as e:
        missed = [f"self-test raised {type(e).__name__}: {e}"]
    problems += [f"self-test: {m}" for m in missed]

    attempted = len(records)
    failed = sum(r.failed for r in records)
    good = attempted - failed
    durations = [r.scaled_s for r in records]
    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "rounds": rounds, "wall_s": wall,
            "environment": environment(gencov), "op_p50_s": statistics.median(durations),
            "fail_frac": failed / attempted, "ref_s": [r.ref_s for r in records],
            "unscaled": {"ops_per_s": good / wall, "setup_s": raw_setup_s,
                         "op_p50_s": statistics.median(r.seconds for r in records)},
            "selftest_caught": not missed, "problems": problems, **wl.summary(records),
            "op_seconds": [[r.key, r.seconds] for r in records]}
    t = tail(durations)
    info["op_tail"] = (None if t is None else
                       {"percentile": t[0], "seconds": t[1], "beyond": t[2], "samples": attempted})

    if tracer is not None:
        profile = Profile(tracer.spans, main_ops)
        values = {"trace.op_p50_s": info["op_p50_s"], **layer_metrics(profile, rounds, jobs2)}
        info["layer_self_s_per_op"] = {k: v / attempted for k, v in profile.layer_self_s().items()}
        trace_path = ROOT / ".perfbench" / "traces" / f"{args.workload}-seed{args.seed}.tsv"
        tracer.dump(trace_path)
        info["spans"] = str(trace_path.relative_to(ROOT))
    else:
        values = {"ops_per_s": ops_per_s(records), "peak_rss_mb": peak_rss_mb,
                  "setup_s": setup_s}
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace
                                                                  else "end_to_end"]
    metrics = {m["name"]: (values[m["name"]], m["unit"]) for m in declared}
    report(info, metrics)
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def jobs2_metrics(wl, tracer, records, jobs2_ops):
    """Single-thread against jobs=2 rows of the traced run."""
    out = {}
    p2 = Profile(tracer.spans, jobs2_ops)
    if p2.calls["verify.verify"]:
        out["verify.tuples_per_s_jobs2"] = (sum(p2.values["verify.verify"])
                                            / p2.incl_s["verify.verify"])
    if p2.calls["search.exact_min"]:
        key = wl.JOBS2_KEY
        p1 = Profile(tracer.spans, [r.op for r in records if r.key == key])
        jobs1_s = p1.incl_s["search.exact_min"] / p1.calls["search.exact_min"]
        out["search.jobs2_speedup"] = jobs1_s / p2.incl_s["search.exact_min"]
    return out


def report(info, metrics) -> None:
    """Human-readable lines, then one machine-readable info line."""
    env = info["environment"]
    print(f"# perfbench {info['workload']} seed={info['seed']} seconds={info['seconds']} "
          f"trace={info['trace']} rounds={info['rounds']}")
    print("# environment " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    print(f"# op_p50_s = {info['op_p50_s']:.6g} s")
    print(f"# fail_frac = {info['fail_frac']:.6g} ratio")
    if "proven_frac" in info:
        print(f"# proven_frac = {info['proven_frac']:.6g} ratio")
    t = info["op_tail"]
    if t is None:
        print("# op_tail_s = n/a: fewer than 20 operations")
    else:
        print(f"# op_tail_s = {t['seconds']:.6g} s (p{t['percentile']}, {t['beyond']} of "
              f"{t['samples']} samples beyond)")
    for problem in info["problems"]:
        print(f"# PROBLEM {problem}")
    print("# info " + json.dumps(info))


if __name__ == "__main__":
    sys.exit(main())
