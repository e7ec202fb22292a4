"""Span recorder for the traced run, installed from outside gencov.

install() rebinds every public function of the layer modules, wherever a
gencov module holds a reference to it, to a wrapper that records a span:
operation id, span id, parent span id, name, start, end, whether it
raised, and a small value taken from the result (tuples checked, nodes,
blocks parsed).  Design.__post_init__ is wrapped as "core.Design".
Spans stay in memory until the run ends.  No gencov source file changes.
"""

from __future__ import annotations

import inspect
import itertools
import sys
import threading
from collections import defaultdict
from functools import wraps
from pathlib import Path
from time import perf_counter

LAYER_MODULES = ("cli", "io", "core", "verify", "_kernels", "search", "bounds",
                 "construct", "product")

# Values recorded from a result at the span boundary.
RESULT_VALUES = {
    "cli.main": lambda rc: int(rc == 2),  # 2: usage or data error
    "io.parse_design": lambda d: len(d.blocks),
    "verify.verify": lambda r: r.checked_tuples,
    "search.exact_min": lambda r: (r.nodes, r.status == "proven"),
}

OP = "op"


def layer_of(name: str) -> str:
    mod = name.split(".", 1)[0]
    return "verify" if mod == "_kernels" else mod


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.op = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: list[tuple] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, *args, **kwargs):
        """Run fn as one span; raises what fn raises."""
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(sid)
        value = None
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            t1 = perf_counter()
            stack.pop()
            self.spans.append((self.op, sid, parent, name, t0, t1, True, None))
            raise
        t1 = perf_counter()
        stack.pop()
        pick = RESULT_VALUES.get(name)
        if pick is not None:
            value = pick(result)
        self.spans.append((self.op, sid, parent, name, t0, t1, False, value))
        return result

    def _wrap(self, name, fn):
        @wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced

    def install(self) -> None:
        wrapped = {}
        for mod_name in LAYER_MODULES:
            mod = sys.modules.get(f"gencov.{mod_name}")
            if mod is None:  # a layer module this version of gencov does not have
                continue
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrapped[obj] = self._wrap(f"{mod_name}.{attr}", obj)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "gencov" and not mod_name.startswith("gencov."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, wrapped[obj])
        design = sys.modules["gencov.core"].Design
        self._patched.append((design, "__post_init__", design.__post_init__))
        design.__post_init__ = self._wrap("core.Design", design.__post_init__)

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self._patched):
            setattr(owner, attr, obj)
        self._patched.clear()

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("op\tspan\tparent\tname\tstart_s\tend_s\traised\tvalue\n")
            for op, sid, parent, name, t0, t1, raised, value in self.spans:
                fh.write(f"{op}\t{sid}\t{parent}\t{name}\t{t0!r}\t{t1!r}\t"
                         f"{int(raised)}\t{'' if value is None else value}\n")


class Profile:
    """Per-name totals over the spans of a set of operations."""

    def __init__(self, spans, ops):
        ops = set(ops)
        spans = [s for s in spans if s[0] in ops]
        by_id = {s[1]: s for s in spans}
        child_time = defaultdict(float)
        for s in spans:
            child_time[s[2]] += s[5] - s[4]
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)   # outermost span of each name only
        self.raised = defaultdict(int)
        self.values = defaultdict(list)
        self.op_s = []
        self.under = defaultdict(int)      # (ancestor name, name) -> calls
        for s in spans:
            _, sid, parent, name, t0, t1, raised, value = s
            dur = t1 - t0
            if name == OP:
                self.op_s.append(dur)
            self.calls[name] += 1
            self.self_s[name] += dur - child_time[sid]
            self.raised[name] += raised
            if value is not None:
                self.values[name].append(value)
            outer = True
            up = parent
            while up in by_id:
                anc = by_id[up][3]
                outer = outer and anc != name
                self.under[(anc, name)] += 1
                up = by_id[up][2]
            if outer:
                self.incl_s[name] += dur

    @property
    def total_s(self) -> float:
        return sum(self.op_s)

    def share(self, name: str) -> float:
        return self.incl_s[name] / self.total_s

    def self_share(self, *names: str) -> float:
        return sum(self.self_s[n] for n in names) / self.total_s

    def layer_self_s(self) -> dict[str, float]:
        out = defaultdict(float)
        for name, val in self.self_s.items():
            out["harness" if name == OP else layer_of(name)] += val
        return dict(out)

    def errors(self, layer: str) -> int:
        n = sum(c for name, c in self.raised.items() if name != OP and layer_of(name) == layer)
        if layer == "cli":
            n += sum(self.values["cli.main"])
        return n


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(profile: Profile, rounds: int, jobs2: dict) -> dict[str, float]:
    """The per_layer metrics of BENCHMARK.json from one traced run.

    Times are shares of traced operation time, so a layer a workload never
    calls reads 0 as a ratio; counts are per round of the workload's
    operation list and repeat exactly between runs.
    """
    p = profile
    n_ops = len(p.op_s)
    verify_s = p.incl_s["verify.verify"]
    exact = p.values["search.exact_min"]
    nodes = sum(n for n, _ in exact)
    prunes = p.calls["construct.prune_redundant"]
    return {
        "cli.self_share": p.self_share("cli.main"),
        "io.parse_share": p.self_share("io.parse_design", "io.parse_document"),
        "io.emit_share": p.self_share("io.emit_design"),
        "io.parse_blocks_per_s": _ratio(sum(p.values["io.parse_design"]),
                                        p.incl_s["io.parse_design"]),
        "core.design_init_s": p.incl_s["core.Design"] / n_ops,
        "core.self_share": p.layer_self_s().get("core", 0.0) / p.total_s,
        "verify.calls": p.calls["verify.verify"] / rounds,
        "verify.share": p.share("verify.verify"),
        "verify.kernel_share": _ratio(p.incl_s["_kernels.coverage_counts"], verify_s),
        "verify.tuples_per_s": _ratio(sum(p.values["verify.verify"]), verify_s),
        "verify.calls_per_s": _ratio(p.calls["verify.verify"], verify_s),
        "verify.tuples_per_s_jobs2": jobs2.get("verify.tuples_per_s_jobs2", 0.0),
        "search.greedy_cover.share": p.share("search.greedy_cover"),
        "search.greedy_cover.self_share": p.self_share("search.greedy_cover"),
        "search.exact_min.self_share": p.self_share("search.exact_min"),
        "search.nodes": nodes / rounds,
        "search.nodes_per_s": _ratio(nodes, p.incl_s["search.exact_min"]),
        "search.proven": sum(1 for _, proven in exact if proven) / rounds,
        "search.jobs2_speedup": jobs2.get("search.jobs2_speedup", 0.0),
        "construct.prune_redundant.share": p.share("construct.prune_redundant"),
        "construct.prune_redundant.self_share": p.self_share("construct.prune_redundant"),
        "construct.prune_verify_calls": _ratio(
            p.under[("construct.prune_redundant", "verify.verify")], prunes),
        "construct.construct_minimax.self_share": p.self_share("construct.construct_minimax"),
        "bounds.bound_report.self_share": p.self_share("bounds.bound_report"),
        "bounds.lower_best.self_share": p.self_share("bounds.lower_best"),
        "product.self_share": p.layer_self_s().get("product", 0.0) / p.total_s,
        **{f"{layer}.errors": float(p.errors(layer))
           for layer in ("cli", "io", "core", "verify", "search", "bounds",
                         "construct", "product")},
    }
