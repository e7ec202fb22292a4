"""The four benchmark workloads: seeded inputs, operations and checks.

Each workload makes its inputs from the seed alone (prepare), lists one
round of operations, each a single call into a public entry point of
gencov, and judges every distinct output with checks that share no code
with the path under test (check).  selftest() hands the checks outputs
that are wrong on purpose and returns the ones they failed to reject.
"""

from __future__ import annotations

import dataclasses
import io
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from math import comb
from pathlib import Path
from typing import Callable

import oracle


@dataclass(frozen=True)
class CliResult:
    rc: int
    out: str
    err: str
    file: str | None = None  # text of the -o output file, when one is written


@dataclass(frozen=True)
class Op:
    key: str
    fn: Callable[[], object]


@dataclass
class Context:
    seed: int
    work: Path   # directory for generated inputs and outputs, inside the checkout
    root: Path   # checkout root
    gencov: object


def module(name: str):
    """A gencov submodule, looked up at call time so traced wrappers apply."""
    return sys.modules[f"gencov.{name}"]


def run_cli(argv, out_path: Path | None = None) -> CliResult:
    """gencov.cli.main(argv) in-process with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = module("cli").main(argv)
        except SystemExit as e:  # argparse rejects the arguments
            rc = e.code if isinstance(e.code, int) else 2
    text = out_path.read_text(encoding="utf-8") if out_path is not None else None
    return CliResult(rc, out.getvalue(), err.getvalue(), text)


def _csv(xs) -> str:
    return ",".join(map(str, xs))


def _fields(text: str, sep: str) -> dict[str, str]:
    out = {}
    for line in text.splitlines():
        key, found, val = line.partition(sep)
        if found:
            out[key.strip()] = val
    return out


def _clique_valid(gencov, v, k, blocks) -> bool:
    s = gencov.PartStructure(v, k)
    return gencov.check_clique_cover(s, gencov.Design(s, 2, tuple(blocks)))


def _strength2_tuples(v, k) -> int:
    return (sum(comb(vi, 2) for vi, ki in zip(v, k) if ki >= 2)
            + sum(v[i] * v[j] for i in range(len(v)) for j in range(i + 1, len(v))))


class Workload:
    name = ""
    warmup = 0   # index of the operation set-up runs once

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.gencov = ctx.gencov

    def prepare(self) -> list[Op]:
        """Make the inputs from the seed and return one round of operations."""
        raise NotImplementedError

    def check(self, key: str, result, firsts: dict) -> str | None:
        """None when result is a correct output of operation key, else why not."""
        raise NotImplementedError

    def selftest(self, firsts: dict) -> list[str]:
        raise NotImplementedError

    def jobs2(self, run_op, firsts: dict) -> list[str]:
        """Traced run only: repeat some inputs at jobs=2 through run_op."""
        return []

    def summary(self, records) -> dict:
        return {}

    def _rejects(self, what: str, key: str, result, firsts) -> list[str]:
        return [] if self.check(key, result, firsts) else [f"checker accepted {what}"]


class VerifyLarge(Workload):
    """gencov verify on the 5th Hadamard power, alternately with one block removed."""

    name = "verify-large"
    # verify reports at most this many deficient tuples.  The figure is fixed
    # here, not read from gencov, so the check does not move with the code it judges.
    DEFICIT_CAP = 1000

    def prepare(self):
        rng = random.Random(self.ctx.seed)
        blocks, self.v, self.k = oracle.hadamard_power(5)
        self.full = oracle.relabel(blocks, self.v, rng)
        self.drop = rng.randrange(len(self.full))
        self.minus = self.full[:self.drop] + self.full[self.drop + 1:]
        self.paths = {"full": self.ctx.work / "full.gcd", "minus": self.ctx.work / "minus.gcd"}
        oracle.write_design(self.paths["full"], 2, self.v, self.k, self.full)
        oracle.write_design(self.paths["minus"], 2, self.v, self.k, self.minus)
        self._facts = {}
        return [self._op(which) for which in ("full", "minus")]

    def _op(self, which, extra=()):
        argv = ["verify", str(self.paths[which]), *extra]
        return Op(f"verify {which}", lambda: run_cli(argv))

    def _fact(self, which):
        """(clique-cover verdict, pairs only the dropped block held)."""
        if which not in self._facts:
            blocks = self.full if which == "full" else self.minus
            alone = oracle.pairs_only_in(self.full, self.v, self.drop) if which == "minus" else []
            self._facts[which] = (_clique_valid(self.gencov, self.v, self.k, blocks), alone)
        return self._facts[which]

    def check(self, key, r, firsts):
        which = key.split()[1]
        clique_ok, alone = self._fact(which)
        got = _fields(r.out, ": ")
        want_rc = 0 if clique_ok else 1
        if r.rc != want_rc or got.get("valid") != ("yes" if clique_ok else "no"):
            return f"exit {r.rc}, valid={got.get('valid')}; clique check says valid={clique_ok}"
        if got.get("checked tuples") != str(_strength2_tuples(self.v, self.k)):
            return f"checked tuples {got.get('checked tuples')}"
        if clique_ok:
            return "witness reported for a valid design" if "first uncovered" in got else None
        try:
            witness = tuple(tuple(int(x) for x in part.split())
                            for part in got["first uncovered"].split("|"))
            deficient = int(got["deficient tuples"])
        except (KeyError, ValueError):
            return "no witness or deficit count"
        if any(all(set(w) <= set(b) for w, b in zip(witness, block)) for block in self.minus):
            return f"witness {witness} lies in a block"
        if witness != alone[0]:
            return f"witness {witness} is not the first uncovered tuple {alone[0]}"
        if deficient != min(len(alone), self.DEFICIT_CAP):
            return f"deficient tuples {deficient}, expected {min(len(alone), self.DEFICIT_CAP)}"
        return None

    def selftest(self, firsts):
        full, minus = firsts["verify full"], firsts["verify minus"]
        covered = " ".join(map(str, self.minus[0][0][:2]))
        return (self._rejects("exit 0 for the design missing a block", "verify minus",
                              dataclasses.replace(minus, rc=0, out=minus.out.replace(
                                  "valid: no", "valid: yes")), firsts)
                + self._rejects("a witness that a block covers", "verify minus",
                                dataclasses.replace(minus, out="\n".join(
                                    f"first uncovered: {covered} | " if ln.startswith("first")
                                    else ln for ln in minus.out.splitlines())), firsts)
                + self._rejects("exit 1 for the full design", "verify full",
                                dataclasses.replace(full, rc=1), firsts))

    def jobs2(self, run_op, firsts):
        bad = []
        for which in ("full", "minus"):
            op = self._op(which, ("--jobs", "2"))
            if run_op(op) != firsts[op.key]:
                bad.append(f"{op.key} differs at --jobs 2")
        return bad


class CoverGreedy(Workload):
    """greedy_cover(s, t) on a fixed pool; the seed permutes part order."""

    name = "cover-greedy"
    POOL = (((8, 6), (4, 3), 4), ((5, 5, 5), (2, 2, 2), 3), ((6, 6, 6), (2, 2, 2), 2),
            ((4, 4, 4, 4, 4), (1, 1, 1, 1, 1), 2), ((12,), (6,), 3),
            ((1, 3, 5, 5), (1, 1, 2, 2), 4))
    warmup = 3

    def prepare(self):
        rng = random.Random(self.ctx.seed)
        self.instances = {}
        ops = []
        for v, k, t in self.POOL:
            order = rng.sample(range(len(v)), len(v))
            v, k = tuple(v[i] for i in order), tuple(k[i] for i in order)
            key = f"greedy {_csv(v)}/{_csv(k)} t={t}"
            self.instances[key] = (v, k, t)
            s = self.gencov.PartStructure(v, k)
            ops.append(Op(key, lambda s=s, t=t: module("search").greedy_cover(s, t)))
        self.naive = oracle.load_naive_oracle(self.ctx.root)
        return ops

    def check(self, key, d, firsts):
        v, k, t = self.instances[key]
        if (d.structure.v, d.structure.k, d.t, d.lam) != (v, k, t, 1):
            return f"design is {d.structure}, t={d.t}, lambda={d.lam}"
        if not self.naive.naive_valid(v, k, t, d.blocks):
            return "naive oracle finds an uncovered tuple"
        return None

    def selftest(self, firsts):
        # The last block greedy adds covers a tuple no earlier block does.
        key = next(iter(firsts))
        d = firsts[key]
        return self._rejects("a cover missing its last block", key,
                             dataclasses.replace(d, blocks=d.blocks[:-1]), firsts)


class SearchExact(Workload):
    """gencov search --jobs 1 on instances with known optima; the seed orders them."""

    name = "search-exact"
    # (v, k, t, node budget, known optimum)
    INSTANCES = (((5, 4), (3, 2), 3, None, 12), ((10,), (4,), 2, None, 9),
                 ((11,), (5,), 2, None, 7), ((4, 4, 4), (2, 2, 2), 2, None, 6),
                 ((4, 2, 2), (2, 1, 1), 2, None, 6), ((9,), (4,), 3, 100_000, 25))
    JOBS2_KEY = "search 5,4/3,2 t=3"

    def prepare(self):
        order = random.Random(self.ctx.seed).sample(range(len(self.INSTANCES)),
                                                      len(self.INSTANCES))
        self.known = {}
        self.argv = {}
        for v, k, t, budget, best in self.INSTANCES:
            key = f"search {_csv(v)}/{_csv(k)} t={t}"
            self.known[key] = (v, k, t, budget, best)
            # A timeout this large never fires, so node counts repeat exactly.
            self.argv[key] = ["search", "--v", _csv(v), "--k", _csv(k), "--t", str(t),
                              "--timeout", "100000"]
            if budget is not None:
                self.argv[key] += ["--max-nodes", str(budget)]
        keys = list(self.known)
        self.warmup = order.index(keys.index("search 4,2,2/2,1,1 t=2"))
        self.naive = oracle.load_naive_oracle(self.ctx.root)
        return [self._op(keys[i], 1) for i in order]

    def _op(self, key, jobs):
        argv = self.argv[key] + ["--jobs", str(jobs)]
        return Op(key, lambda: run_cli(argv))

    def check(self, key, r, firsts):
        v, k, t, budget, best = self.known[key]
        got = _fields(r.err, "=")
        try:
            optimum = int(got["optimum"])
            cert = oracle.read_design(r.out)
        except (KeyError, ValueError) as e:
            return f"unreadable output: {e}"
        status = got.get("status")
        proven = r.rc == 0 and status == "proven" and optimum == best
        stopped = (budget is not None and r.rc == 3 and status == "budget-exhausted"
                   and optimum >= best)
        if not (proven or stopped):
            return f"exit {r.rc}, status={status}, optimum={optimum}; known optimum {best}"
        if (cert.v, cert.k, cert.t) != (v, k, t) or len(cert.blocks) != optimum:
            return f"certificate has {len(cert.blocks)} blocks on v={cert.v} k={cert.k}"
        if not self.naive.naive_valid(v, k, t, cert.blocks):
            return "certificate fails the naive oracle"
        return None

    def selftest(self, firsts):
        key = "search 4,2,2/2,1,1 t=2"
        r = firsts[key]
        best = self.known[key][-1]
        lines = r.out.splitlines()
        first_block = lines.index("blocks:") + 1
        lines[first_block] = lines[first_block + 1]  # a minimum cover minus one block
        wrong = r.err.replace(f"optimum={best}", f"optimum={best + 1}")
        return (self._rejects("a wrong optimum", key, dataclasses.replace(r, err=wrong), firsts)
                + self._rejects("a certificate with a duplicated block", key,
                                dataclasses.replace(r, out="\n".join(lines) + "\n"), firsts))

    def jobs2(self, run_op, firsts):
        op = self._op(self.JOBS2_KEY, 2)
        return [] if run_op(op) == firsts[op.key] else [f"{op.key} differs at --jobs 2"]

    def summary(self, records):
        done = [r.result for r in records if r.result is not None]
        return {"proven_frac": sum("status=proven" in r.err for r in done) / len(records)}


class PrunePipeline(Workload):
    """product concat-improved, then transform prune --greedy-drop on its
    output, then bounds and construct on (5,6,7)/(3,4,3)."""

    name = "prune-pipeline"
    V, K = (5, 6, 7), (3, 4, 3)

    def prepare(self):
        rng = random.Random(self.ctx.seed)
        fourth, self.v4, self.k4 = oracle.hadamard_power(4)
        w = self.ctx.work
        self.p = {n: w / f"{n}.gcd" for n in ("fourth", "base", "product", "pruned")}
        oracle.write_design(self.p["fourth"], 2, self.v4, self.k4,
                            oracle.relabel(fourth, self.v4, rng))
        oracle.write_design(self.p["base"], 2, oracle.HADAMARD_BASE_V, oracle.HADAMARD_BASE_K,
                            oracle.relabel(oracle.HADAMARD_BASE, oracle.HADAMARD_BASE_V, rng))
        p = self.p
        structure = ["--v", _csv(self.V), "--k", _csv(self.K)]
        argvs = {
            "product": (["product", "concat-improved", str(p["fourth"]), str(p["base"]),
                         "-o", str(p["product"])], p["product"]),
            "prune": (["transform", "prune", str(p["product"]), "--greedy-drop",
                       "-o", str(p["pruned"])], p["pruned"]),
            "bounds": (["bounds", *structure, "--t", "2"], None),
            "construct": (["construct", *structure], None),
        }
        self._memo = {}
        return [Op(key, lambda a=argv, o=out: run_cli(a, o))
                for key, (argv, out) in argvs.items()]

    def _design(self, r, v, k):
        """(doc, None) for a well-formed strength-2 design on (v, k), else (None, why)."""
        memo_key = (r, tuple(v), tuple(k))
        if memo_key not in self._memo:
            self._memo[memo_key] = self._judge_design(r, v, k)
        return self._memo[memo_key]

    def _judge_design(self, r, v, k):
        if r.rc != 0:
            return None, f"exit {r.rc}: {r.err.strip()}"
        try:
            doc = oracle.read_design(r.file if r.file is not None else r.out)
        except (KeyError, ValueError) as e:
            return None, f"unreadable design: {e}"
        if (doc.v, doc.k, doc.t, doc.lam) != (tuple(v), tuple(k), 2, 1):
            return None, f"design on v={doc.v} k={doc.k} t={doc.t}"
        if not _clique_valid(self.gencov, doc.v, doc.k, doc.blocks):
            return None, "clique-cover check finds an uncovered pair"
        return doc, None

    def check(self, key, r, firsts):
        if key == "bounds":
            got = _fields(r.out, "=")
            cons, why = self._design(firsts["construct"], self.V, self.K)
            if r.rc != 0 or cons is None:
                return f"exit {r.rc}; constructed design: {why}"
            try:
                lo, hi = int(got["best_lower"]), int(got["best_upper"])
            except (KeyError, ValueError):
                return "no best_lower/best_upper"
            n = len(cons.blocks)
            if not 1 <= lo <= hi <= n:
                return f"bounds {lo}..{hi} around a valid {n}-block design"
            return None
        if key == "construct":
            return self._design(r, self.V, self.K)[1]
        v = self.v4 + oracle.HADAMARD_BASE_V
        k = self.k4 + oracle.HADAMARD_BASE_K
        doc, why = self._design(r, v, k)
        if doc is None or key == "product":
            return why
        source, why = self._design(firsts["product"], v, k)
        if source is None:
            return f"prune input: {why}"
        left = list(source.blocks)
        for b in doc.blocks:
            if b not in left:
                return f"pruned block {b} is not in the input"
            left.remove(b)
        if not all(oracle.essential_blocks(doc.blocks, v)):
            return "a block that could still be dropped was kept"
        return None

    def selftest(self, firsts):
        pruned, bounds = firsts["prune"], firsts["bounds"]
        lines = pruned.file.splitlines()
        source = oracle.read_design(firsts["product"].file)
        first = oracle.read_design(pruned.file).blocks[0]
        # The first block with one part-1 label changed, so it is absent from the input.
        foreign = next(b for x in range(1, self.v4[0] + 1) if x not in first[0]
                       for b in [(tuple(sorted(first[0][1:] + (x,))),) + first[1:]]
                       if b not in source.blocks)
        foreign_line = " | ".join(" ".join(map(str, part)) for part in foreign)
        got = _fields(bounds.out, "=")
        swapped = bounds.out.replace(f"best_lower={got['best_lower']}",
                                     f"best_lower={int(got['best_upper']) + 1}")
        return (self._rejects("a pruned design missing a block", "prune",
                              dataclasses.replace(pruned, file="\n".join(lines[:-1]) + "\n"),
                              firsts)
                + self._rejects("a pruned design with a block not in its input", "prune",
                                dataclasses.replace(pruned, file="\n".join(
                                    lines + [foreign_line]) + "\n"), firsts)
                + self._rejects("best_lower above best_upper", "bounds",
                                dataclasses.replace(bounds, out=swapped), firsts))


WORKLOADS = {w.name: w for w in (VerifyLarge, CoverGreedy, SearchExact, PrunePipeline)}
