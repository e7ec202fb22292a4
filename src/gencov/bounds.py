"""Lower bounds on block counts and certified upper bounds.

Every lower rule is a formula evaluated directly.  The generalized
Schönheim recursion dominates all the others, so it alone decides
best_lower; the rest are reported for reference.  It is nondecreasing in
t, because L(v-e_i, k-e_i, 1) >= 1, so no rule at a lower strength
exceeds it either, and in the parts it ranges over.
t1, restriction_single and nested_ceiling each follow one chain of its
recursion, and both edge rules are mediants of the counting ratios of
such chains.  The recursion itself, lower_schonheim, lives in core,
below search, which takes it as its root bound; bounds re-exports it.

Every upper bound is witnessed by an explicitly stored design that has
passed verification; values are never quoted from external tables.  The
upper entries are t1_formula (strength 1, of the minimum size),
minimax (strength 2 with every k_i >= 2, a base cover lifted to every
part) and greedy (every strength); minimax and greedy are absent past
the search's caps.
"""

from __future__ import annotations

import sys
from contextlib import suppress
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import comb, prod

from .construct import construct_minimax, cover_t1
from .core import Design, PartStructure, as_int, lower_schonheim, require_structure
from .errors import (
    CandidateSpaceTooLarge,
    CertificateInvalid,
    ParameterOrderViolated,
    SinglePart,
    StrengthExceedsParts,
    StrengthTooLarge,
    UnitProfilePart,
)
from .search import DEFAULT_MAX_NODES, DEFAULT_TIMEOUT, greedy_cover
from .verify import verify


@dataclass(frozen=True)
class BoundReport:
    lower: dict[str, int]
    upper: dict[str, tuple[int, Design]] = field(default_factory=dict)
    infeasible: bool = False

    @property
    def best_lower(self) -> int:
        return max(self.lower.values(), default=0)

    @property
    def best_upper(self) -> int | None:
        return min((v for v, _ in self.upper.values()), default=None)


def schonheim(v: int, k: int, t: int) -> int:
    """The nested-ceiling bound ceil(v/k ceil((v-1)/(k-1) ... )), whose
    innermost factor is ceil((v-t+1)/(k-t+1)): lower_schonheim's
    recursion on the one part (v, k)."""
    v = as_int(v, ParameterOrderViolated, "v")
    k = as_int(k, ParameterOrderViolated, "k")
    t = as_int(t, StrengthTooLarge, "strength")
    if not (v >= k >= t >= 1):
        raise ParameterOrderViolated(f"need v >= k >= t >= 1, got ({v},{k},{t})")
    return lower_schonheim(PartStructure((v,), (k,)), t)


def lower_t1(s: PartStructure) -> int:
    """max_i ceil(v_i/k_i); exact, not just a bound, at strength 1."""
    return lower_schonheim(s, 1)


def lower_edges_clique(s: PartStructure) -> int:
    """Edge count of the join graph over edge count of one block clique."""
    if s.k_sum < 2:
        raise StrengthTooLarge(f"edge bound is for strength 2, above profile sum {s.k_sum}")
    edges = comb(s.v_sum, 2) - sum(comb(vi, 2) for vi, ki in zip(s.v, s.k) if ki == 1)
    per_block = comb(s.k_sum, 2)
    return -(edges // -per_block)


def lower_edges_multipartite(s: PartStructure) -> int:
    """Between-part edge count ratio; needs at least two parts."""
    if s.m < 2:
        raise SinglePart("multipartite edge bound needs m >= 2")
    ve = sum(vi * vj for vi, vj in combinations(s.v, 2))
    ke = sum(ki * kj for ki, kj in combinations(s.k, 2))
    return -(ve // -ke)


def lower_nested_ceiling(s: PartStructure, t: int) -> int:
    """Max over ordered t-subsets of parts of the nested ratio ceiling.

    Each factor ceil(v_i x / k_i) depends on part i only through v_i/k_i
    and is nondecreasing in it and in x, so only the set S of the t parts
    of largest v_i/k_i is nested.  A part with k_i | v_i multiplies x
    exactly, and r ceil(x) >= ceil(r x), so it goes outermost: the bound
    is the product of those ratios times the best order of the rest of
    S.  That order puts outermost the part i that maximizes
    ceil(v_i f(R - i) / k_i), f the best value of the rest R
    (_nested_rec); no ordering is listed, but t distinct parts with no
    integer ratio still take all 2^t subsets of S.  A recursion deeper
    than the interpreter allows raises StrengthTooLarge.
    """
    t = as_int(t, StrengthTooLarge, "strength")
    if t < 1:
        raise ParameterOrderViolated(f"nested-ceiling bound needs t >= 1, got t={t}")
    if t > s.m:
        raise StrengthExceedsParts(f"nested-ceiling bound needs t <= m, got t={t}, m={s.m}")
    top = sorted(zip(s.v, s.k), key=lambda vk: Fraction(*vk))[s.m - t:]
    exact = prod(vi // ki for vi, ki in top if vi % ki == 0)
    rest = tuple(sorted((vi, ki) for vi, ki in top if vi % ki))
    try:
        return exact * _nested_rec(rest, {})
    except RecursionError:
        raise StrengthTooLarge(
            f"the nested-ceiling recursion on {len(rest)} parts at strength {t} is deeper "
            f"than the interpreter's recursion limit of {sys.getrecursionlimit()} allows"
        ) from None


def _nested_rec(parts: tuple[tuple[int, int], ...], memo: dict) -> int:
    """The best nested ceiling of every ordering of parts, sorted (v_i, k_i)
    pairs, so that equal multisets share memo entries, as in core's
    _schonheim_rec; of equal parts, only the first goes outermost."""
    if not parts:
        return 1
    if parts not in memo:
        memo[parts] = max(-(vi * _nested_rec(parts[:i] + parts[i + 1:], memo) // -ki)
                          for i, (vi, ki) in enumerate(parts)
                          if not i or parts[i - 1] != (vi, ki))
    return memo[parts]


def lower_restriction_single(s: PartStructure) -> int:
    """Strength-2 bound from restricting to one part with profile >= 2."""
    vals = [schonheim(vi, ki, 2) for vi, ki in zip(s.v, s.k) if ki >= 2]
    return max(vals, default=0)


def lower_best(s: PartStructure, t: int) -> BoundReport:
    """Every lower rule that applies at strength t.

    best_lower is the schonheim entry, which no other rule exceeds (see
    the module docstring).  Strength above the profile sum is impossible
    and reported as infeasible with value 0, and a negative one is
    refused with StrengthTooLarge.
    """
    require_structure(s, "lower_best")
    t = as_int(t, StrengthTooLarge, "strength")
    if t < 0:
        raise StrengthTooLarge(f"strength must be non-negative, got {t}")
    if t > s.k_sum:
        return BoundReport(lower={}, infeasible=True)
    if t == 0:
        return BoundReport(lower={})
    rules: dict[str, int] = {"t1": lower_t1(s), "schonheim": lower_schonheim(s, t)}
    if t == 2:
        rules["edges_clique"] = lower_edges_clique(s)
        if s.m >= 2:
            rules["edges_multipartite"] = lower_edges_multipartite(s)
        rules["restriction_single"] = lower_restriction_single(s)
    if 1 <= t <= s.m:
        rules["nested_ceiling"] = lower_nested_ceiling(s, t)
    return BoundReport(lower=rules)


def _certified(name: str, design: Design) -> tuple[int, Design]:
    """(block count, design) for a design that verifies; raises
    CertificateInvalid naming the entry and its first uncovered tuple
    otherwise."""
    report = verify(design)
    if not report.valid:
        raise CertificateInvalid(
            f"{name} certificate failed verification: {report.first_uncovered}"
        )
    return len(design.blocks), design


def upper_minimax(s: PartStructure, *, max_nodes: int = DEFAULT_MAX_NODES,
                  timeout: float = DEFAULT_TIMEOUT) -> tuple[int, Design]:
    """Certified strength-2 upper bound: construct_minimax(s), its base
    searched under max_nodes and timeout, verified before it is returned.
    A spent budget still gives a valid bound, just not one proven tight
    at the base; construct_minimax's errors pass through.
    """
    return _certified("minimax", construct_minimax(s, max_nodes=max_nodes, timeout=timeout))


def bound_report(s: PartStructure, t: int) -> BoundReport:
    """Lower rules plus whatever certified uppers apply at this strength."""
    require_structure(s, "bound_report")
    t = as_int(t, StrengthTooLarge, "strength")
    base = lower_best(s, t)
    if base.infeasible:
        return base
    builds = {"t1_formula": lambda: cover_t1(s)} if t == 1 else {}
    if t == 2:
        builds["minimax"] = lambda: construct_minimax(s)
    builds["greedy"] = lambda: greedy_cover(s, t)
    upper: dict[str, tuple[int, Design]] = {}
    for name, build in builds.items():
        # An entry past the search's caps, or minimax on a part of
        # profile 1, is absent.
        with suppress(CandidateSpaceTooLarge, UnitProfilePart):
            upper[name] = _certified(name, build())
    return BoundReport(lower=base.lower, upper=upper)
