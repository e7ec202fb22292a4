"""Lower bounds on block counts and certified upper bounds.

Every lower rule is a formula evaluated directly.  The generalized
Schönheim recursion dominates all the others, so it alone decides
best_lower; the rest are reported for reference.  It is nondecreasing in
t, because L(v-e_i, k-e_i, 1) >= 1, so no rule at a lower strength
exceeds it either, and in the parts it ranges over.
t1, restriction_single and nested_ceiling each follow one chain of its
recursion, and both edge rules are mediants of the counting ratios of
such chains.

Every upper bound is witnessed by an explicitly stored design that has
passed verification; values are never quoted from external tables.  The
upper entries are t1_formula (strength 1, of the minimum size),
minimax (strength 2 with every k_i >= 2, a base cover lifted to every
part) and greedy (every strength, unless the structure's coverage
tables exceed the search's caps).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, permutations
from math import comb

from .core import Design, PartStructure, as_int
from .errors import (
    BudgetExhausted,
    CandidateSpaceTooLarge,
    CertificateInvalid,
    ParameterOrderViolated,
    SinglePart,
    StrengthExceedsParts,
    StrengthTooLarge,
    UnitProfilePart,
)
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
    return _schonheim_rec(((v, k),), t, {})


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

    The value depends on the nesting order, so all orderings of each
    subset are tried (t! per subset; fine at small t).
    """
    t = as_int(t, StrengthTooLarge, "strength")
    if t < 1:
        raise ParameterOrderViolated(f"nested-ceiling bound needs t >= 1, got t={t}")
    if t > s.m:
        raise StrengthExceedsParts(f"nested-ceiling bound needs t <= m, got t={t}, m={s.m}")
    best = 0
    for subset in combinations(range(s.m), t):
        for order in permutations(subset):
            x = 1
            for i in reversed(order):
                x = -(s.v[i] * x // -s.k[i])
            best = max(best, x)
    return best


def lower_restriction_single(s: PartStructure) -> int:
    """Strength-2 bound from restricting to one part with profile >= 2."""
    vals = [schonheim(vi, ki, 2) for vi, ki in zip(s.v, s.k) if ki >= 2]
    return max(vals, default=0)


def lower_schonheim(s: PartStructure, t: int) -> int:
    """Generalized Schönheim bound (Schönheim, Pacific J. Math. 14, 1964).

    The blocks through a point x of part i, with x removed, form a GC of
    strength t-1 on (v - e_i, k - e_i), where a part whose profile drops
    to 0 disappears.  Each block holds k_i points of part i, so
    L(v,k,t) = max_i ceil(v_i/k_i L(v-e_i, k-e_i, t-1)), with
    L(v,k,1) = max_i ceil(v_i/k_i).  For m = 1 this is schonheim().
    """
    t = as_int(t, StrengthTooLarge, "strength")
    if not 1 <= t <= s.k_sum:
        raise ParameterOrderViolated(f"need 1 <= t <= k_sum = {s.k_sum}, got t={t}")
    return _schonheim_rec(tuple(sorted(zip(s.v, s.k))), t, {})


def _schonheim_rec(parts: tuple[tuple[int, int], ...], t: int, memo: dict) -> int:
    """lower_schonheim on sorted (v_i, k_i) pairs, so that identical parts
    share memo entries.  The memo lives for one lower_schonheim call."""
    if t == 1:
        return max(-(vi // -ki) for vi, ki in parts)
    if (parts, t) not in memo:
        best = 0
        for i, (vi, ki) in enumerate(parts):
            rest = parts[:i] + parts[i + 1:]
            if ki > 1:
                rest = tuple(sorted(rest + ((vi - 1, ki - 1),)))
            best = max(best, -(vi * _schonheim_rec(rest, t - 1, memo) // -ki))
        memo[parts, t] = best
    return memo[parts, t]


def lower_best(s: PartStructure, t: int) -> BoundReport:
    """Every lower rule that applies at strength t.

    best_lower is the schonheim entry, which no other rule exceeds (see
    the module docstring).  Strength above the profile sum is impossible
    and reported as infeasible with value 0.
    """
    t = as_int(t, StrengthTooLarge, "strength")
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


def upper_minimax(s: PartStructure, max_nodes: int = 10_000_000,
                  timeout: float = 60.0, strict: bool = False) -> tuple[int, Design]:
    """Certified strength-2 upper bound from one classical base cover.

    Computes w = max_j (v_j - (k_j - k_min)), obtains a (w, k_min, 2)
    cover by exact search, lifts it to the full structure, and verifies
    the result before returning it.  If the search budget runs out the
    greedy incumbent is lifted instead (the bound stays valid, just not
    provably tight at the base); strict=True raises in that case, with
    the fallback certificate attached to the exception.  A timeout that
    runs out before the base search's tables are built raises
    BudgetExhausted with no certificate.
    """
    from .construct import construct_minimax, minimax_base_size
    from .search import certify_classical

    if s.k_min < 2:
        raise UnitProfilePart(f"minimax bound needs every k_i >= 2, got {s.k}")
    w = minimax_base_size(s)
    base_result = certify_classical(w, s.k_min, 2, max_nodes=max_nodes, timeout=timeout)
    n, design = _certified("minimax", construct_minimax(s, base_result.design))
    if strict and base_result.status != "proven":
        raise BudgetExhausted(
            f"base ({w},{s.k_min},2) search stopped at status {base_result.status}",
            certificate=design,
        )
    return n, design


def bound_report(s: PartStructure, t: int) -> BoundReport:
    """Lower rules plus whatever certified uppers apply at this strength."""
    from .search import greedy_cover

    t = as_int(t, StrengthTooLarge, "strength")
    base = lower_best(s, t)
    if base.infeasible:
        return base
    upper: dict[str, tuple[int, Design]] = {}
    if t == 1:
        from .construct import cover_t1

        upper["t1_formula"] = _certified("t1_formula", cover_t1(s))
    if t == 2 and s.k_min >= 2:
        upper["minimax"] = upper_minimax(s)
    try:
        upper["greedy"] = _certified("greedy", greedy_cover(s, t))
    except CandidateSpaceTooLarge:
        pass
    return BoundReport(lower=base.lower, upper=upper)
