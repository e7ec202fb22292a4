"""Lower-bound rules, the classical recursive bound, and upper certificates."""

import gc
import random
import sys
import time
from math import ceil, comb

import pytest

import naive_oracle as oracle
import gencov.bounds
import gencov.core
from gencov import (
    BudgetExhausted,
    GencovError,
    ParameterOrderViolated,
    PartStructure,
    ProfileBelowTwo,
    SinglePart,
    StrengthExceedsParts,
    StrengthTooLarge,
    UnitProfilePart,
    VerificationReport,
    bound_report,
    exact_min,
    greedy_cover,
    lower_best,
    lower_edges_clique,
    lower_edges_multipartite,
    lower_nested_ceiling,
    lower_restriction_single,
    lower_schonheim,
    lower_t1,
    schonheim,
    upper_minimax,
    verify,
)
from gencov.cli import main
from test_search import _census_cases
from util_random import random_structure


def test_schonheim_frozen_values():
    assert schonheim(100, 3, 2) == 1667
    assert schonheim(11, 3, 2) == 19
    assert schonheim(7, 3, 2) == 7
    assert schonheim(8, 4, 3) == 14
    assert schonheim(5, 2, 2) == 10


def test_schonheim_matches_recursion():
    # exact integer ceilings; float division drifts near multiples
    for v in range(2, 15):
        for k in range(1, v + 1):
            assert schonheim(v, k, 1) == -(-v // k)
            for t in range(2, k + 1):
                inner = schonheim(v - 1, k - 1, t - 1)
                assert schonheim(v, k, t) == -(-v * inner // k)


def test_lower_schonheim_single_part_is_schonheim():
    for v in range(1, 15):
        for k in range(1, v + 1):
            for t in range(1, k + 1):
                assert lower_schonheim(PartStructure((v,), (k,)), t) == schonheim(v, k, t)


def test_single_part_loop_matches_recursion():
    """One part is computed as the nested ceiling in a loop; at small t it
    is the recursion L(v,k,t) = ceil(v/k L(v-1,k-1,t-1)), L(v,k,1) =
    ceil(v/k), spelled out here."""
    def recursion(v, k, t):
        inner = 1 if t == 1 else recursion(v - 1, k - 1, t - 1)
        return -(-v * inner // k)

    for v in range(1, 16):
        for k in range(1, v + 1):
            for t in range(1, k + 1):
                want = recursion(v, k, t)
                assert gencov.core._schonheim_single(v, k, t) == want
                assert lower_schonheim(PartStructure((v,), (k,)), t) == want


def test_lower_schonheim_past_the_recursion_depth():
    """One part takes any t; two parts that would recurse deeper than the
    interpreter allows raise a GencovError, at once, before a memo that
    grows as t^2 is built."""
    assert schonheim(2000, 2000, 1500) == 1
    assert lower_schonheim(PartStructure((3000,), (1500,)), 1200) == \
        gencov.core._schonheim_single(3000, 1500, 1200)
    assert lower_best(PartStructure((2000,), (2000,)), 1500).best_lower == 1
    assert bound_report(PartStructure((2000,), (2000,)), 1500).best_lower == 1
    n = 1 << 18
    start = time.monotonic()
    with pytest.raises(StrengthTooLarge):
        lower_schonheim(PartStructure((n, n), (n, n)), n)
    assert time.monotonic() - start < 1.0


def test_nested_ceiling_past_the_recursion_depth():
    """Equal parts with no integer ratio nest once per unit of t; 400 of
    them, past what the interpreter allows, raise a StrengthTooLarge that
    names its recursion limit, not a bare RecursionError."""
    want = 1
    for _ in range(200):
        want = -(5 * want // -2)
    assert lower_nested_ceiling(PartStructure((5,) * 200, (2,) * 200), 200) == want
    with pytest.raises(StrengthTooLarge, match=f"recursion limit of {sys.getrecursionlimit()}"):
        lower_nested_ceiling(PartStructure((5,) * 400, (2,) * 400), 400)


def test_negative_strength_is_refused_up_front():
    """lower_best and bound_report take t = 0, so a negative t is refused
    as a strength, as Design refuses it, not by lower_schonheim's
    1 <= t rule."""
    for call in (lower_best, bound_report):
        with pytest.raises(StrengthTooLarge, match="strength must be non-negative, got -1"):
            call(S433, -1)


def _repeated_parts_structure(rng):
    """Two to six parts drawn from at most three (v_i, k_i), so that most
    parts equal another."""
    kinds = []
    for _ in range(rng.randint(1, 3)):
        ki = rng.randint(1, 4)
        kinds.append((rng.randint(ki, 8), ki))
    return PartStructure(*zip(*(rng.choice(kinds) for _ in range(rng.randint(2, 6)))))


def test_equal_parts_match_the_plain_recursions():
    """Of equal parts, core's _schonheim_rec steps only the first and
    bounds' _nested_rec puts only the first outermost; on structures of
    repeated parts both equal the plain recursions over every part,
    spelled out here."""
    from functools import cache

    @cache
    def schonheim_plain(parts, t):
        if t == 1:
            return max(-(-vi // ki) for vi, ki in parts)
        best = 0
        for i, (vi, ki) in enumerate(parts):
            rest = parts[:i] + parts[i + 1:] + (((vi - 1, ki - 1),) if ki > 1 else ())
            best = max(best, -(-vi * schonheim_plain(tuple(sorted(rest)), t - 1) // ki))
        return best

    @cache
    def nested_plain(parts):
        return max((-(-vi * nested_plain(parts[:i] + parts[i + 1:]) // ki)
                    for i, (vi, ki) in enumerate(parts)), default=1)

    rng = random.Random(38)
    for _ in range(300):
        s = _repeated_parts_structure(rng)
        parts = tuple(sorted(zip(s.v, s.k)))
        for t in range(1, min(s.k_sum, 6) + 1):
            assert lower_schonheim(s, t) == schonheim_plain(parts, t), (s, t)
        for t in range(1, s.m + 1):
            top = sorted(parts, key=lambda vk: vk[0] / vk[1])[s.m - t:]
            assert lower_nested_ceiling(s, t) == nested_plain(tuple(sorted(top))), (s, t)


def test_many_equal_parts_bound_at_once():
    """200 parts of (5)/(2) at t = 200: a profile-2 part stepped twice
    multiplies by 10 exactly, so the Schönheim bound is 10^100, and
    lower_best takes under 2 s, as each memo entry steps one of its
    equal parts, not every one."""
    s = PartStructure((5,) * 200, (2,) * 200)
    start = time.perf_counter()
    assert lower_best(s, 200).best_lower == 10 ** 100
    assert time.perf_counter() - start < 2.0


def test_nested_ceiling_matches_every_ordering():
    from itertools import combinations, permutations
    rng = random.Random(43)
    for _ in range(200):
        s = random_structure(rng, v_sum_max=30, m_max=6)
        for t in range(1, s.m + 1):
            want = 0
            for subset in combinations(range(s.m), t):
                for order in permutations(subset):
                    x = 1
                    for i in reversed(order):
                        x = -(s.v[i] * x // -s.k[i])
                    want = max(want, x)
            assert lower_nested_ceiling(s, t) == want, (s, t)


def test_nested_ceiling_takes_the_largest_ratios(capsys):
    """Only the t parts of largest v_i/k_i are nested, so 30 unit parts
    at t = 15 take one recursion on 15 parts, not one on each of the
    C(30, 15) = 155 M subsets.  bound_report and `gencov bounds` finish
    at once, with no greedy entry: the 2^30 candidates are past the
    search's cap."""
    s = PartStructure((2,) * 30, (1,) * 30)
    start = time.perf_counter()
    assert lower_nested_ceiling(s, 15) == 32768
    rep = bound_report(s, 15)
    assert rep.best_lower == 32768 and "greedy" not in rep.upper
    assert main(["bounds", "--v", ",".join(["2"] * 30), "--k", ",".join(["1"] * 30),
                 "--t", "15"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "best_lower=32768" in lines and not any(ln.startswith("upper.") for ln in lines)
    assert time.perf_counter() - start < 1.0


def _unit_heavy_structure(rng):
    """Up to 7 parts, most of them unit parts or parts with k_i | v_i."""
    v, k = [], []
    for _ in range(rng.randint(1, 7)):
        r = rng.random()
        if r < 0.4:
            vi, ki = rng.randint(1, 9), 1
        elif r < 0.7:
            ki = rng.randint(2, 4)
            vi = ki * rng.randint(1, 3)
        else:
            vi = rng.randint(2, 9)
            ki = rng.randint(2, vi)
        v.append(vi)
        k.append(ki)
    return PartStructure(v, k)


def test_unit_parts_outermost_matches_recursion():
    """lower_schonheim takes its unit steps outermost, on the largest unit
    parts; on parts that are mostly unit or k_i | v_i it is the plain
    recursion L(P, t) = max_i ceil(v_i/k_i L(P - e_i, t-1)),
    L(P, 1) = max_i ceil(v_i/k_i), a part of profile 0 dropped, spelled
    out here over every part."""
    def recursion(parts, t):
        if t == 1:
            return max(-(-vi // ki) for vi, ki in parts)
        best = 0
        for i, (vi, ki) in enumerate(parts):
            rest = parts[:i] + parts[i + 1:] + (((vi - 1, ki - 1),) if ki > 1 else ())
            best = max(best, -(-vi * recursion(tuple(sorted(rest)), t - 1) // ki))
        return best

    rng = random.Random(35)
    for _ in range(300):
        s = _unit_heavy_structure(rng)
        for t in range(1, min(s.k_sum, 5) + 1):
            want = recursion(tuple(sorted(zip(s.v, s.k))), t)
            assert lower_schonheim(s, t) == want, (s, t)


def test_integer_ratios_outermost_matches_every_ordering():
    """lower_nested_ceiling multiplies the parts with k_i | v_i outermost;
    on parts that are mostly such, it is the best nested ceiling over
    every ordered t-subset of parts."""
    from itertools import combinations, permutations
    rng = random.Random(36)
    for _ in range(300):
        s = _unit_heavy_structure(rng)
        for t in range(1, s.m + 1):
            want = 0
            for subset in combinations(range(s.m), t):
                for order in permutations(subset):
                    x = 1
                    for i in reversed(order):
                        x = -(s.v[i] * x // -s.k[i])
                    want = max(want, x)
            assert lower_nested_ceiling(s, t) == want, (s, t)


def test_unit_parts_bound_at_once(capsys):
    """30 unit parts of distinct sizes at t = 25 and (2, 3000)/(1, 1500)
    at t = 1200, each deeper or wider than the plain recursion can go,
    are bounded in under a second, through `gencov bounds` too."""
    sizes = range(2, 32)
    units = PartStructure(sizes, (1,) * 30)
    product_25 = 1
    for vi in sizes[-25:]:
        product_25 *= vi
    start = time.perf_counter()
    assert lower_schonheim(units, 25) == lower_nested_ceiling(units, 25) == product_25
    assert main(["bounds", "--v", ",".join(map(str, sizes)), "--k", ",".join(["1"] * 30),
                 "--t", "25"]) == 0
    assert f"best_lower={product_25}" in capsys.readouterr().out.splitlines()
    assert time.perf_counter() - start < 1.0
    start = time.perf_counter()
    pair = PartStructure((2, 3000), (1, 1500))
    want = max(gencov.core._schonheim_single(3000, 1500, 1200),
               2 * gencov.core._schonheim_single(3000, 1500, 1199))
    assert lower_schonheim(pair, 1200) == want
    assert main(["bounds", "--v", "2,3000", "--k", "1,1500", "--t", "1200"]) == 0
    assert f"best_lower={want}" in capsys.readouterr().out.splitlines()
    assert time.perf_counter() - start < 1.0


def test_lower_schonheim_lives_in_core():
    assert gencov.bounds.lower_schonheim is gencov.core.lower_schonheim


def test_lower_schonheim_frozen_values():
    assert lower_schonheim(PartStructure((9,), (4,)), 3) == 25
    assert lower_schonheim(PartStructure((5, 4), (3, 2)), 3) == 12
    assert lower_schonheim(PartStructure((6, 6, 6), (3, 3, 3)), 3) == 20
    assert lower_schonheim(PartStructure((8, 6), (4, 3)), 4) == 70
    assert lower_schonheim(PartStructure((5, 5, 5, 5), (2, 2, 2, 2)), 4) == 100
    # a unit-profile part drops out after one step: 4/2 * L((3,2,2)/(1,1,1), 1)
    assert lower_schonheim(PartStructure((4, 2, 2), (2, 1, 1)), 2) == 6
    with pytest.raises(GencovError):
        lower_schonheim(PartStructure((4, 2), (2, 1)), 4)


def test_lower_schonheim_ignores_part_order():
    from itertools import permutations
    rng = random.Random(29)
    for _ in range(30):
        s = random_structure(rng, v_sum_max=12, m_max=4)
        t = rng.randint(1, min(4, s.k_sum))
        want = lower_schonheim(s, t)
        for order in permutations(range(s.m)):
            perm = PartStructure(tuple(s.v[i] for i in order), tuple(s.k[i] for i in order))
            assert lower_schonheim(perm, t) == want, (s, t, order)


def test_lower_schonheim_leaves_no_garbage():
    # the memo is freed when the call returns, not kept in a cycle
    s = PartStructure((5, 5, 5, 5), (2, 2, 2, 2))
    gc.collect()
    gc.disable()
    try:
        for t in range(1, 101):
            lower_schonheim(s, t % s.k_sum + 1)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_lower_schonheim_sound(monkeypatch):
    # Optima are proven with this rule switched off, so a bound that
    # overshoots cannot certify itself by meeting greedy.
    rng = random.Random(31)
    proven = []
    with monkeypatch.context() as mp:
        mp.setattr(gencov.bounds, "lower_schonheim", lambda s, t: 0)
        while len(proven) < 40:
            s = random_structure(rng, v_sum_max=9, m_max=4)
            t = rng.randint(1, min(3, s.k_sum))
            if not 10 <= s.block_count_possible() <= 2000:
                continue
            r = exact_min(s, t, max_nodes=20_000)
            if r.status == "proven":
                proven.append((s, t, r.optimum, lower_best(s, t).best_lower))
    stronger = tiny = 0
    for s, t, opt, others in proven:
        bound = lower_schonheim(s, t)
        assert bound <= opt, (s, t)
        stronger += bound > others
        if s.block_count_possible() <= 18 and opt <= 6:
            assert bound <= oracle.brute_force_min(s.v, s.k, t, max_blocks=6), (s, t)
            tiny += 1
    assert stronger >= 5 and tiny >= 5


def test_lower_t1():
    assert lower_t1(PartStructure((4, 2, 2), (2, 1, 1))) == 2
    assert lower_t1(PartStructure((100, 7), (98, 3))) == 3
    assert lower_t1(PartStructure((5,), (5,))) == 1


def test_edge_counting_rules():
    s = PartStructure((4, 2, 2), (2, 1, 1))
    # 26 join-graph edges, 6 per block clique
    assert lower_edges_clique(s) == 5
    # 20 between-part edges, 5 per block
    assert lower_edges_multipartite(s) == 4


def test_nested_ceiling():
    s = PartStructure((4, 2, 2), (2, 1, 1))
    assert lower_nested_ceiling(s, 2) == 4
    assert lower_nested_ceiling(s, 1) == lower_t1(s)
    # maximized over part orders; order (3,1,2) attains it here
    s2 = PartStructure((5, 6, 7), (3, 4, 3))
    assert lower_nested_ceiling(s2, 3) == 10

    def nested(order):
        n = 1
        for i in reversed(order):
            n = -(-s2.v[i] * n // s2.k[i])
        return n

    from itertools import permutations
    assert lower_nested_ceiling(s2, 3) == max(nested(p) for p in permutations(range(3), 3))
    assert lower_nested_ceiling(s2, 2) == max(nested(p) for p in permutations(range(3), 2))


def test_rule_preconditions():
    with pytest.raises(ParameterOrderViolated):
        schonheim(3, 4, 2)
    with pytest.raises(SinglePart):
        lower_edges_multipartite(PartStructure((5,), (2,)))
    with pytest.raises(StrengthExceedsParts):
        lower_nested_ceiling(PartStructure((4, 2), (2, 1)), 3)
    with pytest.raises(UnitProfilePart):
        upper_minimax(PartStructure((4, 2), (2, 1)))


S433 = PartStructure((4, 3, 3), (2, 2, 2))


@pytest.mark.parametrize("call, error", [
    (lambda: lower_schonheim(S433, 2.5), StrengthTooLarge),
    (lambda: schonheim(5, 3, 2.5), StrengthTooLarge),
    (lambda: lower_best(S433, 2.5), StrengthTooLarge),
    (lambda: bound_report(S433, 2.5), StrengthTooLarge),
    (lambda: lower_nested_ceiling(S433, 2.5), StrengthTooLarge),
    (lambda: schonheim(5.5, 3, 2), ParameterOrderViolated),
    (lambda: schonheim(5, 3.0, 2), ParameterOrderViolated),
], ids=["lower_schonheim", "schonheim-t", "lower_best", "bound_report",
        "lower_nested_ceiling", "schonheim-v", "schonheim-k"])
def test_bounds_refuse_non_integer_arguments(call, error):
    with pytest.raises(error, match="must be an integer"):
        call()


def test_bounds_coerce_integer_like_arguments():
    import numpy as np

    assert schonheim(np.int64(7), np.int64(3), np.int64(2)) == 7
    assert type(schonheim(np.int64(7), 3, 2)) is int
    assert lower_schonheim(S433, np.int64(2)) == lower_schonheim(S433, 2)
    assert lower_nested_ceiling(S433, np.int64(2)) == lower_nested_ceiling(S433, 2)
    assert lower_best(S433, np.int64(2)).lower == lower_best(S433, 2).lower
    assert bound_report(S433, np.int64(1)).best_upper == bound_report(S433, 1).best_upper


def test_lower_rules_refuse_what_they_cannot_bound():
    # the empty design is a GC at t = 0, so no rule may claim a block there
    for t in (0, -1):
        with pytest.raises(ParameterOrderViolated):
            lower_nested_ceiling(S433, t)
    # one unit-profile part has no strength-2 tuple to count edges for
    with pytest.raises(StrengthTooLarge):
        lower_edges_clique(PartStructure((5,), (1,)))
    assert lower_best(PartStructure((5,), (1,)), 1).lower == {"t1": 5, "schonheim": 5,
                                                              "nested_ceiling": 5}


def test_restriction_single():
    assert lower_restriction_single(PartStructure((5, 7, 3, 4), (2, 3, 2, 2))) == 10
    assert lower_restriction_single(PartStructure((5, 6, 7), (3, 4, 3))) == 7


def test_lower_best_rule_map():
    got = lower_best(PartStructure((4, 2, 2), (2, 1, 1)), 2).lower
    assert got == {
        "t1": 2,
        "schonheim": 6,
        "edges_clique": 5,
        "edges_multipartite": 4,
        "restriction_single": 6,
        "nested_ceiling": 4,
    }
    assert lower_best(PartStructure((4, 2, 2), (2, 1, 1)), 2).best_lower == 6


def test_lower_best_edge_strengths():
    s = PartStructure((4, 2, 2), (2, 1, 1))
    assert lower_best(s, 0).lower == {}
    assert lower_best(s, 0).best_lower == 0
    rep = lower_best(s, 5)
    assert rep.infeasible and rep.lower == {} and rep.best_lower == 0


def test_schonheim_decides_best_lower():
    """The generalized Schönheim recursion is never below any other rule."""
    rng = random.Random(7)
    for _ in range(2000):
        s = random_structure(rng, v_sum_max=16, m_max=5)
        t = rng.randint(1, min(5, s.k_sum))
        rep = lower_best(s, t)
        assert rep.lower["schonheim"] == rep.best_lower, (s, t, rep.lower)


def test_lower_sound_against_brute_force():
    rng = random.Random(13)
    done = 0
    while done < 12:
        s = random_structure(rng, v_sum_max=6, m_max=3)
        t = rng.randint(1, min(2, s.k_sum))
        if s.block_count_possible() > 18:
            continue
        try:
            opt = oracle.brute_force_min(s.v, s.k, t, max_blocks=6)
        except ValueError:
            continue  # needs a bigger family than the brute-force cap
        assert lower_best(s, t).best_lower <= opt
        done += 1


def test_upper_minimax_unit_profile_is_profile_below_two():
    # the lift refuses the profile before its base search
    with pytest.raises(ProfileBelowTwo) as info:
        upper_minimax(PartStructure((4, 2), (2, 1)), max_nodes=0, timeout=0)
    assert type(info.value) is UnitProfilePart


def test_upper_minimax_small():
    n, d = upper_minimax(PartStructure((9, 5), (7, 2)))
    assert verify(d).valid
    assert len(d) == n
    assert d.structure == PartStructure((9, 5), (7, 2))


def test_upper_minimax_pathological_structure():
    n, d = upper_minimax(PartStructure((100, 7), (98, 3)))
    assert n == 7
    assert verify(d).valid


def test_upper_minimax_strict_budget():
    # k_min = 3 gives w = 11, and the (11,3,2) base needs branching
    # beyond a 5-node budget
    n, d = upper_minimax(PartStructure((11, 5), (3, 3)), max_nodes=5)
    assert verify(d).valid and len(d) == n


def test_bound_report_uppers():
    s = PartStructure((4, 2, 2), (2, 1, 1))
    rep = bound_report(s, 2)
    assert set(rep.upper) == {"greedy"}
    n, d = rep.upper["greedy"]
    assert n == 7 and len(d) == 7 and verify(d).valid
    assert rep.best_upper == 7 and rep.best_lower == 6

    rep1 = bound_report(s, 1)
    n1, d1 = rep1.upper["t1_formula"]
    assert n1 == lower_t1(s) == 2 and verify(d1).valid

    rep0 = bound_report(s, 0)
    assert rep0.upper["greedy"][0] == 0 and rep0.best_lower == 0

    rep2 = bound_report(PartStructure((5, 6, 7), (3, 4, 3)), 2)
    assert rep2.upper["minimax"][0] == 7
    assert verify(rep2.upper["minimax"][1]).valid
    assert rep2.best_lower == 7  # bound meets certificate, so 7 is optimal


def test_greedy_upper_on_census():
    """greedy is reported at t = 2 and 3 as greedy_cover's own design,
    and no certified upper exceeds the all-blocks count."""
    for s, t in _census_cases():
        rep = bound_report(s, t)
        n, d = rep.upper["greedy"]
        assert n == len(greedy_cover(s, t)) == len(d), (s, t)
        assert verify(d).valid, (s, t)
        assert rep.best_upper <= s.block_count_possible(), (s, t)


@pytest.mark.parametrize("v, k, t", [((24,), (6,), 5), ((40,), (20,), 2), ((25,), (24,), 12)],
                         ids=["v24-k6-t5", "v40-k20-t2", "v25-k24-t12"])
def test_bound_report_without_greedy_tables(v, k, t):
    # the coverage tables of (24)/(6) t=5 exceed the search's cap, so
    # greedy is refused before it allocates anything; at (40)/(20) t=2
    # minimax's base search is refused the same way; (25)/(24) t=12 has
    # few candidates but 5.2 M tuples, each a row of its own
    start = time.perf_counter()
    rep = bound_report(PartStructure(v, k), t)
    assert time.perf_counter() - start < 0.5
    assert rep.upper == {} and rep.best_upper is None
    assert rep.lower


def test_bound_report_infeasible():
    rep = bound_report(PartStructure((3, 2), (2, 1)), 4)
    assert rep.infeasible and rep.lower == {} and rep.upper == {}
    assert rep.best_upper is None


def test_certificates_sized_consistently():
    rng = random.Random(17)
    for _ in range(15):
        s = random_structure(rng, v_sum_max=8, m_max=3)
        t = rng.randint(0, min(2, s.k_sum))
        rep = bound_report(s, t)
        for name, (n, d) in rep.upper.items():
            assert len(d) == n, name
            assert verify(d).valid, name
        if rep.best_upper is not None:
            assert rep.best_lower <= rep.best_upper


@pytest.mark.parametrize("v, k, t, which", [
    ((4, 4), (2, 2), 2, "minimax"),
    ((3, 2), (2, 1), 2, "greedy"),
    ((3, 2), (2, 1), 1, "t1_formula"),
])
def test_failed_certificate_is_gencov_error(v, k, t, which, monkeypatch, capsys):
    monkeypatch.setattr(gencov.bounds, "verify",
                        lambda d: VerificationReport(False, 1, 1, None, 1))
    with pytest.raises(GencovError, match=which):
        bound_report(PartStructure(v, k), t)
    argv = ["bounds", "--v", ",".join(map(str, v)), "--k", ",".join(map(str, k)),
            "--t", str(t)]
    assert main(argv) == 2
    assert which in capsys.readouterr().err
