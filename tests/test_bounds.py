"""Lower-bound rules, the classical recursive bound, and upper certificates."""

import gc
import random
import time
from math import ceil, comb

import pytest

import naive_oracle as oracle
import gencov.bounds
from gencov import (
    BudgetExhausted,
    GencovError,
    ParameterOrderViolated,
    PartStructure,
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
    with pytest.raises(BudgetExhausted) as info:
        upper_minimax(PartStructure((11, 5), (3, 3)), max_nodes=5, strict=True)
    cert = info.value.certificate
    assert cert is not None and verify(cert).valid
    assert cert.structure == PartStructure((11, 5), (3, 3))
    # non-strict mode returns the same fallback instead of raising
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


def test_bound_report_without_greedy_tables():
    # the coverage tables of (24)/(6) t=5 exceed the search's cap, so
    # greedy is refused before it allocates anything
    start = time.perf_counter()
    rep = bound_report(PartStructure((24,), (6,)), 5)
    assert time.perf_counter() - start < 0.5
    assert rep.upper == {} and rep.best_upper is None


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
