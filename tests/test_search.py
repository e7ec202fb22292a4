"""Exact branch-and-bound minima and the greedy incumbent."""

import contextlib
import hashlib
import random
import time
from itertools import combinations, combinations_with_replacement
from math import comb
from types import SimpleNamespace

import pytest

import naive_oracle as oracle
from fixture_designs import mixed_422
import gencov.search as search_module
from gencov import (
    BudgetExhausted,
    CandidateSpaceTooLarge,
    PartStructure,
    StrengthTooLarge,
    admissible_patterns,
    admissible_tuples,
    certify_classical,
    emit_design,
    exact_min,
    greedy_cover,
    lower_best,
    lower_t1,
    parse_design,
    verify,
)
from gencov.cli import main
from gencov.search import TABLE_BITS_CAP, _kron, _part_incidence, _spread, _Tables
from util_random import random_structure


def test_forced_minima():
    r = exact_min(PartStructure((2, 2), (1, 1)), 2)
    assert (r.optimum, r.status) == (4, "proven")
    r = exact_min(PartStructure((3,), (2,)), 2)
    assert (r.optimum, r.status) == (3, "proven")
    assert oracle.brute_force_min((3,), (2,), 2) == 3


def test_mixed_reference_minimum():
    r = exact_min(PartStructure((4, 2, 2), (2, 1, 1)), 2)
    assert r.optimum == 6
    assert r.status == "proven"
    assert len(mixed_422()) == 6  # the published design attains it
    assert verify(r.design).valid
    assert len(r.design) == 6


def test_certify_classical_frozen():
    r = certify_classical(7, 3, 2)
    assert (r.optimum, r.status) == (7, "proven")
    assert verify(r.design).valid
    assert certify_classical(5, 5, 3).optimum == 1
    r11 = certify_classical(11, 3, 2)
    assert (r11.optimum, r11.status) == (19, "proven")


def test_degenerate_strengths():
    s = PartStructure((3, 2), (2, 1))
    r0 = exact_min(s, 0)
    assert (r0.optimum, r0.nodes, r0.status) == (0, 0, "proven")
    assert r0.design is not None and len(r0.design) == 0
    rbig = exact_min(s, 4)  # above k_sum, no design exists
    assert (rbig.optimum, rbig.design, rbig.status) == (0, None, "proven")
    with pytest.raises(StrengthTooLarge):
        exact_min(s, -1)


def test_candidate_space_guard():
    with pytest.raises(CandidateSpaceTooLarge):
        exact_min(PartStructure((40,), (20,)), 2)


def test_table_bits_guard(capsys):
    """(24)/(6) t=5: 134,596 candidates x 42,504 tuples, about 5.7 G bits,
    is refused before any table is built, whatever the timeout."""
    s = PartStructure((24,), (6,))
    assert comb(24, 6) * comb(24, 5) > TABLE_BITS_CAP
    start = time.monotonic()
    with pytest.raises(CandidateSpaceTooLarge):
        greedy_cover(s, 5)
    with pytest.raises(CandidateSpaceTooLarge):
        exact_min(s, 5)
    assert main(["search", "--v", "24", "--k", "6", "--t", "5"]) == 2
    assert "error:" in capsys.readouterr().err
    assert time.monotonic() - start < 0.5


def test_table_bits_guard_charges_each_row():
    """(25)/(24) t=12: 25 candidates x 5,200,300 tuples is 130 M bits,
    12% of the cap, but each tuple's row of coverers is an int object of
    about 36 bytes, so the tables are refused before they are built.
    Building them took 6.4 s and 436 MB."""
    s = PartStructure((25,), (24,))
    assert comb(25, 24) * comb(25, 12) < TABLE_BITS_CAP
    start = time.monotonic()
    with pytest.raises(CandidateSpaceTooLarge):
        greedy_cover(s, 12)
    assert time.monotonic() - start < 0.1


def test_matches_brute_force():
    rng = random.Random(43)
    done = 0
    while done < 12:
        s = random_structure(rng, v_sum_max=6, m_max=3)
        t = rng.randint(1, min(2, s.k_sum))
        if s.block_count_possible() > 18:
            continue
        try:
            want = oracle.brute_force_min(s.v, s.k, t, max_blocks=6)
        except ValueError:
            continue
        r = exact_min(s, t)
        assert r.status == "proven"
        assert r.optimum == want, (s, t)
        assert verify(r.design).valid
        done += 1

    # Draws where greedy misses the lower bound, so the optimum rests on
    # the search below the first candidate block alone.
    rng = random.Random(67)
    searched = 0
    while searched < 10:
        s = random_structure(rng, v_sum_max=7, m_max=3)
        t = rng.randint(1, min(3, s.k_sum))
        if s.block_count_possible() > 24:
            continue
        r = exact_min(s, t)
        if r.nodes == 0 or r.optimum > 6:
            continue
        assert r.status == "proven"
        assert oracle.brute_force_min(s.v, s.k, t, max_blocks=6) == r.optimum, (s, t)
        assert verify(r.design).valid
        searched += 1


def test_t1_equals_formula_sampled():
    rng = random.Random(47)
    for _ in range(25):
        s = random_structure(rng, v_sum_max=10, m_max=3)
        r = exact_min(s, 1)
        assert r.status == "proven"
        assert r.optimum == lower_t1(s)


def test_monotone_in_strength():
    s = PartStructure((4, 2, 2), (2, 1, 1))
    values = [exact_min(s, t).optimum for t in range(0, 4)]
    assert values == sorted(values)


def test_optimum_within_bounds():
    rng = random.Random(53)
    for _ in range(10):
        s = random_structure(rng, v_sum_max=8, m_max=3)
        t = rng.randint(1, min(2, s.k_sum))
        r = exact_min(s, t)
        assert r.status == "proven"
        assert lower_best(s, t).best_lower <= r.optimum


def test_budget_exhaustion_keeps_incumbent():
    r = certify_classical(11, 3, 2, max_nodes=5)
    assert r.status == "budget-exhausted"
    assert r.optimum >= 19
    assert verify(r.design).valid
    assert len(r.design) == r.optimum


@pytest.mark.parametrize("budget", [5, 1000])
def test_node_budget_is_never_exceeded(budget):
    r = certify_classical(11, 3, 2, max_nodes=budget)
    assert r.status == "budget-exhausted"
    assert 0 < r.nodes <= budget


def test_timeout_covers_the_whole_call():
    # still budget-exhausted after 300,000 nodes, so 1 s cannot prove it
    start = time.monotonic()
    r = exact_min(PartStructure((5, 5), (2, 2)), 3, timeout=1.0)
    assert time.monotonic() - start < 3.0
    assert r.status == "budget-exhausted"
    assert verify(r.design).valid
    assert len(r.design) == r.optimum


def test_table_build_honours_the_timeout(monkeypatch):
    """The deadline stops the table builds of (10,10)/(5,5) t=3 and (18)/(9)
    t=3 early, however fast the host builds them: search's clock reads the
    time when the deadline is set, and an hour later at every read after
    that, so the build is past its deadline from its first check on."""
    reads = []

    def clock():
        reads.append(None)
        return time.monotonic() + (3600 if len(reads) > 1 else 0)

    monkeypatch.setattr(search_module, "time", SimpleNamespace(monotonic=clock))
    start = time.monotonic()
    with pytest.raises(BudgetExhausted, match="building the coverage tables"):
        exact_min(PartStructure((10, 10), (5, 5)), 3, timeout=0.005)
    assert time.monotonic() - start < 0.5
    reads.clear()
    start = time.monotonic()
    with pytest.raises(BudgetExhausted, match="building the coverage tables"):
        certify_classical(18, 9, 3, timeout=0.01)
    assert time.monotonic() - start < 0.5


def test_search_reads_the_clock_often():
    # (18)/(9) t=2 builds and runs greedy in about 0.06 s, then searches
    # 1,621 nodes of about 0.12 ms each; reading the clock every 1,024
    # nodes returned after 0.13-0.18 s, every 64 nodes after 0.10-0.11 s
    start = time.monotonic()
    with contextlib.suppress(BudgetExhausted):  # a slow host may not finish the build
        exact_min(PartStructure((18,), (9,)), 2, timeout=0.1)
    assert time.monotonic() - start < 0.1 + 0.05


# Minima that the search proved before it pruned symmetric siblings:
# (v, k, t, optimum, nodes).  Every one must stay proven at the same
# value, and in exactly as many nodes, so that a weaker node bound shows.
PINNED_OPTIMA = [
    ((10,), (4,), 2, 9, 187),
    ((11,), (5,), 2, 7, 558),
    ((11,), (3,), 2, 19, 9280),
    ((9,), (4,), 2, 8, 585),
    ((7,), (4,), 3, 12, 3903),
    ((8,), (5,), 3, 8, 450),
    ((9,), (6,), 3, 7, 1250),
    ((10,), (7,), 3, 6, 102),
    ((4, 4, 4), (2, 2, 2), 2, 6, 279),
    ((6, 4), (3, 2), 2, 6, 171),
    ((6, 6, 6), (3, 3, 3), 3, 20, 17768),
    ((4, 2, 2), (2, 1, 1), 2, 6, 27),
    ((2, 7), (1, 3), 2, 8, 1059),
    ((2, 2, 6), (1, 1, 3), 2, 6, 460),
    ((4, 5), (2, 3), 3, 12, 164),
    ((2, 6), (1, 4), 3, 8, 268),
    ((3, 6), (2, 4), 3, 8, 1430),
    ((3, 7), (2, 5), 3, 7, 121),
    ((2, 2, 5), (1, 1, 3), 3, 10, 1286),
    ((3, 3, 3), (2, 2, 2), 3, 7, 128),
    ((2, 2, 3, 3), (1, 1, 2, 2), 3, 8, 895),
    ((2, 3, 5), (1, 2, 3), 3, 10, 29123),
]


@pytest.mark.parametrize("v, k, t, want, nodes", PINNED_OPTIMA,
                         ids=[f"v{i}-k{i}-{e[2]}-{e[3]}" for i, e in enumerate(PINNED_OPTIMA)])
def test_pinned_optima(v, k, t, want, nodes):
    r = exact_min(PartStructure(v, k), t)
    assert (r.optimum, r.status, r.nodes) == (want, "proven", nodes)
    assert len(r.design) == want
    assert oracle.naive_valid(*oracle.as_raw(r.design))


def test_orbit_pruning_node_count():
    # C(10,4,2) took 20,913 nodes with symmetry at the first block only,
    # and 1,382 (C(11,5,2) 1,801) while the orbits also fixed the
    # branching tuple and the banned blocks
    r = certify_classical(10, 4, 2)
    assert (r.optimum, r.status) == (9, "proven")
    assert r.nodes <= 250
    r = certify_classical(11, 5, 2)
    assert (r.optimum, r.status) == (7, "proven")
    assert r.nodes <= 700


def _orbit_draw(rng):
    """A small structure whose search meets symmetric siblings: a repeated
    part, perhaps beside a small third one; unit parts beside one larger
    part; or one part of at most 7 points."""
    kind = rng.randrange(3)
    if kind == 0:
        a = rng.randint(2, 4)
        ka = rng.randint(1, a - 1)
        v, k = [a, a], [ka, ka]
        if rng.random() < 0.5:
            b = rng.randint(1, 3)
            v.append(b)
            k.append(rng.randint(1, b))
    elif kind == 1:
        v = [rng.randint(2, 3) for _ in range(rng.randint(1, 2))]
        k = [1] * len(v)
        b = rng.randint(2, 5)
        v.append(b)
        k.append(rng.randint(1, b - 1))
    else:
        a = rng.randint(4, 7)
        v, k = [a], [rng.randint(2, a - 1)]
    return PartStructure(tuple(v), tuple(k))


def test_orbit_pruning_matches_brute_force():
    rng = random.Random(79)
    drawn = set()
    checked = 0
    for _ in range(1_000):
        s = _orbit_draw(rng)
        t = rng.randint(2, min(3, s.k_sum))
        if (s, t) in drawn:
            continue
        drawn.add((s, t))
        if s.block_count_possible() > 20:
            continue
        r = exact_min(s, t)
        # brute force tries every family of optimum - 1 candidates
        if r.nodes == 0 or comb(s.block_count_possible(), r.optimum - 1) > 20_000:
            continue
        assert r.status == "proven"
        assert oracle.brute_force_min(s.v, s.k, t, max_blocks=r.optimum) == r.optimum, (s, t)
        assert oracle.naive_valid(*oracle.as_raw(r.design))
        checked += 1
    assert checked >= 6


def _census_cases():
    """Every multiset of parts (v_i, k_i) with 1 <= k_i < v_i, v_sum <= 10
    and m <= 4, at t = 2 and 3."""
    parts = [(v, k) for v in range(2, 11) for k in range(1, v)]
    for m in range(1, 5):
        for combo in combinations_with_replacement(parts, m):
            v, k = zip(*combo)
            if sum(v) <= 10:
                for t in (2, 3):
                    if t <= sum(k):
                        yield PartStructure(v, k), t


def test_orbit_pruning_keeps_optimum_and_status(monkeypatch):
    """On a sample of census cases, the search finds the same optimum and
    proves it whenever it does with no atoms, where no sibling is ever
    skipped."""
    draws = random.Random(83).sample(list(_census_cases()), 120)
    pruned = [exact_min(s, t, max_nodes=5_000) for s, t in draws]
    monkeypatch.setattr(search_module, "_refine", lambda atoms, points: [])
    plain = [exact_min(s, t, max_nodes=5_000) for s, t in draws]
    for (s, t), a, b in zip(draws, pruned, plain):
        if b.status == "proven":
            assert (a.optimum, a.status) == (b.optimum, "proven"), (s, t)
        assert oracle.naive_valid(*oracle.as_raw(a.design))
    assert sum(b.nodes > 0 for b in plain) >= 20
    assert sum(a.nodes for a in pruned) < sum(b.nodes for b in plain)


def test_degree_bound_certifies():
    # the point-degree bound of every part proves these minima
    for v, k, t, want in (((6, 6, 6), (3, 3, 3), 3, 20), ((6, 4), (3, 2), 2, 6)):
        r = exact_min(PartStructure(v, k), t)
        assert (r.optimum, r.status) == (want, "proven")
        assert len(r.design) == want
        assert oracle.naive_valid(*oracle.as_raw(r.design))


def _tuples(s, t):
    """The tuple universe in the tables' order: patterns as
    admissible_patterns lists them, tuples in admissible_tuples order."""
    return [T for p in admissible_patterns(s, t) for T in admissible_tuples(s, p)]


def _cands(tb):
    """Every candidate block of tb, in candidate order."""
    return [tb.block(c) for c in range(tb.n_cands)]


def _min_cover_size(tb, uncovered, limit):
    """The fewest candidates of tb whose blocks contain every tuple set in
    uncovered, by plain subset enumeration; None above limit."""
    tuples = _tuples(tb.s, tb.t)
    want = [tuples[j] for j in range(tb.n_tuples) if uncovered >> j & 1]
    holds = [frozenset(j for j, tup in enumerate(want) if oracle.tuple_covered(tup, cand))
             for cand in _cands(tb)]
    useful = [h for h in set(holds) if h]
    for size in range(limit + 1):
        for pick in combinations(useful, size):
            if len(frozenset().union(*pick)) == len(want):
                return size
    return None


def test_remaining_lb_is_sound():
    """remaining_lb never exceeds the fewest blocks covering the uncovered
    tuples, whatever the stopping number."""
    rng = random.Random(71)
    checked = tight = 0
    while checked < 300:
        s = random_structure(rng, v_sum_max=8, m_max=3)
        t = rng.randint(1, min(3, s.k_sum))
        if not 6 <= s.block_count_possible() <= 24:
            continue
        tb = _Tables(s, t)
        for _ in range(5):
            uncovered = sum(1 << j for j in range(tb.n_tuples) if rng.random() < rng.random())
            want = _min_cover_size(tb, uncovered, 5)
            if want is None:
                continue
            for stop in (tb.n_cands + 1, rng.randint(0, want + 1)):
                assert tb.remaining_lb(uncovered, stop) <= want, (s, t, uncovered)
            tight += tb.remaining_lb(uncovered, tb.n_cands + 1) == want
            checked += 1
    assert tight > checked // 2


def test_root_bound_proves_at_zero_nodes():
    # greedy meets the generalized Schönheim bound, so no node is searched
    for r, want in ((exact_min(PartStructure((5, 4), (3, 2)), 3), 12),
                    (certify_classical(9, 4, 3, max_nodes=100_000), 25)):
        assert (r.optimum, r.nodes, r.status) == (want, 0, "proven")
        assert oracle.naive_valid(*oracle.as_raw(r.design))


def test_full_covers_wait_for_the_search(monkeypatch):
    """Greedy reads only its picks' cover masks, and a search that greedy
    proves at the root never builds the list of every candidate's."""
    s = PartStructure((5, 4), (3, 2))
    tb = _Tables(s, 3)
    search_module._greedy(tb)
    assert tb._covers is None

    def refuse(self, deadline=None):
        raise AssertionError("the full cover list was built")

    monkeypatch.setattr(_Tables, "covers", refuse)
    r = exact_min(s, 3)
    assert (r.optimum, r.nodes, r.status) == (12, 0, "proven")


def test_deadline_after_greedy_returns_its_design(monkeypatch, capsys):
    """A deadline that passes once greedy is done stops the build of the
    full cover list, and the search returns greedy's design unproven."""
    s = PartStructure((5, 5), (2, 2))
    want = len(greedy_cover(s, 3))
    assert want > lower_best(s, 3).best_lower  # greedy misses the root bound
    clock = [0.0]
    tables = []
    real_greedy = search_module._greedy

    def greedy_then_late(tb, deadline=None):
        picks = real_greedy(tb, deadline)
        tables.append(tb)
        clock[0] = 1e9
        return picks

    monkeypatch.setattr(search_module.time, "monotonic", lambda: clock[0])
    monkeypatch.setattr(search_module, "_greedy", greedy_then_late)
    r = exact_min(s, 3, timeout=60)
    assert (r.optimum, r.nodes, r.status) == (want, 0, "budget-exhausted")
    assert len(r.design) == want and verify(r.design).valid
    assert tables[0]._covers is None  # stopped in the build, not at the root
    clock[0] = 0.0
    assert main(["search", "--v", "5,5", "--k", "2,2", "--t", "3"]) == 3
    out, err = capsys.readouterr()
    assert "status=budget-exhausted" in err
    assert len(parse_design(out)) == want


def test_timeout_covers_greedy():
    s = PartStructure((5, 5, 5, 5), (2, 2, 2, 2))
    r = exact_min(s, 4, timeout=0)
    assert (r.nodes, r.status) == (0, "budget-exhausted")
    assert verify(r.design).valid
    assert len(r.design) == r.optimum
    # the cheap finish picks the best coverer of the lowest uncovered
    # tuple: 140 blocks against greedy's 142 (the first coverer gave 1,360)
    assert len(r.design) <= 2 * len(greedy_cover(s, 4))
    # about 0.05 s of table build and 0.02 s of greedy to the end, then
    # 0.05 s to build the full cover list for the search
    start = time.monotonic()
    r = exact_min(s, 4, timeout=0.1)
    assert time.monotonic() - start < 0.5
    assert r.status == "budget-exhausted" and verify(r.design).valid


@pytest.mark.parametrize("v, k", [
    ((6,), (3,)),              # one part
    ((3, 2, 3), (1, 1, 1)),    # unit profile
    ((3, 4), (3, 2)),          # a part with k_i = v_i
    ((2, 4, 3), (1, 2, 2)),
])
def test_coverage_tables_match_containment(v, k):
    """Bit j of cover(ci), of covers()[ci] and bit ci of coverers[j] are
    set exactly when candidate ci contains tuple j."""
    s = PartStructure(v, k)
    cands = oracle.all_blocks(v, k)
    for t in range(1, s.k_sum + 1):
        tb = _Tables(s, t)
        tuples = _tuples(s, t)
        assert _cands(tb) == cands
        universe = {tuple(tuple(sorted(x)) for x in T)
                    for p in oracle.patterns(v, k, t) for T in oracle.tuples_for(v, p)}
        assert len(tuples) == tb.n_tuples == len(universe)
        assert set(tuples) == universe
        covers = [0] * len(cands)
        coverers = [0] * len(tuples)
        for j, tup in enumerate(tuples):
            for ci, cand in enumerate(cands):
                if oracle.tuple_covered(tup, cand):
                    covers[ci] |= 1 << j
                    coverers[j] |= 1 << ci
        assert [tb.cover(ci) for ci in range(len(cands))] == covers, (s, t)
        assert tb.covers() == covers, (s, t)
        assert tb.coverers == coverers, (s, t)
        assert tb.maxcov == max(c.bit_count() for c in covers)


def test_part_incidence_matches_containment():
    """For every 0 <= t <= k <= v <= 9: bit j of masks[a] and bit a of
    holders[j] are set exactly when lex k-subset a holds lex t-subset j."""
    for v in range(10):
        points = range(1, v + 1)
        for k in range(v + 1):
            bigs = [set(c) for c in combinations(points, k)]
            for t in range(k + 1):
                subs = [set(c) for c in combinations(points, t)]
                masks = [sum(1 << j for j, sub in enumerate(subs) if sub <= big) for big in bigs]
                holders = [sum(1 << a for a, big in enumerate(bigs) if sub <= big)
                           for sub in subs]
                assert _part_incidence(v, k, [t]) == {t: (masks, holders)}, (v, k, t)


def test_part_incidence_one_build_per_part():
    """One build for several t_i equals the builds for each t_i alone, for
    every 0 <= k <= v <= 10 and every range of t_i, plus random sets."""
    rng = random.Random(43)
    for v in range(11):
        for k in range(v + 1):
            single = {t: _part_incidence(v, k, [t])[t] for t in range(k + 1)}
            sets = [range(lo, hi + 1) for lo in range(k + 1) for hi in range(lo, k + 1)]
            sets += [rng.sample(range(k + 1), rng.randint(1, k + 1)) for _ in range(3)]
            for tis in sets:
                assert _part_incidence(v, k, tis) == {t: single[t] for t in tis}, (v, k, tis)


def test_kron_matches_bits():
    """Bit a * width + b of x (x) y is bit a of x and bit b of y, also for
    ys == [1] at widths above 1."""
    rng = random.Random(37)
    for _ in range(200):
        width = rng.randint(1, 5)
        xs = [rng.randrange(64) for _ in range(rng.randint(1, 3))]
        ys = [1] if rng.random() < 0.3 else [rng.randrange(1 << width) for _ in range(2)]
        want = [sum(1 << a * width + b for a in range(6) for b in range(width)
                    if x >> a & 1 and y >> b & 1) for x in xs for y in ys]
        assert _kron(xs, ys, width) == want, (xs, ys, width)


def test_spread_matches_bits():
    """Spreading moves bit b of each x to bit b * width, for lists of mixed
    bit lengths up to 3,000 bits at widths up to 300; width 1 returns the
    list."""
    rng = random.Random(53)
    for n in range(500):
        width = rng.randint(2, 40) if n < 450 else rng.randint(41, 300)
        size = 200 if n < 450 else 3000
        xs = [rng.getrandbits(rng.randint(0, size)) for _ in range(rng.randint(0, 4))]
        want = [sum(1 << b * width for b in range(x.bit_length()) if x >> b & 1) for x in xs]
        assert _spread(xs, width) == want, (xs, width)
    xs = [5, 0, 3]
    assert _spread(xs, 1) is xs


@pytest.mark.parametrize("v, k", [((6,), (3,)), ((3, 2, 3), (1, 1, 1)), ((2, 4, 3), (1, 2, 2)),
                                  ((5, 4), (4, 3))])
def test_degree_slots_match_containment(v, k):
    """The bound's group 0 holds one point with one slot per pattern p: the
    tuples of p, and the most of them one block covers.  Each part's
    group holds, per point x and pattern p with p_i >= 1, the tuples of p
    whose part-i subset holds x, and the most of them one block through x
    covers."""
    s = PartStructure(v, k)
    for t in range(1, s.k_sum + 1):
        tb = _Tables(s, t)
        tuples = _tuples(s, t)
        pats = oracle.patterns(v, k, t)
        (one, [slots]), *parts = tb._bound_groups
        want = []
        for p in pats:
            mask = sum(1 << j for j, tup in enumerate(tuples) if tuple(map(len, tup)) == p)
            want.append((mask, max((c & mask).bit_count() for c in tb.covers())))
        assert (one, sorted(slots)) == (1, sorted(want)), (s, t)
        for i, (ki, points) in enumerate(parts):
            assert ki == k[i] and len(points) == v[i]
            for x, slots in enumerate(points, start=1):
                want = []
                for p in pats:
                    if p[i]:
                        mask = sum(1 << j for j, tup in enumerate(tuples)
                                   if tuple(map(len, tup)) == p and x in tup[i])
                        through = [c for c in _cands(tb) if x in c[i]]
                        cap = max(sum(1 for tup in tuples if tuple(map(len, tup)) == p
                                      and x in tup[i] and oracle.tuple_covered(tup, c))
                                  for c in through)
                        want.append((mask, cap))
                assert sorted(slots) == sorted(want), (s, t, i, x)


def test_search_designs_share_blocks():
    s = PartStructure((5, 5), (2, 2))
    a, b = greedy_cover(s, 2), greedy_cover(s, 2)
    assert a.blocks == b.blocks
    assert all(x is y for x, y in zip(a.blocks, b.blocks))
    r1, r2 = exact_min(s, 2), exact_min(s, 2)
    assert r1.nodes > 0  # the design comes from the search, not from greedy
    assert all(x is y for x, y in zip(r1.design.blocks, r2.design.blocks))


# greedy_cover on the structures of the cover-greedy benchmark and on two
# covering arrays, pinned as (block count, first 16 hex digits of the
# SHA-256 of emit_design).
GREEDY_PINNED = [
    ((8, 6), (4, 3), 4, 84, "23346834a4052dac"),
    ((5, 5, 5), (2, 2, 2), 3, 39, "2d6a0a57796a7397"),
    ((6, 6, 6), (2, 2, 2), 2, 21, "68e6fe7efa68d909"),
    ((4, 4, 4, 4, 4), (1, 1, 1, 1, 1), 2, 16, "e8863513e2022db4"),
    ((12,), (6,), 3, 15, "e8e4c14f5b2a0549"),
    ((1, 3, 5, 5), (1, 1, 2, 2), 4, 108, "45f902009f0f163f"),
    # Covering arrays: many unit parts, where the spread masks are widest.
    ((3,) * 12, (1,) * 12, 2, 21, "d72b2a969c7361d0"),
    ((2,) * 16, (1,) * 16, 3, 24, "dd0d301522359948"),
]


@pytest.mark.parametrize("v, k, t, count, digest", GREEDY_PINNED)
def test_greedy_cover_pinned(v, k, t, count, digest):
    d = greedy_cover(PartStructure(v, k), t)
    assert len(d) == count
    assert hashlib.sha256(emit_design(d).encode()).hexdigest()[:16] == digest


def test_greedy_cover_always_valid():
    rng = random.Random(59)
    for _ in range(30):
        s = random_structure(rng, v_sum_max=9, m_max=3)
        t = rng.randint(0, min(3, s.k_sum))
        d = greedy_cover(s, t)
        assert verify(d).valid
        v, k, tt, blocks, lam = oracle.as_raw(d)
        assert oracle.naive_valid(v, k, tt, blocks, lam)


def _rescan_greedy(tb, cheap):
    """greedy's picks by a full rescan of every candidate per pick: the
    first candidate covering the most uncovered tuples or, if cheap, the
    first such coverer of the lowest uncovered tuple."""
    uncovered = (1 << tb.n_tuples) - 1
    chosen = []
    while uncovered:
        lowest = (uncovered & -uncovered).bit_length() - 1
        pool = [c for c in range(tb.n_cands) if not cheap or tb.coverers[lowest] >> c & 1]
        gain = {c: (tb.covers()[c] & uncovered).bit_count() for c in pool}
        ci = min(pool, key=lambda c: (-gain[c], c))
        chosen.append(ci)
        uncovered &= ~tb.covers()[ci]
    return chosen


def test_greedy_picks_match_full_rescan():
    rng = random.Random(97)
    for _ in range(40):
        s = random_structure(rng, v_sum_max=10, m_max=4)
        t = rng.randint(1, min(4, s.k_sum))
        tb = _Tables(s, t)
        assert search_module._greedy(tb) == _rescan_greedy(tb, False), (s, t)
        # a spent deadline runs the cheap finish from the first pick
        assert search_module._greedy(tb, 0) == _rescan_greedy(tb, True), (s, t)


def _listed_incidence(v, k, t):
    """_part_incidence's tables for one t, by listing each lex k-subset's
    t-subsets and looking up their lex ranks."""
    ranks = {c: j for j, c in enumerate(combinations(range(v), t))}
    masks, holders = [], [0] * len(ranks)
    for a, big in enumerate(combinations(range(v), k)):
        js = [ranks[c] for c in combinations(big, t)]
        masks.append(sum(1 << j for j in js))
        for j in js:
            holders[j] |= 1 << a
    return masks, holders


def test_part_incidence_matches_listed_containment():
    """For every 0 <= t <= k <= v <= 14, one t at a time and every t at
    once, the tables equal those listed from each k-subset's t-subsets;
    on larger parts, k > v/2 among them, so do 20 random rows of masks
    and of holders."""
    for v in range(15):
        for k in range(v + 1):
            listed = {t: _listed_incidence(v, k, t) for t in range(k + 1)}
            for t in range(k + 1):
                assert _part_incidence(v, k, [t]) == {t: listed[t]}, (v, k, t)
            assert _part_incidence(v, k, range(k + 1)) == listed, (v, k)
    rng = random.Random(38)
    for v, k, tis in [(18, 9, {3}), (16, 4, {2}), (30, 2, {0, 1, 2}), (20, 10, {2, 4}),
                      (20, 16, {2, 4}), (22, 15, {1})]:
        got = _part_incidence(v, k, tis)
        bigs = list(combinations(range(v), k))
        big_ranks = {big: a for a, big in enumerate(bigs)}
        for t in tis:
            subs = list(combinations(range(v), t))
            sub_ranks = {sub: j for j, sub in enumerate(subs)}
            masks, holders = got[t]
            assert (len(masks), len(holders)) == (len(bigs), len(subs)), (v, k, t)
            for a in rng.sample(range(len(bigs)), min(20, len(bigs))):
                want = sum(1 << sub_ranks[c] for c in combinations(bigs[a], t))
                assert masks[a] == want, (v, k, t, a)
            for j in rng.sample(range(len(subs)), min(20, len(subs))):
                others = sorted(set(range(v)) - set(subs[j]))
                want = bytearray(len(bigs) // 8 + 1)
                for c in combinations(others, k - t):
                    a = big_ranks[tuple(sorted(subs[j] + c))]
                    want[a >> 3] |= 1 << (a & 7)
                assert holders[j] == int.from_bytes(want, "little"), (v, k, t, j)


def test_part_incidence_stops_at_a_spent_deadline():
    with pytest.raises(BudgetExhausted):
        _part_incidence(18, 9, [3], deadline=time.monotonic() - 1)


# exact_min's (max_nodes, optimum, nodes, status, SHA-256 of emit_design)
# at t = 2 under node budgets around the clock reads and the full search,
# recorded when each node was still bounded on entry.
BUDGET_PINNED = [
    ((10,), (4,), [
        (0, 9, 0, "budget-exhausted", "7de66e4a87af18a8"),
        (1, 9, 1, "budget-exhausted", "7de66e4a87af18a8"),
        (2, 9, 2, "budget-exhausted", "7de66e4a87af18a8"),
        (63, 9, 63, "budget-exhausted", "7de66e4a87af18a8"),
        (64, 9, 64, "budget-exhausted", "7de66e4a87af18a8"),
        (65, 9, 65, "budget-exhausted", "7de66e4a87af18a8"),
        (186, 9, 186, "budget-exhausted", "7de66e4a87af18a8"),
        (187, 9, 187, "proven", "7de66e4a87af18a8"),
        (188, 9, 187, "proven", "7de66e4a87af18a8")]),
    ((4, 4, 4), (2, 2, 2), [
        (0, 8, 0, "budget-exhausted", "95420c9059453b65"),
        (1, 8, 1, "budget-exhausted", "95420c9059453b65"),
        (2, 8, 2, "budget-exhausted", "95420c9059453b65"),
        (63, 8, 63, "budget-exhausted", "95420c9059453b65"),
        (64, 8, 64, "budget-exhausted", "95420c9059453b65"),
        (65, 8, 65, "budget-exhausted", "95420c9059453b65"),
        (186, 7, 186, "budget-exhausted", "1b96ecbce750a6c1"),
        (187, 7, 187, "budget-exhausted", "1b96ecbce750a6c1"),
        (188, 7, 188, "budget-exhausted", "1b96ecbce750a6c1")]),
    ((4, 2, 2), (2, 1, 1), [
        (0, 7, 0, "budget-exhausted", "dd6e06c335c6e1a5"),
        (1, 7, 1, "budget-exhausted", "dd6e06c335c6e1a5"),
        (2, 7, 2, "budget-exhausted", "dd6e06c335c6e1a5"),
        (63, 6, 27, "proven", "f97e2c94dcefbade"),
        (64, 6, 27, "proven", "f97e2c94dcefbade"),
        (65, 6, 27, "proven", "f97e2c94dcefbade"),
        (186, 6, 27, "proven", "f97e2c94dcefbade"),
        (187, 6, 27, "proven", "f97e2c94dcefbade"),
        (188, 6, 27, "proven", "f97e2c94dcefbade")]),
]


@pytest.mark.parametrize("v, k, rows", BUDGET_PINNED)
def test_node_budget_pinned(v, k, rows):
    """A parent counts and bounds each child in its own loop; the node
    count, the budget check before each count and the best design found
    are what they were when a child did both on entry."""
    for max_nodes, optimum, nodes, status, digest in rows:
        r = exact_min(PartStructure(v, k), 2, max_nodes=max_nodes, timeout=1e5)
        got = (r.optimum, r.nodes, r.status,
               hashlib.sha256(emit_design(r.design).encode()).hexdigest()[:16])
        assert got == (optimum, nodes, status, digest), max_nodes
