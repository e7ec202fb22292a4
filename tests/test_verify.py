"""Coverage verification against the naive oracle."""

import itertools
import random
import sys
import tracemalloc
from math import comb

import pytest

import naive_oracle as oracle
from fixture_designs import cover_852, fano, hadamard_base, mixed_422, strength2_fixtures
from gencov import (
    CandidateSpaceTooLarge,
    Design,
    GencovError,
    NonPositiveEntry,
    PartStructure,
    PlaceholderDesign,
    PlaceholdersPresent,
    UniverseTooLarge,
    VerificationReport,
    construct_minimax,
    coverage_deficit,
    emit_design,
    exact_min,
    greedy_classical_cover,
    greedy_cover,
    make_block,
    product_hadamard,
    prune_redundant,
    verify,
)
from gencov.io import parse_label_arrays
from gencov.verify import PATTERN_TUPLE_CAP, _part_labels
from cli_routes import verify_routes
from util_random import mutate_design, random_block, random_structure, random_valid_design


def drop_block(d, r):
    return Design(d.structure, d.t, d.blocks[:r] + d.blocks[r + 1:], d.lam)


def test_fixtures_valid():
    for name, d in strength2_fixtures():
        rep = verify(d)
        assert rep.valid, name
        assert bool(rep)
        assert rep.first_uncovered is None
        assert rep.deficient_count == 0


def test_part_labels_are_the_blocks_labels():
    """The label arrays hold the labels as the blocks write them."""
    for _, d in strength2_fixtures():
        s = d.structure
        assert ([lab.tolist() for lab in _part_labels(s, d.blocks)]
                == [[list(b[i]) for b in d.blocks] for i in range(s.m)])


def test_report_counts():
    d = mixed_422()
    rep = verify(d)
    assert rep.checked_patterns == 4
    # C(4,2) + 4*2 + 4*2 + 2*2 obligations
    assert rep.checked_tuples == 6 + 8 + 8 + 4


def test_first_uncovered_order():
    rep = verify(drop_block(fano(), 0))
    assert not rep.valid
    assert rep.first_uncovered == ((1, 2),)
    rep = verify(drop_block(mixed_422(), 5))
    assert rep.first_uncovered == ((3, 4), (), ())
    assert rep.deficient_count == 2


def test_strength_zero_trivially_valid():
    s = PartStructure((4, 3), (2, 1))
    assert verify(Design(s, 0)).valid
    assert verify(Design(s, 0)).checked_tuples == 0


@pytest.mark.parametrize("t", [2, 0])
def test_placeholder_design_is_refused(t):
    pd = construct_minimax(PartStructure((5, 6, 7), (3, 4, 3)), greedy_classical_cover(7, 3, 2),
                           keep_placeholders=True)
    pd = PlaceholderDesign(pd.structure, t, pd.blocks)
    for call in (verify, coverage_deficit, prune_redundant):
        with pytest.raises(PlaceholdersPresent, match="PlaceholderDesign"):
            call(pd)


def test_lambda_two():
    assert not verify(Design(fano().structure, 2, fano().blocks, lam=2)).valid
    doubled = fano().blocks + fano().blocks
    assert verify(Design(fano().structure, 2, doubled, lam=2)).valid


def test_coverage_deficit():
    d = drop_block(mixed_422(), 5)
    deficit = coverage_deficit(d)
    assert (((3, 4), (), ()), 0) in deficit
    assert len(deficit) == 2
    assert coverage_deficit(d, cap=1) == deficit[:1]
    assert coverage_deficit(mixed_422()) == []


def test_coverage_deficit_bad_cap():
    for cap in (0, -1):
        with pytest.raises(NonPositiveEntry):
            coverage_deficit(mixed_422(), cap=cap)


def assert_matches_oracle(d):
    v, k, t, blocks, lam = oracle.as_raw(d)
    rep = verify(d)
    missed = oracle.naive_uncovered(v, k, t, blocks, lam)
    assert rep.valid == oracle.naive_valid(v, k, t, blocks, lam)
    assert rep.deficient_count == len(missed)
    # gencov's order: patterns with larger leading entries first, then
    # tuples ascending within a pattern.
    missed.sort(key=lambda pT: (tuple(-x for x in pT[0]), pT[1]))
    assert rep.first_uncovered == (missed[0][1] if missed else None)
    hits = [sum(oracle.tuple_covered(T, B) for B in blocks) for _, T in missed]
    deficit = coverage_deficit(d)
    assert deficit == [(T, h) for (_, T), h in zip(missed, hits)]
    # the report and coverage_deficit read one walk
    assert rep.first_uncovered == (deficit[0][0] if deficit else None)
    assert rep.deficient_count == len(deficit)


def test_matches_oracle_randomized():
    rng = random.Random(23)
    for _ in range(90):
        d = random_valid_design(rng, v_sum_max=8)
        lam = rng.choice((1, 2, 3))
        d = Design(d.structure, d.t, d.blocks * rng.randint(1, lam), lam)
        if rng.random() < 0.5:
            d = mutate_design(rng, d)
        assert_matches_oracle(d)


MULTI = PartStructure((4, 3), (2, 1))
MULTI_BLOCK = ((1, 2), (1,))
# Each shares a sub-tuple with MULTI_BLOCK, so some count passes the copies.
MULTI_OTHERS = (((1, 2), (2,)), ((1, 3), (1,)), ((3, 4), (3,)))


@pytest.mark.parametrize("copies,lam", [
    (c, lam) for c in (255, 256, 300) for lam in (1, 255, 256, 300, 301)
] + [(0, 256), (0, 257), (0, 300)])
def test_counts_hold_every_multiplicity(copies, lam):
    """Counts are kept in the smallest type that holds the block count;
    around 256 blocks a type one size too small, or a lambda cast to the
    count type, would wrap."""
    d = Design(MULTI, 2, (MULTI_BLOCK,) * copies + MULTI_OTHERS, lam)
    assert_matches_oracle(d)
    assert coverage_deficit(d, cap=3) == coverage_deficit(d)[:3]


def test_slot_columns_enumerate_combinations():
    slot_columns = sys.modules["gencov.verify"]._slot_columns
    for k in range(1, 10):
        for t in range(1, k + 1):
            want = list(itertools.combinations(range(k), t))
            cols = slot_columns(k, t)
            assert len(cols) == t
            for j, col in enumerate(cols):
                assert col.tolist() == [c[j] for c in want], (k, t, j)


@pytest.mark.parametrize("chunk", [1, 7, None])
def test_wide_gathers_match_oracle(chunk, monkeypatch):
    """Shapes the randomized corpus (t <= 2) never draws: pattern (4, 0)
    gathers four columns of one part, and pattern (0, 1, 1, 1) mixes three
    parts of which the first is part 2."""
    if chunk:
        monkeypatch.setattr(sys.modules["gencov.verify"], "_CHUNK", chunk)
    rng = random.Random(29)
    for v, k, t in [((6, 3), (4, 1), 4), ((4, 3, 3, 3), (2, 1, 1, 1), 3)]:
        s = PartStructure(v, k)
        d = Design(s, t, tuple(random_block(rng, s) for _ in range(24)), lam=2)
        assert_matches_oracle(d)


@pytest.mark.parametrize("chunk", [1, 7])
def test_chunking_does_not_change_counts(chunk, monkeypatch):
    d = drop_block(cover_852(), 2)
    d = Design(d.structure, d.t, d.blocks, lam=2)
    want = (verify(d), coverage_deficit(d))
    # the package's `verify` attribute is the function, not the module
    monkeypatch.setattr(sys.modules["gencov.verify"], "_CHUNK", chunk)
    assert (verify(d), coverage_deficit(d)) == want


@pytest.mark.parametrize("chunk", [1, 7, 64])
def test_small_chunks_match_oracle(chunk, monkeypatch):
    """Multi-part designs at strengths 2 and 3, counted in chunks of fewer
    blocks than they hold, most with a partial last chunk: each chunk's
    slot-0 repeat and gathers must meet the same counts."""
    monkeypatch.setattr(sys.modules["gencov.verify"], "_CHUNK", chunk)
    rng = random.Random(43)
    drawn = 0
    while drawn < 12:
        s = random_structure(rng, v_sum_max=9, m_max=3)
        t = 2 + drawn % 2
        if s.m < 2 or s.k_sum < t:
            continue
        blocks = tuple(random_block(rng, s) for _ in range(rng.randint(20, 37)))
        assert_matches_oracle(Design(s, t, blocks, lam=rng.choice((1, 2))))
        drawn += 1


def test_universe_guard_raises_before_allocating():
    """C(10000, 5) tuples would need exabytes of counts; the pattern's
    size is checked before any array is made."""
    s = PartStructure((10000,), (5,))
    d = Design(s, 5, (make_block(s, [[1, 2, 3, 4, 5]]),))
    with pytest.raises(GencovError, match="above cap"):
        verify(d)
    with pytest.raises(GencovError, match="above cap"):
        coverage_deficit(d)


HUGE = 10 ** 20  # labels that do not fit in int64


def cap_designs(t):
    """One-block designs whose patterns are over PATTERN_TUPLE_CAP at
    t >= 1: (2^40,)/(2,), whose labels fit in int64, at t = 2, and
    (10^20,)/(1,), whose labels do not, at t."""
    wide, huge = PartStructure((1 << 40,), (2,)), PartStructure((HUGE,), (1,))
    return [Design(wide, 2, (((1, 1 << 40),),)), Design(huge, t, (((HUGE - 1,),),))]


def traced_peak(call, *args):
    """(what call(*args) returns or raises, the peak memory it traced)."""
    verify(fano())  # imports numpy outside the traced region
    tracemalloc.start()
    try:
        try:
            got = call(*args)
        except UniverseTooLarge as e:
            got = e
        return got, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("call", [verify, coverage_deficit, prune_redundant])
def test_tuple_cap_is_checked_before_labels_are_built(call):
    """Each over-cap design raises UniverseTooLarge, the 10^20 ones too,
    and without memory in proportion to the universe.  The zero-block
    (10^20,)/(10^20,) design at t = 10^20 has one pattern of one tuple,
    but of 10^20 labels."""
    whole = Design(PartStructure((HUGE,), (HUGE,)), HUGE, ())
    for d in cap_designs(1) + [whole]:
        got, peak = traced_peak(call, d)
        assert isinstance(got, UniverseTooLarge), d
        assert f"above cap {PATTERN_TUPLE_CAP}" in str(got)
        assert peak < 1 << 20


@pytest.mark.parametrize("call, error", [
    (verify, UniverseTooLarge),
    (coverage_deficit, UniverseTooLarge),
    (prune_redundant, UniverseTooLarge),
    (lambda d: greedy_cover(d.structure, d.t), CandidateSpaceTooLarge),
    (lambda d: exact_min(d.structure, d.t), CandidateSpaceTooLarge),
], ids=["verify", "coverage_deficit", "prune_redundant", "greedy_cover", "exact_min"])
def test_patterns_are_refused_before_they_are_all_listed(call, error):
    """(2^11, 2^11)/(2^11, 2^11) at t = 2^11 has 2049 patterns, and its
    second is past verify's cap and its third past the search's.  Each
    refusal comes before the rest are made, in a few KB whatever the
    exponent; listing the patterns first takes about 140 KB, and sizing
    them all, as the search did, 1.1 MB."""
    n = 1 << 11
    d = Design(PartStructure((n, n), (n, n)), n, ())
    verify(fano())  # imports numpy outside the traced region
    tracemalloc.start()
    try:
        with pytest.raises(error):
            call(d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16


def test_strength_zero_builds_no_labels():
    """At t = 0 there are no patterns, so labels that do not fit in int64
    are never built, and the design is valid."""
    d = cap_designs(0)[1]
    rep, peak = traced_peak(verify, d)
    assert rep.valid and (rep.checked_patterns, rep.checked_tuples) == (0, 0)
    assert peak < 1 << 20
    assert coverage_deficit(d) == []
    assert prune_redundant(d) == d


def test_counter_memory_is_bounded():
    """The Hadamard 5th power's largest pattern, (0, 2), has C(1024, 2) =
    523,776 tuples; one verify peaks below a single int64 count array of
    that size, since its 243 blocks are counted in one byte a tuple."""
    d = hadamard_fifth_power()
    verify(fano())  # imports numpy outside the traced region
    tracemalloc.start()
    try:
        rep = verify(d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.valid and rep.checked_tuples == 802_011
    assert peak < 8 * 523_776


def one_block(v, k, block, t=2):
    s = PartStructure(v, k)
    return Design(s, t, (make_block(s, block),))


def test_walk_stops_at_the_cap(monkeypatch):
    """(60, 2000)/(2, 2) at t = 2 with one block: its first pattern, (2, 0),
    has 1769 deficient tuples, so the walk stops there and the other two
    patterns, 2,119,000 tuples, are never counted; the checked totals
    still describe the whole universe."""
    d = one_block((60, 2000), (2, 2), [[1, 2], [1, 2]])
    module = sys.modules["gencov.verify"]
    calls = []
    counts = module._pattern_counts
    monkeypatch.setattr(module, "_pattern_counts",
                        lambda *args: calls.append(1) or counts(*args))
    rep = verify(d)
    assert rep == VerificationReport(valid=False, checked_patterns=3, checked_tuples=2120770,
                                     first_uncovered=((1, 3), ()), deficient_count=1000)
    assert len(calls) == 1
    deficit = coverage_deficit(d)
    assert len(calls) == 2
    assert (deficit[0][0], len(deficit)) == (rep.first_uncovered, rep.deficient_count)
    pairs = (T for T in itertools.combinations(range(1, 61), 2) if T != (1, 2))
    assert deficit == [((T, ()), 0) for T in itertools.islice(pairs, 1000)]


def test_coverage_deficit_memory_is_bounded():
    """(4096)/(2) at t = 2 with one block has C(4096, 2) = 8,386,560 tuples
    counted in one byte each; listing the first 1000 deficient ones builds
    no index array of all of them, so the peak stays under 3 bytes a
    tuple."""
    d = one_block((4096,), (2,), [[1, 2]])
    n_tuples = 4096 * 4095 // 2
    for call in (coverage_deficit, verify):
        got, peak = traced_peak(call, d)
        assert not isinstance(got, UniverseTooLarge)
        assert peak < 3 * n_tuples, call


@pytest.mark.parametrize("call", [verify, coverage_deficit])
def test_size_rule_comes_before_the_walk(call):
    """(2000, 16384)/(2, 2) at t = 2 with one block: the first pattern alone
    has over 1000 deficient tuples, where the walk would stop, but the
    last, C(16384, 2) tuples, is over the cap, and the size rule refuses
    it before any count."""
    d = one_block((2000, 16384), (2, 2), [[1, 2], [1, 2]])
    assert comb(16384, 2) > PATTERN_TUPLE_CAP
    with pytest.raises(UniverseTooLarge, match=f"above cap {PATTERN_TUPLE_CAP}"):
        call(d)


def hadamard_fifth_power():
    d = hadamard_base()
    for _ in range(4):
        d = product_hadamard(d, hadamard_base())
    return d


def routes_on(d, tmp_path, monkeypatch):
    """verify_routes on d written out, which the verify load reads as
    label arrays."""
    path = tmp_path / "d.gcd"
    path.write_text(emit_design(d))
    assert parse_label_arrays(path.read_text()) is not None
    return verify_routes(path, monkeypatch)


@pytest.mark.parametrize("d", [pytest.param(d, id=name) for name, d in strength2_fixtures()])
def test_loaded_design_counts_as_its_blocks(d, tmp_path, monkeypatch):
    for d in (d, drop_block(d, 0), Design(d.structure, d.t, d.blocks, lam=2)):
        loaded, fallback = routes_on(d, tmp_path, monkeypatch)
        assert loaded == fallback
        assert loaded[0] == (0 if verify(d).valid else 1)


def test_loaded_hadamard_power_counts_as_its_blocks(tmp_path, monkeypatch):
    d = drop_block(hadamard_fifth_power(), 100)
    loaded, fallback = routes_on(d, tmp_path, monkeypatch)
    assert loaded == fallback
    rep = verify(d)
    assert not rep.valid and loaded[0] == 1
    assert f"deficient tuples: {rep.deficient_count}" in loaded[1]
