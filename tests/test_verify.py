"""Coverage verification against the naive oracle."""

import itertools
import random
import sys
import tracemalloc
from math import comb

import numpy as np
import pytest

import naive_oracle as oracle
from fixture_designs import cover_852, fano, hadamard_base, mixed_422, prod_b, strength2_fixtures
import gencov.cli as cli
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
    check_clique_cover,
    check_multipartite_cover,
    construct_minimax,
    coverage_deficit,
    emit_design,
    exact_min,
    from_covering_array,
    greedy_classical_cover,
    greedy_cover,
    make_block,
    product_hadamard,
    prune_redundant,
    verify,
)
from gencov.io import parse_label_arrays
from gencov.verify import PATTERN_TUPLE_CAP, _part_labels
from cli_routes import run_verify, verify_routes
from util_random import mutate_design, random_block, random_structure, random_valid_design

VERIFY = sys.modules["gencov.verify"]  # gencov.verify is the function


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


# ------------------------------------------------- one size rule per count

def test_one_pattern_walk_per_count(tmp_path, monkeypatch):
    """verify, coverage_deficit, `gencov verify` on its label-array route
    and a greedy-drop prune each walk the patterns once: the size rule's
    list is made once and passed through the flow, and a prune's one
    list serves its input check and every trial."""
    walks, reports = [], []
    walk, deficits = VERIFY._walk_patterns, VERIFY._deficits
    monkeypatch.setattr(VERIFY, "_walk_patterns", lambda s, t: walks.append(1) or walk(s, t))
    monkeypatch.setattr(VERIFY, "_deficits", lambda *args: reports.append(1) or deficits(*args))
    d = prod_b()
    path = tmp_path / "d.gcd"
    path.write_text(emit_design(d))
    assert parse_label_arrays(path.read_text()) is not None
    for call in (verify, coverage_deficit, lambda d: run_verify(path),
                 lambda d: prune_redundant(d, greedy_drop=True)):
        walks.clear()
        reports.clear()
        call(d)
        assert len(walks) == 1
    assert len(reports) == 1 + len(d.blocks) >= 6  # the input check, then one per trial


def kleitman_spencer(m):
    """The first m of the 210 columns of the binary strength-2 covering
    array of Kleitman and Spencer (Discrete Math. 6, 1973), 11 rows: an
    all-zero row, and for columns the distinct weight-6 vectors of length
    10.  Two such supports meet in at least 2 points and neither holds
    the other, so every pair of columns shows 00, 01, 10 and 11."""
    cols = [[0] + [int(i in c) for i in range(10)] for c in itertools.combinations(range(10), 6)]
    return [list(row) for row in zip(*cols[:m])]


def test_many_columns_match_the_oracle_and_the_clique_cover():
    """On 40 columns, 780 patterns, verify and coverage_deficit agree
    with the naive oracle and the join graph's clique-cover check, whole
    and with each of two rows dropped."""
    d = from_covering_array(kleitman_spencer(40))
    s = d.structure
    assert (s.v, s.k, len(d.blocks)) == ((2,) * 40, (1,) * 40, 11)
    assert verify(d).valid
    for dd in (d, drop_block(d, 0), drop_block(d, 7)):
        assert_matches_oracle(dd)
        assert verify(dd).valid == check_clique_cover(s, dd)


def test_many_columns_verify_from_the_converted_file(tmp_path):
    """`gencov verify` on the file `gencov convert ca2gc` writes of the
    150-column array prints what verify reports: C(150, 2) patterns of 4
    tuples each."""
    rows = kleitman_spencer(150)
    array, path = tmp_path / "ks.txt", tmp_path / "ks.gcd"
    array.write_text("".join(" ".join(map(str, row)) + "\n" for row in rows))
    assert cli.main(["convert", "ca2gc", str(array), "-o", str(path)]) == 0
    rep = verify(from_covering_array(rows))
    assert rep == VerificationReport(valid=True, checked_patterns=11175, checked_tuples=44700,
                                     first_uncovered=None, deficient_count=0)
    assert parse_label_arrays(path.read_text()) is not None
    printed = "valid: yes\nchecked patterns: 11175\nchecked tuples: 44700\n"
    assert run_verify(path) == (0, printed, "")


# ------------------------------------------------------ the counter choice

def counters(s, t, blocks):
    """The counter _setups takes for each pattern of blocks at strength t."""
    patterns = VERIFY._patterns(s, t)
    labels = VERIFY._block_labels(s, patterns, blocks)
    return {p: count.__name__ for p, (count, _) in VERIFY._setups(s, patterns, labels)}


def with_unit_part(rng, s):
    """s, or s with one part's profile set to 1."""
    i = rng.randrange(s.m)
    return PartStructure(s.v, s.k[:i] + (1,) + s.k[i + 1:]) if rng.random() < 0.5 else s


@pytest.mark.parametrize("chunk, incidence", [(None, None), (1, 1), (7, 5)])
def test_gram_and_rank_counts_agree(chunk, incidence, monkeypatch):
    """On random structures with unit parts, repeated blocks and a block
    dropped, both counters give equal count arrays, of one dtype, for
    every strength-2 pattern, over all blocks and over a subset of rows,
    and so equal reports at lambda 1 to 3.  Small chunks take C a row
    and the blocks a few at a time, so the chunks' products add up."""
    if chunk:
        monkeypatch.setattr(VERIFY, "_CHUNK", chunk)
        monkeypatch.setattr(VERIFY, "_INCIDENCE_CHUNK", incidence)
    rng = random.Random(47)
    drawn = 0
    while drawn < 60:
        s = with_unit_part(rng, random_structure(rng, v_sum_max=12, m_max=4))
        if s.k_sum < 2:
            continue
        blocks = [random_block(rng, s) for _ in range(rng.randint(1, 30))]
        blocks = blocks * rng.randint(1, 3) + blocks[:rng.randint(0, 3)]
        del blocks[rng.randrange(len(blocks))]
        patterns = VERIFY._patterns(s, 2)
        labels = VERIFY._block_labels(s, patterns, tuple(blocks))
        rows = sorted(rng.sample(range(len(blocks)), rng.randint(0, len(blocks))))
        for p, n_tuples in patterns:
            gram = VERIFY._gram_setup(labels, s, p, n_tuples)
            rank = VERIFY._rank_setup(labels, s, p, n_tuples)
            for pick in (None, np.array(rows, dtype=np.intp)):
                want = VERIFY._rank_counts(rank, pick)
                got = VERIFY._gram_counts(gram, pick)
                assert got.dtype == want.dtype and got.tolist() == want.tolist(), (s, p)
        lam = rng.randint(1, 3)
        assert (VERIFY._report(s, patterns, VERIFY._setups(s, patterns, labels), lam, rows)
                == VERIFY._report(s, patterns, VERIFY._setups(s, patterns, labels, gram=False),
                                  lam, rows))
        drawn += 1


def gram_designs():
    """The strength-2 fixtures, each also missing its first block, and
    random strength-2 designs, some damaged."""
    out = []
    for name, d in strength2_fixtures():
        out += [d, drop_block(d, 0)]
    rng = random.Random(53)
    while len(out) < 60:
        d = random_valid_design(rng, v_sum_max=9, strengths=(2,))
        if d.t == 2:
            out.append(mutate_design(rng, d) if rng.random() < 0.5 else d)
    return out


def test_gram_counts_match_the_oracle_and_the_graph_checks(monkeypatch):
    """verify and coverage_deficit agree with the naive oracle at lambda 1
    and 2, and with the join graph's clique-cover and multipartite checks,
    on designs whose patterns are counted, mostly or all, by Gram products.
    At lambda 2 each block is doubled, so a design covers twice iff it
    covers once."""
    grams = []
    gram_counts = VERIFY._gram_counts
    monkeypatch.setattr(VERIFY, "_gram_counts",
                        lambda *args: grams.append(1) or gram_counts(*args))
    for d in gram_designs():
        s = d.structure
        twice = Design(s, 2, d.blocks * 2, lam=2)
        for dd in (d, twice):
            assert_matches_oracle(dd)
            assert verify(dd).valid == check_clique_cover(s, d) == check_multipartite_cover(s, d)
    assert len(grams) > 100


def hadamard_fourth_power():
    d = hadamard_base()
    for _ in range(3):
        d = product_hadamard(d, hadamard_base())
    return d


def test_counter_choice():
    """Dense patterns take the Gram product and sparse ones the ranks:
    each block of (1000)/(5) holds 10 of its 499,500 pairs, and one block
    of (4096)/(2) one of 8,386,560, while the Hadamard powers and the
    minimax lift of (5,6,7)/(3,4,3) are dense.  At t = 3 every pattern is
    ranked, and so is every trial of a prune."""
    rng = random.Random(59)
    sparse = PartStructure((1000,), (5,))
    blocks = tuple(make_block(sparse, [rng.sample(range(1, 1001), 5)]) for _ in range(20_000))
    assert counters(sparse, 2, blocks) == {(2,): "_rank_counts"}
    d = one_block((4096,), (2,), [[1, 2]])
    assert counters(d.structure, 2, d.blocks) == {(2,): "_rank_counts"}
    for d in (hadamard_fourth_power(), hadamard_fifth_power()):
        assert set(counters(d.structure, 2, d.blocks).values()) == {"_gram_counts"}
    lift = construct_minimax(PartStructure((5, 6, 7), (3, 4, 3)))
    assert set(counters(lift.structure, 2, lift.blocks).values()) == {"_gram_counts"}
    assert set(counters(lift.structure, 3, lift.blocks).values()) == {"_rank_counts"}
    patterns = VERIFY._patterns(lift.structure, 2)
    labels = VERIFY._block_labels(lift.structure, patterns, lift.blocks)
    ranked = VERIFY._setups(lift.structure, patterns, labels, gram=False)
    assert {count.__name__ for _, (count, _) in ranked} == {"_rank_counts"}


def test_gram_products_sum_fewer_than_2_24_blocks(monkeypatch):
    """float32 sums of 0/1 products are exact below 2^24, so each product
    takes a chunk of fewer than 2^24 blocks, whatever the part sizes, and
    the chunks' products are added as integers: with one block a chunk,
    300 copies of a block count to 300, past one byte."""
    assert VERIFY._INCIDENCE_CHUNK < 1 << 24
    built = []
    incidence = VERIFY._incidence
    monkeypatch.setattr(VERIFY, "_incidence",
                        lambda labels, v: built.append(len(labels)) or incidence(labels, v))
    monkeypatch.setattr(VERIFY, "_INCIDENCE_CHUNK", 1)
    for lam in (300, 301):
        d = Design(MULTI, 2, (MULTI_BLOCK,) * 300 + MULTI_OTHERS, lam)
        assert set(counters(MULTI, 2, d.blocks).values()) == {"_gram_counts"}
        assert_matches_oracle(d)
    assert set(built) == {1}
