"""Single-design constructions and transformations."""

import itertools
import random
import sys

import numpy as np
import pytest

import gencov.core
import naive_oracle as oracle
from fixture_designs import (
    MINIMAX_567_RAW,
    build,
    fano,
    minimax_567,
    mixed_422,
)
from gencov import (
    STAR,
    BasePartTooSmall,
    DegenerateRestriction,
    Design,
    EmptyIndexSet,
    InvalidInput,
    LabelOutOfRange,
    LengthMismatch,
    NonPositiveEntry,
    ParameterOrderViolated,
    PartStructure,
    PlaceholderDesign,
    PlaceholdersPresent,
    ProfileBelowTwo,
    ProfileExceedsPart,
    StrengthNotTwo,
    StrengthTooLarge,
    StructureMismatch,
    TargetBelowProfile,
    TargetExceedsPart,
    UnitProfilePart,
    add_full_parts,
    admissible_patterns,
    amalgamate,
    check_clique_cover,
    check_multipartite_cover,
    construct_minimax,
    cover_t1,
    delete_points,
    drop_full_parts,
    expand_blocks,
    expand_equivalent,
    greedy_classical_cover,
    greedy_cover,
    lower_t1,
    make_block,
    product_concat,
    product_concat_improved,
    product_hadamard,
    prune_redundant,
    reduce_equivalence,
    restrict,
    schonheim,
    to_covering_array,
    verify,
)
from util_random import random_block, random_structure


def blocks_of(d):
    return tuple(tuple(tuple(p) for p in b) for b in d.blocks)


def all_blocks(v, k, t):
    """The design of every candidate block of (v)/(k) at strength t."""
    pools = [itertools.combinations(range(1, vi + 1), ki) for vi, ki in zip(v, k)]
    return Design(PartStructure(v, k), t, tuple(itertools.product(*pools)))


# ---------------------------------------------------------------- cover_t1

def test_cover_t1_frozen():
    d = cover_t1(PartStructure((5, 7), (2, 3)))
    assert blocks_of(d) == (
        ((1, 2), (1, 2, 3)),
        ((3, 4), (4, 5, 6)),
        ((1, 5), (1, 2, 7)),
    )
    d2 = cover_t1(PartStructure((3, 4), (2, 2)))
    assert blocks_of(d2) == (((1, 2), (1, 2)), ((1, 3), (3, 4)))


def test_cover_t1_meets_formula():
    rng = random.Random(31)
    for _ in range(40):
        s = random_structure(rng, v_sum_max=12, m_max=4)
        d = cover_t1(s)
        assert d.t == 1
        assert len(d) == lower_t1(s)
        assert verify(d).valid


# ---------------------------------------------------- greedy classical base

def test_greedy_classical_forced_cases():
    d = greedy_classical_cover(4, 2, 2)
    assert len(d) == 6  # every pair must itself be a block
    assert greedy_classical_cover(5, 5, 3).blocks == (((1, 2, 3, 4, 5),),)


def test_greedy_classical_is_valid_cover():
    d = greedy_classical_cover(7, 3, 2)
    assert verify(d).valid
    assert len(d) >= 7  # oracle minimum; greedy may overshoot


def test_greedy_classical_parameter_order():
    with pytest.raises(ParameterOrderViolated):
        greedy_classical_cover(3, 4, 2)
    with pytest.raises(ParameterOrderViolated):
        greedy_classical_cover(4, 2, 3)


# ----------------------------------------------------------- minimax lift

def test_minimax_reproduces_reference_table():
    d = construct_minimax(PartStructure((5, 6, 7), (3, 4, 3)), fano())
    assert blocks_of(d) == MINIMAX_567_RAW
    assert verify(d).valid


def test_minimax_placeholder_intermediate():
    pd = construct_minimax(PartStructure((5, 6, 7), (3, 4, 3)), fano(),
                           keep_placeholders=True)
    assert isinstance(pd, PlaceholderDesign)
    want = (
        ((1, 2, 4), (1, 2, 4, STAR), (1, 2, 4)),
        ((2, 3, 5), (2, 3, 5, STAR), (2, 3, 5)),
        ((3, 4, STAR), (3, 4, 6, STAR), (3, 4, 6)),
        ((4, 5, STAR), (4, 5, STAR, STAR), (4, 5, 7)),
        ((1, 5, STAR), (1, 5, 6, STAR), (1, 5, 6)),
        ((2, STAR, STAR), (2, 6, STAR, STAR), (2, 6, 7)),
        ((1, 3, STAR), (1, 3, STAR, STAR), (1, 3, 7)),
    )
    assert pd.blocks == want
    assert blocks_of(pd.fill()) == MINIMAX_567_RAW


def test_placeholder_label_zero_is_out_of_range():
    s = PartStructure((3,), (2,))
    assert PlaceholderDesign(s, 1, (((STAR, 1),),)).blocks == (((1, STAR),),)
    with pytest.raises(LabelOutOfRange):
        PlaceholderDesign(s, 1, (((0, 1),),))


def test_placeholder_labels_must_be_integers():
    # labels are coerced as make_block coerces them, when the design is built
    s = PartStructure((3,), (2,))
    for bad in ("x", 1.5):
        with pytest.raises(LabelOutOfRange):
            PlaceholderDesign(s, 1, (((bad, 1),),))
        with pytest.raises(LabelOutOfRange):
            PlaceholderDesign(s, 1, (((bad, STAR),),))
    (((label, star),),) = PlaceholderDesign(s, 1, (((True, STAR),),)).blocks
    assert (type(label), label, star) == (int, 1, STAR)


# (plain block, the same fault with a placeholder in the block): part 1
# of (4,3)/(2,2) is at fault, and each * counts toward k_i.
FAULTS = {
    "count": (((1, 2, 3), (1, 2)), ((1, 2, 3), (1, STAR))),
    "count-with-star": (((1, 2, 3), (1, 2)), ((1, 2, STAR), (1, 2))),
    "duplicate": (((2, 2), (1, 2)), ((2, 2), (STAR, 1))),
    "out-of-range": (((1, 5), (1, 2)), ((5, 1), (1, STAR))),
    "non-integer": (((1, "x"), (1, 2)), ((1, "x"), (STAR, STAR))),
}


@pytest.mark.parametrize("plain, placeholder", FAULTS.values(), ids=FAULTS)
def test_placeholder_block_faults_match_plain_block(plain, placeholder):
    s = PartStructure((4, 3), (2, 2))
    with pytest.raises((ProfileExceedsPart, LabelOutOfRange)) as want:
        make_block(s, plain)
    for build_one in (lambda: Design(s, 1, (plain,)),
                      lambda: PlaceholderDesign(s, 1, (placeholder,))):
        with pytest.raises(type(want.value)) as e:
            build_one()
        assert str(e.value) == str(want.value)


# The non-integer message shows the part itself, so it is left out.
COUNTED_FAULTS = {f: FAULTS[f] for f in FAULTS if f != "non-integer"}


@pytest.mark.parametrize("plain, placeholder", COUNTED_FAULTS.values(), ids=COUNTED_FAULTS)
def test_iterator_parts_are_checked_like_sequences(plain, placeholder):
    s = PartStructure((4, 3), (2, 2))
    with pytest.raises((ProfileExceedsPart, LabelOutOfRange)) as want:
        make_block(s, plain)
    for build_one in (lambda: make_block(s, [iter(p) for p in plain]),
                      lambda: Design(s, 1, ([(x for x in p) for p in plain],)),
                      lambda: PlaceholderDesign(s, 1, ([iter(p) for p in placeholder],))):
        with pytest.raises(type(want.value)) as e:
            build_one()
        assert str(e.value) == str(want.value)


def test_iterator_block_and_parts_are_accepted():
    s = PartStructure((4, 3), (2, 2))
    assert make_block(s, iter([(x for x in (3, 1)), iter([2, 3])])) == ((1, 3), (2, 3))
    pd = PlaceholderDesign(s, 1, (iter([iter([3, STAR]), (x for x in (STAR, 2))]),))
    assert pd.blocks == (((3, STAR), (2, STAR)),)


def test_placeholder_parts_are_never_kept_as_given():
    """A part holding a STAR is rebuilt even when it is already in order,
    and its labels come back as exact ints; a part with a non-iterable
    entry is refused like a non-integer label."""
    s = PartStructure((4, 3), (2, 2))
    raw = ((1, STAR), (2, 3))
    (out,) = PlaceholderDesign(s, 1, (raw,)).blocks
    assert out == raw and out is not raw
    for label in (True, np.int64(1)):
        (out,) = PlaceholderDesign(s, 1, (((label, STAR), (2, np.int64(3))),)).blocks
        assert out == ((1, STAR), (2, 3))
        assert [type(x) for x in out[0][:1] + out[1]] == [int, int, int]
    for bad in (5, ((1, STAR), 3)):
        with pytest.raises(LabelOutOfRange):
            PlaceholderDesign(s, 1, (bad,))


# Each transform and product on d, a product's other factor the filled
# design; given a PlaceholderDesign for d, each refuses it.
PLACEHOLDER_CALLS = {
    "restrict": lambda d, filled: restrict(d, (1, 2)),
    "drop_full_parts": lambda d, filled: drop_full_parts(d),
    "add_full_parts": lambda d, filled: add_full_parts(d, (2,)),
    "expand_equivalent": lambda d, filled: expand_equivalent(d, 1),
    "delete_points": lambda d, filled: delete_points(d, (4, 5, 6)),
    "expand_blocks": lambda d, filled: expand_blocks(d, (4, 5, 4)),
    "amalgamate": lambda d, filled: amalgamate(d, 1, 2),
    "prune_redundant": lambda d, filled: prune_redundant(d),
    "product_concat": lambda d, filled: product_concat(d, filled),
    "product_concat_improved": lambda d, filled: product_concat_improved(filled, d),
    "product_hadamard": lambda d, filled: product_hadamard(filled, d),
}


@pytest.mark.parametrize("call", PLACEHOLDER_CALLS.values(), ids=PLACEHOLDER_CALLS)
def test_transforms_refuse_placeholder_design(call):
    pd = construct_minimax(PartStructure((5, 6, 7), (3, 4, 3)), greedy_classical_cover(7, 3, 2),
                           keep_placeholders=True)
    assert any(STAR in part for b in pd.blocks for part in b)
    filled = pd.fill()
    with pytest.raises(PlaceholdersPresent, match="takes a Design, got a PlaceholderDesign"):
        call(pd, filled)
    call(filled, filled)


# The readers of a Design, given a PlaceholderDesign d, refuse it too.
PLACEHOLDER_READS = {
    "to_covering_array": to_covering_array,
    "check_clique_cover": lambda d: check_clique_cover(d.structure, d),
    "check_multipartite_cover": lambda d: check_multipartite_cover(d.structure, d),
}


@pytest.mark.parametrize("read", PLACEHOLDER_READS.values(), ids=PLACEHOLDER_READS)
def test_readers_refuse_placeholder_design(read):
    # unit profile, so that to_covering_array reads the filled design
    pd = PlaceholderDesign(PartStructure((2, 2), (1, 1)), 2,
                           (((1,), (STAR,)), ((1,), (2,)), ((2,), (1,)), ((2,), (2,))))
    with pytest.raises(PlaceholdersPresent, match="takes a Design, got a PlaceholderDesign"):
        read(pd)
    assert read(pd.fill())


@pytest.mark.parametrize("lam", [1, 2])
def test_transforms_check_each_output_block_once(lam, monkeypatch):
    d = Design(fano().structure, 2, fano().blocks, lam)
    pd = construct_minimax(PartStructure((5, 6, 7), (3, 4, 3)), fano(),
                           keep_placeholders=True)
    calls = []
    real = gencov.core._check_block

    def counting(s, parts, *star):
        calls.append(parts)
        return real(s, parts, *star)

    monkeypatch.setattr(gencov.core, "_check_block", counting)
    for op in (lambda: delete_points(d, (5,)), lambda: expand_blocks(d, (5,)), pd.fill):
        calls.clear()
        out = op()
        assert calls == list(out.blocks)


@pytest.mark.parametrize("args", [(99,), (-1,), (2, (), 0), (1.5,)])
def test_placeholder_design_checks_strength_and_lambda(args):
    # as Design does: same class, same message
    s = PartStructure((4, 2, 2), (2, 1, 1))
    with pytest.raises((StrengthTooLarge, NonPositiveEntry)) as e:
        PlaceholderDesign(s, *args)
    with pytest.raises(type(e.value)) as want:
        Design(s, *args)
    assert str(e.value) == str(want.value)


def test_fill_keeps_repeats_at_lambda_two():
    # 1* fills to 12; at lambda = 2 point 1 needs both copies
    pd = PlaceholderDesign(PartStructure((3,), (2,)), 1,
                           (((1, STAR),), ((1, STAR),), ((2, 3),), ((2, 3),)), lam=2)
    out = pd.fill()
    assert blocks_of(out) == (((1, 2),), ((1, 2),), ((2, 3),), ((2, 3),))
    assert verify(out).valid


def test_minimax_full_blocks_collapse():
    s = PartStructure((3, 3), (3, 3))
    base = build((3,), (3,), 2, (((1, 2, 3),), ((1, 2, 3),)))
    d = construct_minimax(s, base)
    assert blocks_of(d) == (((1, 2, 3), (1, 2, 3)),)


def test_minimax_pair_structure():
    base = build((4,), (2,), 2, tuple(((a, b),) for a in range(1, 5)
                                      for b in range(a + 1, 5)))
    d = construct_minimax(PartStructure((4, 4), (2, 2)), base)
    assert len(d) == 6
    assert verify(d).valid
    assert schonheim(4, 2, 2) == 6  # meets the classical bound, so optimal


def test_minimax_oversized_part():
    # v_1 far above the base size; fixed tail points absorb the surplus
    n, = {len(construct_minimax(PartStructure((100, 7), (98, 3)), fano()).blocks)}
    assert n == 7
    assert verify(construct_minimax(PartStructure((100, 7), (98, 3)), fano())).valid


def test_minimax_preconditions():
    s = PartStructure((5, 6, 7), (3, 4, 3))
    with pytest.raises(ProfileBelowTwo):
        construct_minimax(PartStructure((4, 2), (2, 1)), fano())
    with pytest.raises(StructureMismatch):
        construct_minimax(s, mixed_422())
    with pytest.raises(StrengthNotTwo):
        construct_minimax(s, cover_t1(PartStructure((7,), (3,))))
    small = build((6,), (3,), 2, (((1, 2, 3),), ((1, 4, 5),), ((2, 4, 6),),
                                  ((3, 5, 6),), ((1, 2, 6),), ((3, 4, 5),)))
    with pytest.raises(BasePartTooSmall):
        construct_minimax(s, small)


def test_minimax_refuses_placeholder_base():
    s = PartStructure((5, 6, 7), (3, 4, 3))
    # fano's first block is (1, 2, 4), so filling the STAR gives fano back
    pd = PlaceholderDesign(fano().structure, 2, (((STAR, 2, 4),), *fano().blocks[1:]))
    assert pd.fill() == fano()
    with pytest.raises(PlaceholdersPresent, match="construct_minimax takes a Design"):
        construct_minimax(s, pd)
    assert construct_minimax(s, pd.fill()) == minimax_567()


def test_minimax_refuses_unit_profile_before_the_base():
    # neither a base search nor a base check runs first
    s = PartStructure((4, 2), (2, 1))
    for base in (None, fano(), 5):
        with pytest.raises(UnitProfilePart, match=r"lift needs every k_i >= 2, got \(2, 1\)"):
            construct_minimax(s, base, max_nodes=0, timeout=0)


def test_minimax_never_larger_than_base():
    rng = random.Random(37)
    for _ in range(15):
        m = rng.randint(1, 3)
        v = tuple(rng.randint(2, 7) for _ in range(m))
        k = tuple(rng.randint(2, vi) for vi in v)
        s = PartStructure(v, k)
        w = max(vj - (kj - s.k_min) for vj, kj in zip(v, k))
        base = greedy_classical_cover(w, s.k_min, 2)
        d = construct_minimax(s, base)
        assert len(d) <= len(base)
        assert verify(d).valid


# ------------------------------------------------------------- restriction

def test_restrict_reference_cases():
    d = mixed_422()
    r1 = restrict(d, {1})
    assert r1.structure == PartStructure((4,), (2,))
    assert len(r1) == 6 and verify(r1).valid
    r23 = restrict(d, {2, 3})
    assert r23.structure == PartStructure((2, 2), (1, 1))
    assert len(r23) == 6 and verify(r23).valid
    assert restrict(d, {1, 2, 3}).blocks == d.blocks


def test_restrict_keeps_duplicates():
    r = restrict(minimax_567(), {3})
    assert len(r) == 7  # no dedup even though parts repeat
    assert verify(r).valid


def test_restrict_strength_caps_at_profile_sum():
    r = restrict(mixed_422(), {2, 3})
    assert r.t == 2
    # strength 3 drops to the surviving profile sum of 2
    d3 = add_full_parts(greedy_classical_cover(4, 3, 3), (2,))
    r2 = restrict(d3, {2})
    assert r2.t == 2
    assert verify(r2).valid


def test_restrict_errors():
    d = mixed_422()
    with pytest.raises(EmptyIndexSet):
        restrict(d, set())
    with pytest.raises(DegenerateRestriction):
        restrict(d, {2})
    with pytest.raises(LabelOutOfRange):
        restrict(d, {0, 1})
    with pytest.raises(LabelOutOfRange):
        restrict(d, {4})


# ------------------------------------------------------------- full parts

def full_part_design():
    pairs = tuple(((a, b), (1, 2, 3)) for a in range(1, 5) for b in range(a + 1, 5))
    return build((4, 3), (2, 3), 2, pairs)


def test_drop_full_parts():
    d = full_part_design()
    out = drop_full_parts(d)
    assert out.structure == PartStructure((4,), (2,))
    assert len(out) == 6 and verify(out).valid
    assert drop_full_parts(out).blocks == out.blocks  # nothing left to drop


def test_drop_full_parts_degenerate():
    one = build((3,), (3,), 2, (((1, 2, 3),),))
    with pytest.raises(DegenerateRestriction):
        drop_full_parts(one)
    unit = build((2, 3), (1, 3), 2, tuple(((x,), (1, 2, 3)) for x in (1, 2)))
    with pytest.raises(DegenerateRestriction):
        drop_full_parts(unit)


def test_add_full_parts():
    d = mixed_422()
    out = add_full_parts(d, (3,))
    assert out.structure == PartStructure((4, 2, 2, 3), (2, 1, 1, 3))
    assert all(b[3] == (1, 2, 3) for b in out.blocks)
    assert verify(out).valid
    assert add_full_parts(d, ()).blocks == d.blocks
    assert drop_full_parts(out).blocks == d.blocks


def test_add_full_parts_rejects_non_positive_size():
    with pytest.raises(NonPositiveEntry):
        add_full_parts(mixed_422(), (2, 0))


# ------------------------------------------------------------- equivalence

def test_expand_equivalent():
    d = expand_equivalent(fano(), 1)
    assert d.structure == PartStructure((7, 7), (3, 3))
    assert len(d) == 7
    assert all(b[0] == b[1] for b in d.blocks)
    assert verify(d).valid
    dd = expand_equivalent(d, 2)
    assert dd.structure == PartStructure((7, 7, 7), (3, 3, 3))
    assert verify(dd).valid


def test_expand_equivalent_appends_at_end():
    d = expand_equivalent(minimax_567(), 1)
    assert d.structure == PartStructure((5, 6, 7, 5), (3, 4, 3, 3))
    assert verify(d).valid


def test_expand_equivalent_unit_profile():
    with pytest.raises(ProfileBelowTwo):
        expand_equivalent(mixed_422(), 2)


def test_reduce_equivalence():
    s, mult = reduce_equivalence(PartStructure((7, 7, 5), (3, 3, 2)))
    assert s == PartStructure((7, 5), (3, 2))
    assert mult == {(7, 3): 2, (5, 2): 1}
    s2, mult2 = reduce_equivalence(PartStructure((2, 2, 2), (1, 1, 1)))
    assert s2 == PartStructure((2, 2, 2), (1, 1, 1)) and mult2 == {}
    s3, mult3 = reduce_equivalence(PartStructure((9, 16), (4, 9)))
    assert s3 == PartStructure((9, 16), (4, 9))
    assert mult3 == {(9, 4): 1, (16, 9): 1}


# ---------------------------------------------------------- point deletion

def test_delete_points_fano():
    out = delete_points(fano(), (6,))
    assert out.structure == PartStructure((6,), (3,))
    assert len(out) <= 7
    assert verify(out).valid


def test_delete_points_identities():
    d = mixed_422()
    assert delete_points(d, (4, 2, 2)).blocks == d.blocks
    collapsed = delete_points(d, (2, 1, 1))
    assert collapsed.blocks == (((1, 2), (1,), (1,)),)


def test_delete_points_errors():
    d = mixed_422()
    with pytest.raises(TargetBelowProfile):
        delete_points(d, (1, 1, 1))
    with pytest.raises(TargetExceedsPart):
        delete_points(d, (5, 2, 2))
    with pytest.raises(LengthMismatch):
        delete_points(d, (3, 2))


def test_delete_points_keeps_repeats_at_lambda_two():
    # 13 and 23 both map to 12; at lambda = 2 each point needs two blocks
    d = build((3,), (2,), 1, (((1, 2),), ((1, 3),), ((2, 3),)), lam=2)
    out = delete_points(d, (2,))
    assert blocks_of(out) == (((1, 2),),) * 3
    assert verify(out).valid


# --------------------------------------------------------- block expansion

def test_expand_blocks_fano():
    out = expand_blocks(fano(), (4,))
    assert out.structure == PartStructure((7,), (4,))
    assert len(out) <= 7
    assert all(len(b[0]) == 4 for b in out.blocks)
    assert verify(out).valid


def test_expand_blocks_identities():
    f = fano()
    assert expand_blocks(f, (3,)).blocks == f.blocks
    assert expand_blocks(f, (7,)).blocks == (((1, 2, 3, 4, 5, 6, 7),),)


def test_expand_blocks_errors():
    with pytest.raises(ProfileBelowTwo):
        expand_blocks(mixed_422(), (2, 1, 1))
    with pytest.raises(TargetExceedsPart):
        expand_blocks(fano(), (8,))
    with pytest.raises(TargetBelowProfile):
        expand_blocks(fano(), (2,))
    with pytest.raises(LengthMismatch):
        expand_blocks(fano(), (4, 4))


def test_expand_blocks_keeps_repeats_at_lambda_two():
    d = build((4,), (2,), 1, (((1, 2),), ((1, 2),), ((3, 4),), ((3, 4),)), lam=2)
    out = expand_blocks(d, (3,))
    assert blocks_of(out) == (((1, 2, 3),),) * 2 + (((1, 3, 4),),) * 2
    assert verify(out).valid


# ------------------------------------------------------------ amalgamation

def test_amalgamate_reference():
    out = amalgamate(minimax_567(), 1, 2)
    assert out.structure == PartStructure((11, 7), (7, 3))
    assert len(out) == 7
    assert verify(out).valid
    # part-2 labels sit above the part-1 range
    assert out.blocks[0] == ((1, 2, 4, 6, 7, 8, 9), (1, 2, 4))


def test_amalgamate_pair_parts():
    base = build((4,), (2,), 2, tuple(((a, b),) for a in range(1, 5)
                                      for b in range(a + 1, 5)))
    d = construct_minimax(PartStructure((4, 4), (2, 2)), base)
    out = amalgamate(d, 1, 2)
    assert out.structure == PartStructure((8,), (4,))
    assert len(out) == len(d)
    assert verify(out).valid


def test_amalgamate_errors():
    with pytest.raises(ProfileBelowTwo):
        amalgamate(mixed_422(), 1, 2)
    with pytest.raises(InvalidInput):
        amalgamate(fano(), 1, 1)


# --------------------------------------------------- strength guards, t >= 3

def test_strength_guards_refuse_invalid_outputs():
    # unguarded, each of these returned a design that fails verification
    d = all_blocks((4, 3), (2, 1), 3)
    assert len(d) == 18
    with pytest.raises(StrengthTooLarge, match="k_1 >= 3"):
        expand_equivalent(d, 1)
    d = all_blocks((4, 4, 3), (2, 2, 1), 3)
    assert len(d) == 108
    with pytest.raises(StrengthTooLarge):
        amalgamate(d, 1, 2)
    d = all_blocks((5, 5), (2, 2), 3)
    with pytest.raises(StrengthTooLarge, match="k_1 >= 3"):
        expand_blocks(d, (3, 2))


def test_strength_guards_allow_sound_cases():
    d = all_blocks((4, 4), (3, 3), 3)
    assert verify(amalgamate(d, 1, 2)).valid
    assert verify(expand_equivalent(d, 2)).valid
    assert verify(expand_blocks(d, (4, 3))).valid
    # a part grown to its whole point set holds every tuple
    d = all_blocks((5, 5), (2, 2), 3)
    out = expand_blocks(d, (5, 2))
    assert out.structure.k == (5, 2) and verify(out).valid
    # a part with v_i <= t needs only k_i >= v_i
    d = all_blocks((2, 5), (2, 3), 3)
    assert verify(amalgamate(d, 1, 2)).valid
    assert verify(expand_equivalent(d, 1)).valid


def test_strength_guards_predict_validity():
    """On seeded greedy designs at t = 3 and 4, each transform either
    raises StrengthTooLarge or returns a valid design."""
    rng = random.Random(23)
    raised = kept = 0
    for _ in range(60):
        s = random_structure(rng, v_sum_max=9, m_max=3)
        if s.k_sum < 3:
            continue
        d = greedy_cover(s, rng.randint(3, min(4, s.k_sum)))
        trials = [lambda i=i, j=j: amalgamate(d, i, j)
                  for i, j in itertools.permutations(range(1, s.m + 1), 2)
                  if s.k[i - 1] >= 2 and s.k[j - 1] >= 2]
        trials += [lambda i=i: expand_equivalent(d, i)
                   for i in range(1, s.m + 1) if s.k[i - 1] >= 2]
        if s.k_min >= 2:
            trials.append(lambda: expand_blocks(d, [min(ki + 1, vi) for vi, ki in zip(s.v, s.k)]))
        for trial in trials:
            try:
                out = trial()
            except StrengthTooLarge:
                raised += 1
                continue
            assert verify(out).valid, (s, d.t)
            kept += 1
    assert raised >= 5 and kept >= 5


# ----------------------------------------------------------------- pruning

def test_prune_dedup_only_by_default():
    f = fano()
    padded = Design(f.structure, 2, f.blocks + (f.blocks[0],))
    assert len(prune_redundant(padded)) == 7
    # the extra non-duplicate block survives without greedy_drop
    extra = Design(f.structure, 2, f.blocks + (((1, 2, 3),),))
    assert len(prune_redundant(extra)) == 8
    assert len(prune_redundant(extra, greedy_drop=True)) == 7


def test_prune_identity_on_minimal():
    assert prune_redundant(mixed_422()).blocks == mixed_422().blocks
    assert prune_redundant(mixed_422(), greedy_drop=True).blocks == mixed_422().blocks


def test_prune_respects_lambda():
    f = fano()
    doubled = Design(f.structure, 2, f.blocks * 2, lam=2)
    assert len(prune_redundant(doubled)) == 14  # duplicates carry weight here


def test_prune_rejects_invalid():
    bad = Design(fano().structure, 2, fano().blocks[:5])
    with pytest.raises(InvalidInput):
        prune_redundant(bad)


def test_prune_all_blocks_triangle():
    allb = build((3,), (2,), 2, (((1, 2),), ((1, 3),), ((2, 3),)))
    assert len(prune_redundant(allb, greedy_drop=True)) == 3


def reference_prune(d, greedy_drop):
    """prune_redundant's contract spelled out: one Design and one verify
    per trial, lexicographically last blocks tried first."""
    if not verify(d).valid:
        raise InvalidInput("input design fails verification")
    blocks = tuple(dict.fromkeys(d.blocks)) if d.lam == 1 else d.blocks
    kept = list(range(len(blocks)))
    if greedy_drop:
        for r in sorted(kept, key=lambda q: blocks[q], reverse=True):
            trial = [q for q in kept if q != r]
            if verify(Design(d.structure, d.t, tuple(blocks[q] for q in trial), d.lam)).valid:
                kept = trial
    return Design(d.structure, d.t, tuple(blocks[q] for q in kept), d.lam)


def random_prune_input(rng):
    """A design on m <= 3 parts of at most 7 points at strength 0..3 and
    lambda 1 or 2: lambda copies of a greedy cover, some random blocks
    and repeats of its own blocks, shuffled.  Some are invalid."""
    while True:
        m = rng.randint(1, 3)
        v = tuple(rng.randint(1, 7) for _ in range(m))
        s = PartStructure(v, tuple(rng.randint(1, vi) for vi in v))
        if s.block_count_possible() <= 2000:
            break
    t = rng.randint(0, min(3, s.k_sum))
    lam = rng.choice((1, 2))
    blocks = list(greedy_cover(s, t).blocks * lam)
    blocks += [random_block(rng, s) for _ in range(rng.randint(0, 4))]
    blocks += [rng.choice(blocks) for _ in range(rng.randint(0, 3))] if blocks else []
    rng.shuffle(blocks)
    if blocks and rng.random() < 0.1:
        del blocks[rng.randrange(len(blocks))]
    return Design(s, t, tuple(blocks), lam)


def test_prune_matches_reference_loop():
    rng = random.Random(53)
    pruned = refused = 0
    for _ in range(150):
        d = random_prune_input(rng)
        for greedy_drop in (False, True):
            try:
                want = reference_prune(d, greedy_drop)
            except InvalidInput:
                with pytest.raises(InvalidInput):
                    prune_redundant(d, greedy_drop=greedy_drop)
                refused += 1
                continue
            assert prune_redundant(d, greedy_drop=greedy_drop) == want, (d, greedy_drop)
            pruned += 1
    assert pruned >= 200 and refused >= 4


def test_greedy_drop_builds_no_trial_designs(monkeypatch):
    """Each trial is a scan of rows of the input's labels, so the prune
    checks blocks for its output design only, whatever their number."""
    s = PartStructure((7, 7), (2, 2))
    d = greedy_cover(s, 2)
    rng = random.Random(59)
    d = Design(s, 2, d.blocks + tuple(random_block(rng, s) for _ in range(10)))
    assert len(set(d.blocks)) >= 20
    calls = []
    check_blocks = gencov.core._check_blocks

    def counting(*args):
        calls.append(args)
        return check_blocks(*args)

    monkeypatch.setattr(gencov.core, "_check_blocks", counting)
    out = prune_redundant(d, greedy_drop=True)
    assert len(calls) <= 2
    assert len(out) < len(d) and verify(out).valid


def test_greedy_drop_builds_each_pattern_setup_once(monkeypatch):
    """Each pattern's slot terms are built once per prune, from the input's
    labels, not once per trial."""
    s = PartStructure((7, 4, 3), (2, 2, 1))
    d = greedy_cover(s, 2)
    rng = random.Random(61)
    d = Design(s, 2, d.blocks + tuple(random_block(rng, s) for _ in range(10)))
    assert len(set(d.blocks)) >= 20
    calls = []
    verify_module = sys.modules["gencov.verify"]  # gencov.verify is the function
    slot_terms = verify_module._slot_terms

    def counting(labels, v, t, weight):
        calls.append((v, t))
        return slot_terms(labels, v, t, weight)

    monkeypatch.setattr(verify_module, "_slot_terms", counting)
    out = prune_redundant(d, greedy_drop=True)
    used_parts = sum(ti > 0 for p in admissible_patterns(s, 2) for ti in p)
    assert len(calls) <= used_parts
    assert len(out) < len(d) and verify(out).valid


# ---------------------------------------------------- randomized validity

def test_transforms_agree_with_oracle():
    rng = random.Random(41)
    for _ in range(25):
        m = rng.randint(1, 3)
        v = tuple(rng.randint(2, 4) for _ in range(m))
        k = tuple(rng.randint(2, vi) for vi in v)
        s = PartStructure(v, k)
        w = max(vj - (kj - s.k_min) for vj, kj in zip(v, k))
        d = construct_minimax(s, greedy_classical_cover(w, s.k_min, 2))
        for out in (
            delete_points(d, s.k),
            expand_blocks(d, s.v),
            expand_equivalent(d, 1),
            add_full_parts(d, (2,)),
        ):
            vv, kk, tt, blocks, lam = oracle.as_raw(out)
            assert oracle.naive_valid(vv, kk, tt, blocks, lam)
