"""Domain types, admissibility enumeration, covering-array conversion."""

import gc
import random

import numpy as np
import pytest

import naive_oracle as oracle
from fixture_designs import CA_5_4_2_ROWS, fano, mixed_422
from gencov import (
    Design,
    DesignSyntaxError,
    EntryOutOfAlphabet,
    GencovError,
    LabelOutOfRange,
    LengthMismatch,
    NonPositiveEntry,
    NotUnitProfile,
    ParameterOrderViolated,
    PartStructure,
    PlaceholderDesign,
    ProfileExceedsPart,
    StrengthTooLarge,
    StructureMismatch,
    add_full_parts,
    admissible_patterns,
    admissible_tuples,
    amalgamate,
    bound_report,
    certify_classical,
    check_clique_cover,
    check_multipartite_cover,
    coverage_deficit,
    construct_minimax,
    delete_points,
    emit_design,
    exact_min,
    expand_blocks,
    expand_equivalent,
    from_covering_array,
    greedy_classical_cover,
    greedy_cover,
    lower_best,
    lower_schonheim,
    make_block,
    make_structure,
    parse_design,
    pattern_tuple_count,
    restrict,
    set_lift,
    to_covering_array,
    tuple_in_block,
    upper_minimax,
)
from util_random import random_structure


def test_structure_attributes():
    s = PartStructure((5, 6, 7), (3, 4, 3))
    assert s.m == 3
    assert s.v_sum == 18
    assert s.k_sum == 10
    assert s.k_min == 3
    assert s.block_count_possible() == 10 * 15 * 35


def test_structure_validation():
    with pytest.raises(LengthMismatch):
        PartStructure((3, 3), (2,))
    with pytest.raises(LengthMismatch):
        PartStructure((), ())
    with pytest.raises(NonPositiveEntry):
        PartStructure((3, 0), (2, 1))
    with pytest.raises(NonPositiveEntry):
        PartStructure((3,), (-1,))
    with pytest.raises(ProfileExceedsPart):
        PartStructure((3,), (4,))
    for v, k in (((4.0,), (2,)), ((4,), (1.5,)), (("4",), (2,))):
        with pytest.raises(NonPositiveEntry):
            PartStructure(v, k)


def test_make_structure_coerces():
    s = make_structure([4, 2], [2, 1])
    assert s.v == (4, 2) and s.k == (2, 1)
    s = make_structure(np.array([4, 2]), [True, np.int8(1)])
    assert s.v == (4, 2) and s.k == (1, 1)
    assert all(type(x) is int for x in s.v + s.k)


def test_make_block_canonicalizes():
    s = PartStructure((4, 2), (2, 1))
    assert make_block(s, [[3, 1], [2]]) == ((1, 3), (2,))


def test_make_block_keeps_canonical_block():
    s = PartStructure((4, 2), (2, 1))
    b = ((1, 3), (2,))
    assert make_block(s, b) is b
    assert Design(s, 1, (b,)).blocks[0] is b
    for raw in ([(1, 3), (2,)], ((3, 1), (2,)), ((np.int64(1), 3), (2,)), ((True, 3), (2,))):
        out = make_block(s, raw)
        assert out == b and out is not raw
        assert all(type(x) is int for part in out for x in part)


def _outcome(s, raw):
    try:
        out = make_block(s, raw)
    except Exception as e:
        return type(e), str(e)
    return out, [type(x) for part in out for x in part]


def test_make_block_registered_block_fast_path():
    """A block a search registered comes back as the same object; an equal
    but different object, or an unhashable one, is checked in full and
    gives what a structure with no registered blocks gives."""
    s = PartStructure((4, 2), (2, 1))
    d = greedy_cover(s, 2)
    b = d.blocks[0]
    assert s._shared_blocks[b] is b
    assert make_block(s, b) is b
    assert Design(s, 2, d.blocks).blocks == d.blocks
    assert all(x is y for x, y in zip(Design(s, 2, d.blocks).blocks, d.blocks))
    fresh = PartStructure(s.v, s.k)
    assert not fresh._shared_blocks
    cases = [tuple(tuple(float(x) for x in part) for part in b),  # equal float block
             tuple(tuple(bool(x) if x == 1 else x for x in part) for part in b),  # bools
             [list(part) for part in b],                           # list parts
             tuple(list(part) for part in b),                      # a tuple holding lists
             ((9, 1), (1,))]                                      # an out-of-range label
    assert cases[0] == b and cases[1] == b
    for raw in cases:
        assert _outcome(s, raw) == _outcome(fresh, raw), raw
    assert _outcome(s, cases[0])[0] is LabelOutOfRange
    for raw in cases[1:4]:
        out = make_block(s, raw)
        assert out == b and out is not raw
        assert all(type(x) is int for part in out for x in part)


def test_make_block_rejects():
    s = PartStructure((4, 2), (2, 1))
    with pytest.raises(StructureMismatch):
        make_block(s, [[1, 2]])
    with pytest.raises(ProfileExceedsPart):
        make_block(s, [[1, 2, 3], [1]])
    with pytest.raises(ProfileExceedsPart):
        make_block(s, [[2, 2], [1]])  # duplicate label
    with pytest.raises(LabelOutOfRange):
        make_block(s, [[1, 5], [1]])
    with pytest.raises(LabelOutOfRange):
        make_block(s, [[0, 1], [1]])
    # labels must be integers, not merely convertible to one, and a block
    # or part must be iterable
    for raw in ([[1.7, 2.2], [1]], [[1.0, 3], [2]], [["a", 1], [1]], [[1, 2], 1], 5, None):
        with pytest.raises(LabelOutOfRange):
            make_block(s, raw)


def test_design_strength_bounds():
    s = PartStructure((3,), (2,))
    with pytest.raises(StrengthTooLarge):
        Design(s, -1)
    with pytest.raises(StrengthTooLarge):
        Design(s, 3)
    assert Design(s, 0).blocks == ()


def test_design_lambda_positive():
    with pytest.raises(NonPositiveEntry):
        Design(PartStructure((3,), (2,)), 1, lam=0)


NON_INTEGER_CALLS = {
    "Design t": (StrengthTooLarge, lambda s, d: Design(s, 1.5, d.blocks)),
    "Design lam": (NonPositiveEntry, lambda s, d: Design(s, 2, d.blocks, lam=1.5)),
    "admissible_patterns": (StrengthTooLarge, lambda s, d: admissible_patterns(s, 2.0)),
    "restrict": (LabelOutOfRange, lambda s, d: restrict(d, [1.0, 2])),
    "expand_equivalent": (LabelOutOfRange, lambda s, d: expand_equivalent(d, 1.0)),
    "amalgamate": (LabelOutOfRange, lambda s, d: amalgamate(d, 1.0, 2)),
    "delete_points": (NonPositiveEntry, lambda s, d: delete_points(d, (3.7, 2, 2))),
    "add_full_parts": (NonPositiveEntry, lambda s, d: add_full_parts(d, (2.5,))),
    "coverage_deficit": (NonPositiveEntry, lambda s, d: coverage_deficit(d, 2.5)),
    "greedy_cover": (StrengthTooLarge, lambda s, d: greedy_cover(s, 2.0)),
    "exact_min": (StrengthTooLarge, lambda s, d: exact_min(s, 2.0)),
    "greedy_classical_cover str": (ParameterOrderViolated,
                                   lambda s, d: greedy_classical_cover(5, 2, "2")),
    "greedy_classical_cover None": (ParameterOrderViolated,
                                    lambda s, d: greedy_classical_cover(5, 2, None)),
}


@pytest.mark.parametrize("error, call", NON_INTEGER_CALLS.values(), ids=NON_INTEGER_CALLS)
def test_non_integer_arguments_raise_gencov_errors(error, call):
    s = PartStructure((4, 3, 3), (2, 2, 2))
    with pytest.raises(error, match="must be an integer"):
        call(s, greedy_cover(s, 2))


def test_integer_like_arguments_are_coerced():
    s = PartStructure((4, 3, 3), (2, 2, 2))
    d = greedy_cover(s, 2)
    same = Design(s, np.int64(2), d.blocks, lam=np.int8(1))
    assert same == d and type(same.t) is int and type(same.lam) is int
    assert restrict(d, [True, np.int64(2)]) == restrict(d, [1, 2])
    assert amalgamate(d, np.int64(1), 2) == amalgamate(d, 1, 2)


def test_design_canonicalizes_blocks():
    s = PartStructure((4,), (2,))
    d = Design(s, 1, (((4, 1),),))
    assert d.blocks == (((1, 4),),)
    assert len(d) == 1


def test_pattern_order_pinned():
    s = PartStructure((4, 2, 2), (2, 1, 1))
    assert admissible_patterns(s, 2) == [(2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 1, 1)]


def test_patterns_match_oracle():
    rng = random.Random(11)
    for _ in range(40):
        s = random_structure(rng, v_sum_max=8, m_max=4)
        for t in range(0, min(s.k_sum, 4) + 1):
            got = admissible_patterns(s, t)
            assert len(got) == len(set(got))
            assert set(got) == set(oracle.patterns(s.v, s.k, t))


def test_patterns_out_of_range():
    s = PartStructure((3,), (2,))
    with pytest.raises(StrengthTooLarge):
        admissible_patterns(s, 3)


def test_tuples_ascending_and_counted():
    s = PartStructure((3, 2), (2, 1))
    got = list(admissible_tuples(s, (1, 1)))
    assert got == [
        ((1,), (1,)), ((1,), (2,)),
        ((2,), (1,)), ((2,), (2,)),
        ((3,), (1,)), ((3,), (2,)),
    ]
    assert pattern_tuple_count(s, (1, 1)) == 6
    assert pattern_tuple_count(s, (2, 0)) == 3


def test_tuple_in_block():
    B = ((1, 3), (2,))
    assert tuple_in_block(((1,), ()), B)
    assert tuple_in_block(((1, 3), ()), B)
    assert not tuple_in_block(((2,), ()), B)
    with pytest.raises(StructureMismatch):
        tuple_in_block(((1,),), B)


def test_from_covering_array_binary():
    d = from_covering_array(CA_5_4_2_ROWS, t=2)
    assert d.structure.v == (2, 2, 2, 2)
    assert d.structure.k == (1, 1, 1, 1)
    assert len(d) == 5
    # symbol 0 becomes label 1, symbol 1 becomes label 2
    assert d.blocks[1] == ((2,), (2,), (2,), (1,))


def test_from_covering_array_alphabets():
    rows = [("a", "x"), ("b", "y")]
    d = from_covering_array(rows, t=1, alphabets=[["b", "a"], ["x", "y"]])
    assert d.blocks[0] == ((2,), (1,))
    with pytest.raises(EntryOutOfAlphabet):
        from_covering_array(rows, t=1, alphabets=[["a"], ["x", "y"]])
    with pytest.raises(LengthMismatch):
        from_covering_array(rows, t=1, alphabets=[["a", "b"]])


def test_from_covering_array_shape_errors():
    with pytest.raises(LengthMismatch):
        from_covering_array([])
    with pytest.raises(LengthMismatch):
        from_covering_array([(0, 1), (0,)])


def test_covering_array_round_trip():
    d = from_covering_array(CA_5_4_2_ROWS, t=2)
    back = to_covering_array(d, alphabets=[(0, 1)] * 4)
    assert [tuple(r) for r in back] == list(CA_5_4_2_ROWS)
    plain = to_covering_array(d)
    assert plain[0] == (1, 1, 1, 1)


def test_to_covering_array_alphabet_errors():
    d = from_covering_array(CA_5_4_2_ROWS, t=2)
    with pytest.raises(LengthMismatch):
        to_covering_array(d, alphabets=[(0, 1)] * 3)
    with pytest.raises(EntryOutOfAlphabet):
        to_covering_array(d, alphabets=[(0, 1)] * 3 + [(0, 1, 2)])


def test_to_covering_array_requires_unit_profile():
    with pytest.raises(NotUnitProfile):
        to_covering_array(fano())
    with pytest.raises(NotUnitProfile):
        to_covering_array(mixed_422())


def test_admissible_patterns_leaves_no_garbage():
    s = PartStructure((4, 3, 5, 2), (2, 1, 3, 2))
    gc.collect()
    gc.disable()
    try:
        for t in range(100):
            admissible_patterns(s, t % (s.k_sum + 1))
        assert gc.collect() == 0
    finally:
        gc.enable()


# Calls with a vector, a sequence or a structure of the wrong kind, on
# s = (4,4)/(2,2) and its greedy cover d.  Each raises the GencovError
# subclass its function raises for a bad element, not a bare TypeError,
# ValueError, IndexError or AttributeError, and none returns an answer.
BAD_ARGUMENT_CALLS = {
    "make_structure int": (NonPositiveEntry, lambda s, d: make_structure(5, (1,))),
    "restrict int": (LabelOutOfRange, lambda s, d: restrict(d, 1)),
    "delete_points None": (NonPositiveEntry, lambda s, d: delete_points(d, None)),
    "expand_blocks int": (NonPositiveEntry, lambda s, d: expand_blocks(d, 3)),
    "add_full_parts int": (NonPositiveEntry, lambda s, d: add_full_parts(d, 2)),
    "pattern_tuple_count short": (LengthMismatch, lambda s, d: pattern_tuple_count(s, (1,))),
    "admissible_tuples short": (LengthMismatch, lambda s, d: admissible_tuples(s, (1,))),
    "pattern_tuple_count long": (LengthMismatch,
                                 lambda s, d: pattern_tuple_count(s, (1, 1, 5))),
    "pattern_tuple_count negative": (StrengthTooLarge,
                                     lambda s, d: pattern_tuple_count(s, (-1, 2))),
    "Design int blocks": (LabelOutOfRange, lambda s, d: Design(s, 1, 5)),
    "PlaceholderDesign None blocks": (LabelOutOfRange,
                                      lambda s, d: PlaceholderDesign(s, 1, None)),
    "from_covering_array int": (LengthMismatch, lambda s, d: from_covering_array(5)),
    "from_covering_array unsortable symbols": (
        EntryOutOfAlphabet, lambda s, d: from_covering_array([(1, "a"), (2, 3)])),
    "from_covering_array unhashable symbols": (
        EntryOutOfAlphabet, lambda s, d: from_covering_array([([1], 2), ([1], 3)])),
    "from_covering_array unhashable entry": (
        EntryOutOfAlphabet,
        lambda s, d: from_covering_array([([1], 2)], alphabets=[[1], [2]])),
    "to_covering_array int alphabets": (
        EntryOutOfAlphabet,
        lambda s, d: to_covering_array(from_covering_array(CA_5_4_2_ROWS), alphabets=5)),
    "set_lift int": (LabelOutOfRange, lambda s, d: set_lift(5, (1,), 2)),
    "set_lift str": (LabelOutOfRange, lambda s, d: set_lift(("a",), (1,), 2)),
    "set_lift str part size": (LabelOutOfRange, lambda s, d: set_lift((1,), (1,), "2")),
    "tuple_in_block float": (StructureMismatch, lambda s, d: tuple_in_block(1.5, d.blocks[0])),
    "check_clique_cover one part": (
        StructureMismatch, lambda s, d: check_clique_cover(PartStructure((4,), (2,)), d)),
    "check_multipartite_cover one part": (
        StructureMismatch, lambda s, d: check_multipartite_cover(PartStructure((4,), (2,)), d)),
    "check_clique_cover smaller parts": (
        StructureMismatch, lambda s, d: check_clique_cover(PartStructure((3, 3), (2, 2)), d)),
    "check_multipartite_cover three parts": (
        StructureMismatch,
        lambda s, d: check_multipartite_cover(PartStructure((4, 4, 4), (2, 2, 2)), d)),
    "exact_min int": (StructureMismatch, lambda s, d: exact_min(5, 2)),
    "exact_min str max_nodes": (NonPositiveEntry, lambda s, d: exact_min(s, 2, max_nodes="5")),
    "exact_min float max_nodes": (NonPositiveEntry,
                                  lambda s, d: exact_min(s, 2, max_nodes=2.5)),
    "exact_min str timeout": (NonPositiveEntry, lambda s, d: exact_min(s, 2, timeout="x")),
    "exact_min nan timeout": (NonPositiveEntry,
                              lambda s, d: exact_min(s, 2, timeout=float("nan"))),
    "certify_classical nan timeout": (
        NonPositiveEntry, lambda s, d: certify_classical(7, 3, 2, timeout=float("nan"))),
    "construct_minimax str max_nodes": (
        NonPositiveEntry, lambda s, d: construct_minimax(s, max_nodes="5")),
    "upper_minimax nan timeout": (NonPositiveEntry,
                                  lambda s, d: upper_minimax(s, timeout=float("nan"))),
    "greedy_cover int": (StructureMismatch, lambda s, d: greedy_cover(5, 2)),
    "greedy_cover int at strength 0": (StructureMismatch, lambda s, d: greedy_cover(5, 0)),
    "lower_best int": (StructureMismatch, lambda s, d: lower_best(5, 2)),
    "lower_schonheim int": (StructureMismatch, lambda s, d: lower_schonheim(5, 2)),
    "bound_report int": (StructureMismatch, lambda s, d: bound_report(5, 2)),
    "upper_minimax int": (StructureMismatch, lambda s, d: upper_minimax(5)),
    "construct_minimax int": (StructureMismatch, lambda s, d: construct_minimax(5)),
    "Design int structure": (StructureMismatch, lambda s, d: Design(5, 1)),
    "PlaceholderDesign int structure": (StructureMismatch,
                                        lambda s, d: PlaceholderDesign(5, 1)),
    "emit_design int": (StructureMismatch, lambda s, d: emit_design(5)),
    "emit_design structure": (StructureMismatch, lambda s, d: emit_design(s)),
    "parse_design int": (DesignSyntaxError, lambda s, d: parse_design(5)),
    "parse_design bytes": (DesignSyntaxError, lambda s, d: parse_design(b"gcd 1\n")),
}


@pytest.mark.parametrize("error, call", BAD_ARGUMENT_CALLS.values(), ids=BAD_ARGUMENT_CALLS)
def test_bad_arguments_raise_gencov_errors(error, call):
    s = PartStructure((4, 4), (2, 2))
    d = greedy_cover(s, 2)
    with pytest.raises(GencovError) as info:
        call(s, d)
    assert type(info.value) is error
