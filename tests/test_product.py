"""Product constructions: concatenation, improved concatenation, pointwise lift."""

import pytest

import gencov.core
import naive_oracle as oracle
from fixture_designs import (
    HADAMARD_9_16_RAW,
    PROD_CONCAT_IMPROVED_RAW,
    PROD_STAGE2_GROUPED_RAW,
    build,
    fano,
    hadamard_base,
    mixed_422,
    prod_b,
    prod_c,
)
from gencov import (
    Design,
    InvalidInput,
    LabelOutOfRange,
    PartCountMismatch,
    PartStructure,
    StrengthMismatch,
    StrengthNotTwo,
    StructureMismatch,
    cover_t1,
    mod1,
    product_concat,
    product_concat_improved,
    product_hadamard,
    prune_redundant,
    set_lift,
    verify,
)


def blocks_of(d):
    return tuple(tuple(tuple(p) for p in b) for b in d.blocks)


# -------------------------------------------------------------- plain concat

def test_concat_counts_and_validity():
    d = product_concat(prod_b(), prod_c())
    assert d.structure == PartStructure((5, 7, 3, 4), (2, 3, 2, 2))
    assert len(d) == 60
    assert verify(d).valid


def test_concat_row_major_order():
    d = product_concat(prod_b(), prod_c())
    assert d.blocks[0] == ((1, 2), (1, 2, 3), (1, 2), (1, 2))
    assert d.blocks[1] == ((1, 2), (1, 2, 3), (1, 3), (1, 3))
    assert d.blocks[6] == ((3, 4), (1, 4, 7), (1, 2), (1, 2))


def test_concat_with_full_part_design():
    full = build((3,), (3,), 2, (((1, 2, 3),),))
    d = product_concat(mixed_422(), full)
    assert len(d) == 6
    assert blocks_of(d) == tuple(b + ((1, 2, 3),) for b in blocks_of(mixed_422()))
    assert verify(d).valid


def test_concat_single_blocks():
    one = build((2,), (2,), 2, (((1, 2),),))
    assert len(product_concat(one, one)) == 1


def test_concat_strength_mismatch():
    with pytest.raises(StrengthMismatch):
        product_concat(fano(), cover_t1(PartStructure((3,), (2,))))


def test_concat_lambda_is_min():
    f = fano()
    doubled = Design(f.structure, 2, f.blocks * 2, lam=2)
    full = build((3,), (3,), 2, (((1, 2, 3),),))
    assert product_concat(doubled, full).lam == 1
    assert product_concat(doubled, Design(full.structure, 2, full.blocks * 2, lam=2)).lam == 2


# ----------------------------------------------------------- improved concat

def test_improved_reproduces_reference():
    d = product_concat_improved(prod_b(), prod_c())
    assert d.structure == PartStructure((5, 7, 3, 4), (2, 3, 2, 2))
    assert len(d) == 16
    assert blocks_of(d) == PROD_CONCAT_IMPROVED_RAW
    assert d.blocks[0] == d.blocks[10]  # the published repeated block
    assert verify(d).valid
    assert len(prune_redundant(d)) == 15


def test_improved_stage2_matches_published_multiset():
    d = product_concat_improved(prod_b(), prod_c())
    assert sorted(blocks_of(d)[10:]) == sorted(PROD_STAGE2_GROUPED_RAW)
    assert blocks_of(d)[10] == PROD_STAGE2_GROUPED_RAW[0]


def test_improved_swaps_smaller_first_factor():
    assert blocks_of(product_concat_improved(prod_c(), prod_b())) == \
        blocks_of(product_concat_improved(prod_b(), prod_c()))


def test_improved_explicit_strength1_helpers():
    e1 = cover_t1(PartStructure((5, 7), (2, 3)))
    e2 = cover_t1(PartStructure((3, 4), (2, 2)))
    d = product_concat_improved(prod_b(), prod_c(), e1, e2)
    assert blocks_of(d) == PROD_CONCAT_IMPROVED_RAW


def test_improved_strength1_inputs_have_empty_stage2():
    d1 = cover_t1(PartStructure((5, 7), (2, 3)))
    d2 = cover_t1(PartStructure((3, 4), (2, 2)))
    d = product_concat_improved(d1, d2)
    assert len(d) == max(len(d1), len(d2)) == 3
    assert d.t == 1
    assert verify(d).valid


def test_improved_self_product_size():
    d = product_concat_improved(fano(), fano())
    # max{7,7} plus the 3x3 strength-1 product
    assert len(d) == 7 + 9
    assert d.structure == PartStructure((7, 7), (3, 3))
    assert verify(d).valid


def test_improved_validation_errors():
    with pytest.raises(StrengthMismatch):
        product_concat_improved(fano(), cover_t1(PartStructure((3,), (2,))))
    e_bad = cover_t1(PartStructure((6, 7), (2, 3)))
    with pytest.raises(StructureMismatch):
        product_concat_improved(prod_b(), prod_c(), e_bad,
                                cover_t1(PartStructure((3, 4), (2, 2))))
    e_wrong_t = prod_b()
    with pytest.raises(StrengthMismatch):
        product_concat_improved(prod_b(), prod_c(), e_wrong_t,
                                cover_t1(PartStructure((3, 4), (2, 2))))


def test_improved_checks_each_output_block_once(monkeypatch):
    calls = []
    real = gencov.core._check_block

    def counting(s, parts, *star):
        calls.append(parts)
        return real(s, parts, *star)

    monkeypatch.setattr(gencov.core, "_check_block", counting)
    d1, d2 = prod_b(), prod_c()
    e1, e2 = cover_t1(d1.structure), cover_t1(d2.structure)
    calls.clear()
    out = product_concat_improved(d1, d2, e1, e2)
    assert calls == list(out.blocks)


def test_improved_strength3_needs_explicit_helpers():
    from gencov import greedy_classical_cover
    d3 = greedy_classical_cover(4, 3, 3)
    with pytest.raises(InvalidInput):
        product_concat_improved(d3, d3)


# ------------------------------------------------------------------ set lift

def test_set_lift_reference_values():
    assert set_lift({1, 2}, {1, 2}, 3) == {1, 2, 4, 5}
    assert set_lift({1, 2, 3}, {1, 2, 4}, 4) == {1, 2, 3, 5, 6, 7, 13, 14, 15}
    assert set_lift({1}, {1}, 9) == {1}


def test_set_lift_size_and_range():
    R, S, v = {1, 3}, {1, 2, 5}, 3
    out = set_lift(R, S, v)
    assert len(out) == len(R) * len(S)
    assert all(1 <= x <= v * 5 for x in out)


def test_set_lift_rejects_bad_labels():
    with pytest.raises(LabelOutOfRange):
        set_lift({1, 4}, {1}, 3)
    with pytest.raises(LabelOutOfRange):
        set_lift({0}, {1}, 3)
    with pytest.raises(LabelOutOfRange):
        set_lift({1}, {0}, 3)


def test_mod1_residues():
    assert mod1(3, 3) == 3  # multiples map to v, never 0
    assert mod1(4, 3) == 1
    assert mod1(1, 5) == 1
    for x in range(1, 30):
        v = 4
        q = -(-x // v)
        assert x == mod1(x, v) + (q - 1) * v


# ------------------------------------------------------------------ hadamard

def test_hadamard_reproduces_reference():
    d = product_hadamard(hadamard_base(), hadamard_base())
    assert d.structure == PartStructure((9, 16), (4, 9))
    assert blocks_of(d) == HADAMARD_9_16_RAW
    assert verify(d).valid


def test_hadamard_counts():
    d = product_hadamard(mixed_422(), mixed_422())
    assert d.structure == PartStructure((16, 4, 4), (4, 1, 1))
    assert len(d) == 36
    assert all(len(b[i]) == d.structure.k[i] for b in d.blocks for i in range(3))
    assert verify(d).valid


def test_hadamard_identity_factor():
    ident = build((1, 1, 1), (1, 1, 1), 2, (((1,), (1,), (1,)),))
    d = product_hadamard(mixed_422(), ident)
    assert blocks_of(d) == blocks_of(mixed_422())
    assert len(product_hadamard(ident, ident)) == 1


def test_hadamard_errors():
    with pytest.raises(PartCountMismatch):
        product_hadamard(fano(), mixed_422())
    with pytest.raises(StrengthNotTwo):
        product_hadamard(cover_t1(PartStructure((3,), (2,))),
                         cover_t1(PartStructure((3,), (2,))))


def test_products_agree_with_oracle():
    d = product_concat_improved(prod_b(), prod_c())
    v, k, t, blocks, lam = oracle.as_raw(d)
    assert oracle.naive_valid(v, k, t, blocks, lam)
    h = product_hadamard(mixed_422(), mixed_422())
    v, k, t, blocks, lam = oracle.as_raw(h)
    assert oracle.naive_valid(v, k, t, blocks, lam)
