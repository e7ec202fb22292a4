"""Recursive product constructions combining two designs into a larger one.

product_concat concatenates part lists and pairs every block with every
block.  product_concat_improved pairs blocks diagonally and patches the
mixed tuples with a product of strength-(t-1) designs, which is usually
far smaller.  product_hadamard multiplies part sizes pointwise via the
set lift r + (s-1)v.  Each takes Designs and refuses a PlaceholderDesign.
"""

from __future__ import annotations

from .construct import cover_t1
from .core import Design, PartStructure, as_int, as_ints, require_design
from .errors import (
    InvalidInput,
    LabelOutOfRange,
    PartCountMismatch,
    StrengthMismatch,
    StrengthNotTwo,
    StructureMismatch,
)


def product_concat(d1: Design, d2: Design) -> Design:
    """All pairwise concatenations cat(B_i, C_j), row-major in (i, j);
    exactly b*c blocks over the concatenated structure."""
    for d in (d1, d2):
        require_design(d, "product_concat")
    if d1.t != d2.t:
        raise StrengthMismatch(f"strengths differ: {d1.t} vs {d2.t}")
    s = PartStructure(d1.structure.v + d2.structure.v,
                      d1.structure.k + d2.structure.k)
    blocks = tuple(b + c for b in d1.blocks for c in d2.blocks)
    return Design(s, d1.t, blocks, min(d1.lam, d2.lam))


def product_concat_improved(d1: Design, d2: Design,
                            e1: Design | None = None,
                            e2: Design | None = None) -> Design:
    """Diagonal pairing plus a strength-(t-1) patch product.

    Stage 1 concatenates B_r with C_r while both last, then reuses C_1
    as filler (the larger design drives the diagonal; inputs are swapped
    if needed, which swaps the part order too).  Stage 2 appends the
    blocks of product_concat(e1, e2), built from strength-(t-1) designs
    over the same structures; at t = 2 these default to the exact
    strength-1 covers, at t = 1 to empty designs.  Duplicates are kept,
    so the result has exactly max(b, c) + |e1|*|e2| blocks.
    """
    for d in (d1, d2, e1, e2):
        if d is not None:
            require_design(d, "product_concat_improved")
    if d1.t != d2.t:
        raise StrengthMismatch(f"strengths differ: {d1.t} vs {d2.t}")
    t = d1.t
    if len(d1.blocks) < len(d2.blocks):
        d1, d2 = d2, d1
        e1, e2 = e2, e1
    if e1 is None or e2 is None:
        if t == 2:
            e1 = cover_t1(d1.structure) if e1 is None else e1
            e2 = cover_t1(d2.structure) if e2 is None else e2
        elif t == 1:
            e1 = Design(d1.structure, 0) if e1 is None else e1
            e2 = Design(d2.structure, 0) if e2 is None else e2
        else:
            raise InvalidInput(
                f"strength-{t - 1} patch designs must be supplied for t = {t}"
            )
    for e, d in ((e1, d1), (e2, d2)):
        if e.structure != d.structure:
            raise StructureMismatch(
                f"patch structure {e.structure} differs from {d.structure}"
            )
        if e.t != t - 1:
            raise StrengthMismatch(f"patch strength {e.t}, expected {t - 1}")
    b, c = len(d1.blocks), len(d2.blocks)
    s = PartStructure(d1.structure.v + d2.structure.v,
                      d1.structure.k + d2.structure.k)
    stage1 = tuple(d1.blocks[r] + d2.blocks[r if r < c else 0] for r in range(b))
    stage2 = tuple(x + y for x in e1.blocks for y in e2.blocks)
    return Design(s, t, stage1 + stage2)


def mod1(x: int, v: int) -> int:
    """One-based residue: values 1..v, with mod1(v, v) = v."""
    return (x - 1) % v + 1


def set_lift(R, S, v: int) -> set[int]:
    """{r + (s-1)*v}: |R|*|S| points inside 1..v*max(S).  Labels and v
    that are not integers raise LabelOutOfRange."""
    R = set(as_ints(R, LabelOutOfRange, "lift label"))
    S = set(as_ints(S, LabelOutOfRange, "lift label"))
    v = as_int(v, LabelOutOfRange, "lift part size")
    if any(not 1 <= r <= v for r in R):
        raise LabelOutOfRange(f"lift needs R inside 1..{v}")
    if any(s < 1 for s in S):
        raise LabelOutOfRange("lift needs S labels >= 1")
    return {r + (s - 1) * v for r in R for s in S}


def product_hadamard(d1: Design, d2: Design) -> Design:
    """Pointwise product: part i gets size v_i*w_i and profile k_i*l_i,
    block pairs combine part by part through set_lift.  Row-major in
    (i, j); exactly b*c blocks."""
    for d in (d1, d2):
        require_design(d, "product_hadamard")
    if d1.t != 2 or d2.t != 2:
        raise StrengthNotTwo(f"both factors need strength 2, got {d1.t} and {d2.t}")
    if d1.structure.m != d2.structure.m:
        raise PartCountMismatch(
            f"part counts differ: {d1.structure.m} vs {d2.structure.m}"
        )
    v1 = d1.structure.v
    s = PartStructure(tuple(a * b for a, b in zip(v1, d2.structure.v)),
                      tuple(a * b for a, b in zip(d1.structure.k, d2.structure.k)))
    blocks = []
    for bb in d1.blocks:
        for cc in d2.blocks:
            blocks.append(tuple(
                tuple(sorted(set_lift(bb[i], cc[i], v1[i])))
                for i in range(s.m)
            ))
    return Design(s, 2, tuple(blocks), min(d1.lam, d2.lam))
