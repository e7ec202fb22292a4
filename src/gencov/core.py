"""Domain types and admissibility enumeration.

A generalized covering design lives on m disjoint parts of sizes
v = (v_1,...,v_m).  A block picks a k_i-subset of part i for every i,
where k = (k_1,...,k_m) is the block profile.  The design has strength t
when every admissible m-tuple of subsets with total size t is contained
in at least lambda blocks.

Point labels are 1-based within each part.  Blocks are canonicalized on
construction: each part is stored as a sorted tuple of labels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, product
from math import comb
from operator import index
from typing import Iterator, Sequence

from .errors import (
    EntryOutOfAlphabet,
    LabelOutOfRange,
    LengthMismatch,
    NonPositiveEntry,
    NotUnitProfile,
    ProfileExceedsPart,
    StrengthTooLarge,
    StructureMismatch,
)

# A block is an m-tuple of sorted label tuples, one per part.
Block = tuple[tuple[int, ...], ...]
# Placeholder marker inside the parts of a PlaceholderDesign's blocks;
# real labels are integers >= 1.
STAR = "*"
# A pattern is an m-tuple of non-negative subset sizes summing to t.
Pattern = tuple[int, ...]
# A set tuple is shaped like a block but sized by a pattern.
SetTuple = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class PartStructure:
    """The parameter pair (v, k): part sizes and block profile."""

    v: tuple[int, ...]
    k: tuple[int, ...]

    def __post_init__(self):
        try:
            object.__setattr__(self, "v", tuple(map(index, self.v)))
            object.__setattr__(self, "k", tuple(map(index, self.k)))
        except TypeError:
            raise NonPositiveEntry(
                f"entries must be integers, got v={self.v} k={self.k}") from None
        if len(self.v) == 0 or len(self.v) != len(self.k):
            raise LengthMismatch(f"v has length {len(self.v)}, k has length {len(self.k)}")
        for vi, ki in zip(self.v, self.k):
            if vi < 1 or ki < 1:
                raise NonPositiveEntry(f"entries must be positive, got v={self.v} k={self.k}")
            if ki > vi:
                raise ProfileExceedsPart(f"profile {ki} exceeds part size {vi}")
        # One object per block that searches on this structure handed out,
        # so that the designs they return share their blocks.  Not a field:
        # equality and hashing see only (v, k).
        object.__setattr__(self, "_shared_blocks", {})

    @property
    def m(self) -> int:
        return len(self.v)

    @property
    def v_sum(self) -> int:
        return sum(self.v)

    @property
    def k_sum(self) -> int:
        return sum(self.k)

    @property
    def k_min(self) -> int:
        return min(self.k)

    def block_count_possible(self) -> int:
        """Number of distinct blocks this structure admits."""
        n = 1
        for vi, ki in zip(self.v, self.k):
            n *= comb(vi, ki)
        return n


def make_structure(v: Sequence[int], k: Sequence[int]) -> PartStructure:
    """Validate and build a PartStructure from two integer vectors."""
    return PartStructure(tuple(v), tuple(k))


def make_block(structure: PartStructure, parts: Sequence[Sequence[int]]) -> Block:
    """Canonicalize one block against a structure: sort labels and check
    that part i holds k_i distinct integers in 1..v_i.

    A block that is already canonical (a tuple of sorted int tuples) is
    returned as the same object, so designs built from shared blocks
    share them.  A block that is itself in the structure's shared-block
    registry, which holds only canonical blocks that searches built, is
    returned at once, unchecked; an equal but different object, or an
    unhashable one, takes the full check.  This check is the one that
    Design and PlaceholderDesign make on each of their blocks."""
    return _check_block(structure, parts)


def _check_block(structure: PartStructure, parts, star=None) -> tuple:
    """make_block's check.  Given the placeholder marker star, a part may
    also hold star entries: each counts toward k_i, and they go after the
    sorted labels."""
    try:
        if structure._shared_blocks.get(parts) is parts:
            return parts
    except TypeError:  # unhashable parts, such as lists
        pass
    if len(parts) != structure.m:
        raise StructureMismatch(f"block has {len(parts)} parts, structure has {structure.m}")
    out = []
    canonical = type(parts) is tuple
    for i, (vi, ki, raw) in enumerate(zip(structure.v, structure.k, parts), start=1):
        entries, stars = raw, ()
        if star is not None:
            entries = [x for x in raw if x != star]
            stars = (star,) * (len(raw) - len(entries))
        try:
            labels = tuple(sorted(map(index, entries)))
        except TypeError:
            raise LabelOutOfRange(f"part {i} labels must be integers, got {raw!r}") from None
        if len(labels) + len(stars) != ki or len(set(labels)) != len(labels):
            raise ProfileExceedsPart(
                f"part {i} holds {len(raw)} labels, profile requires {ki} distinct"
            )
        if labels and (labels[0] < 1 or labels[-1] > vi):
            raise LabelOutOfRange(f"part {i} label outside 1..{vi}: {labels}")
        canonical = (canonical and type(raw) is tuple and raw == labels
                     and all(type(x) is int for x in raw))
        out.append(labels + stars)
    return parts if canonical else tuple(out)


def as_int(x, error: type[Exception], what: str) -> int:
    """x coerced with operator.index; error when x is not an integer."""
    try:
        return index(x)
    except TypeError:
        raise error(f"{what} must be an integer, got {x!r}") from None


def check_strength_lambda(s: PartStructure, t, lam) -> tuple[int, int]:
    """(t, lam) as integers with 0 <= t <= k_sum and lam >= 1, the checks
    every design of structure s makes."""
    t = as_int(t, StrengthTooLarge, "strength")
    if t < 0:
        raise StrengthTooLarge(f"strength must be non-negative, got {t}")
    if t > s.k_sum:
        raise StrengthTooLarge(f"strength {t} exceeds profile sum {s.k_sum}")
    lam = as_int(lam, NonPositiveEntry, "lambda")
    if lam < 1:
        raise NonPositiveEntry(f"lambda must be positive, got {lam}")
    return t, lam


@dataclass(frozen=True)
class Design:
    """An ordered multiset of blocks with declared strength and lambda.

    Repeated blocks are permitted; order is preserved as given.
    """

    structure: PartStructure
    t: int
    blocks: tuple[Block, ...] = field(default=())
    lam: int = 1

    def __post_init__(self):
        t, lam = check_strength_lambda(self.structure, self.t, self.lam)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "blocks", tuple(
            _check_block(self.structure, b) for b in self.blocks))

    def __len__(self) -> int:
        return len(self.blocks)


def admissible_patterns(s: PartStructure, t: int) -> list[Pattern]:
    """All vectors tt with tt <= k componentwise and sum t.

    Ordered with larger leading entries first, the order the worked
    examples use; e.g. k=(2,1,1), t=2 gives (2,0,0), (1,1,0), (1,0,1),
    (0,1,1).
    """
    t = as_int(t, StrengthTooLarge, "strength")
    if t < 0 or t > s.k_sum:
        raise StrengthTooLarge(f"strength {t} not in 0..{s.k_sum}")
    # Room left in the parts after position i; pushing the choices for part
    # i in ascending order pops them in descending order.
    room = [sum(s.k[i + 1:]) for i in range(s.m)]
    out: list[Pattern] = []
    stack: list[Pattern] = [()]
    while stack:
        head = stack.pop()
        i = len(head)
        if i == s.m:
            out.append(head)
            continue
        rem = t - sum(head)
        stack.extend(head + (x,) for x in range(max(0, rem - room[i]), min(s.k[i], rem) + 1))
    return out


def admissible_tuples(s: PartStructure, p: Pattern) -> Iterator[SetTuple]:
    """Yield every set tuple matching pattern p, ascending lexicographically."""
    pools = (combinations(range(1, vi + 1), ti) for vi, ti in zip(s.v, p))
    return product(*pools)


def pattern_tuple_count(s: PartStructure, p: Pattern) -> int:
    n = 1
    for vi, ti in zip(s.v, p):
        n *= comb(vi, ti)
    return n


def tuple_in_block(T: SetTuple, B: Block) -> bool:
    """Componentwise containment: T_i is a subset of B_i for every part."""
    if len(T) != len(B):
        raise StructureMismatch(f"tuple has {len(T)} parts, block has {len(B)}")
    return all(set(Ti) <= set(Bi) for Ti, Bi in zip(T, B))


def from_covering_array(rows: Sequence[Sequence[object]], t: int = 2,
                        alphabets: Sequence[Sequence[object]] | None = None,
                        lam: int = 1) -> Design:
    """Read an N x k array as a unit-profile design.

    Column symbols map to labels 1..s_i via the sorted order of the
    distinct symbols seen, unless explicit per-column alphabets are given.
    """
    rows = [tuple(r) for r in rows]
    if not rows:
        raise LengthMismatch("array has no rows")
    ncols = len(rows[0])
    if ncols == 0 or any(len(r) != ncols for r in rows):
        raise LengthMismatch("rows must be nonempty and of equal length")
    if alphabets is None:
        alphabets = [sorted({r[i] for r in rows}) for i in range(ncols)]
    else:
        alphabets = [list(a) for a in alphabets]
        if len(alphabets) != ncols:
            raise LengthMismatch(f"{len(alphabets)} alphabets for {ncols} columns")
    maps = [{sym: j + 1 for j, sym in enumerate(a)} for a in alphabets]
    for r in rows:
        for i, entry in enumerate(r):
            if entry not in maps[i]:
                raise EntryOutOfAlphabet(f"entry {entry!r} not in column {i + 1} alphabet")
    s = make_structure(tuple(len(a) for a in alphabets), (1,) * ncols)
    blocks = tuple(tuple((maps[i][r[i]],) for i in range(ncols)) for r in rows)
    return Design(s, t, blocks, lam)


def to_covering_array(d: Design,
                      alphabets: Sequence[Sequence[object]] | None = None) -> list[tuple]:
    """Inverse of from_covering_array: one row of symbols per block.

    Without alphabets, rows carry the 1-based labels themselves.
    """
    if any(ki != 1 for ki in d.structure.k):
        raise NotUnitProfile(f"profile must be all ones, got {d.structure.k}")
    if alphabets is not None:
        alphabets = [list(a) for a in alphabets]
        if len(alphabets) != d.structure.m:
            raise LengthMismatch(f"{len(alphabets)} alphabets for {d.structure.m} parts")
        for a, vi in zip(alphabets, d.structure.v):
            if len(a) != vi:
                raise EntryOutOfAlphabet(f"alphabet size {len(a)} does not match part size {vi}")
        return [tuple(alphabets[i][b[i][0] - 1] for i in range(d.structure.m))
                for b in d.blocks]
    return [tuple(b[i][0] for i in range(d.structure.m)) for b in d.blocks]
