"""Domain types and admissibility enumeration.

A generalized covering design lives on m disjoint parts of sizes
v = (v_1,...,v_m).  A block picks a k_i-subset of part i for every i,
where k = (k_1,...,k_m) is the block profile.  The design has strength t
when every admissible m-tuple of subsets with total size t is contained
in at least lambda blocks.

Point labels are 1-based within each part.  Blocks are canonicalized on
construction: each part is stored as a sorted tuple of labels.  Design
and PlaceholderDesign share one body; a PlaceholderDesign's parts may
also hold STAR, which counts toward k_i and which fill() sets to the
least label its part lacks.

core also holds the generalized Schönheim recursion, which bounds and
search both use, and alone reads and writes each structure's shared
blocks.  Package imports run one way: core, then verify, search and io,
then construct, then bounds and product, then cli.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate, combinations, product
from math import comb
from operator import index, is_, lt, mul
from typing import Iterator, Sequence

from .errors import (
    EntryOutOfAlphabet,
    LabelOutOfRange,
    LengthMismatch,
    NonPositiveEntry,
    NotUnitProfile,
    ParameterOrderViolated,
    PlaceholdersPresent,
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
        object.__setattr__(self, "v", as_ints(self.v, NonPositiveEntry, "part size"))
        object.__setattr__(self, "k", as_ints(self.k, NonPositiveEntry, "profile entry"))
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
    return PartStructure(v, k)


def make_block(structure: PartStructure, parts: Sequence[Sequence[int]]) -> Block:
    """Canonicalize one block against a structure: sort labels and check
    that part i holds k_i distinct integers in 1..v_i.  Labels are
    coerced with operator.index, so bools and numpy integers come back as
    exact ints; anything else, or a block or part that is not iterable,
    raises LabelOutOfRange.

    A block that is already canonical (a tuple of sorted exact-int
    tuples) is returned as the same object, so designs built from shared
    blocks share them.  A block that is itself in the structure's
    shared-block registry, which holds only canonical blocks that
    searches built, is returned at once, unchecked; an equal but
    different object, or an unhashable one, takes the full check.  This
    check is the one that Design and PlaceholderDesign make on each of
    their blocks."""
    return _check_block(structure, parts)


def _check_block(structure: PartStructure, parts, star=None) -> tuple:
    """make_block's check.  Given the placeholder marker star, a part may
    also hold star entries: each counts toward k_i, and they go after the
    sorted labels.

    Each part's labels are read once.  A strictly increasing run of
    labels is sorted and distinct at once; only a part that fails that
    test is sorted and tested again.  operator.index returns an exact int
    as itself, so a part is canonical iff it is a tuple without stars
    whose entries are its labels, object for object."""
    try:
        # get's default, None, is no block
        if parts is not None and structure._shared_blocks.get(parts) is parts:
            return parts
    except TypeError:  # unhashable parts, such as lists
        pass
    canonical = type(parts) is tuple
    if not canonical:  # a list or an iterator of parts
        try:
            parts = tuple(parts)
        except TypeError:
            raise LabelOutOfRange(f"block must be an iterable of parts, got {parts!r}") from None
    if len(parts) != structure.m:
        raise StructureMismatch(f"block has {len(parts)} parts, structure has {structure.m}")
    out = []
    for i, (vi, ki, raw) in enumerate(zip(structure.v, structure.k, parts), start=1):
        # Counts come from the entries read, so a part may be an iterator.
        stars = ()
        try:
            if star is None:
                labels = tuple(map(index, raw))
            else:
                read = list(raw)
                labels = tuple(map(index, [x for x in read if x != star]))
                stars = (star,) * (len(read) - len(labels))
        except TypeError:
            raise LabelOutOfRange(f"part {i} labels must be integers, got {raw!r}") from None
        increasing = all(map(lt, labels, labels[1:]))
        if not increasing:
            labels = tuple(sorted(labels))
            increasing = all(map(lt, labels, labels[1:]))
        n = len(labels) + len(stars)
        if n != ki or not increasing:
            raise ProfileExceedsPart(f"part {i} holds {n} labels, profile requires {ki} distinct")
        if labels and (labels[0] < 1 or labels[-1] > vi):
            raise LabelOutOfRange(f"part {i} label outside 1..{vi}: {labels}")
        canonical = (canonical and type(raw) is tuple and not stars
                     and all(map(is_, raw, labels)))
        out.append(labels + stars)
    return parts if canonical else tuple(out)


def _check_blocks(structure: PartStructure, blocks, star=None) -> tuple:
    """Each of blocks through _check_block; blocks that are not iterable
    raise LabelOutOfRange, as a block that is not iterable does."""
    try:
        blocks = iter(blocks)
    except TypeError:
        raise LabelOutOfRange(f"blocks must be an iterable of blocks, got {blocks!r}") from None
    return tuple([_check_block(structure, b, star) for b in blocks])


def _check_labels(structure: PartStructure, labels) -> bool:
    """Whether labels, the label arrays of verify's module docstring
    (labels as written, one-based) of at least one block of structure,
    hold blocks by _check_block's rules: labels strictly increasing, in
    1..v_i.  As _check_block sorts a part that is not increasing, each
    array's rows are sorted in place first; nothing else is checked or
    converted.  Array methods only: core does not import numpy."""
    for lab, vi in zip(labels, structure.v):
        lab.sort(axis=1)
        if not (lab[:, 0].min() >= 1 and lab[:, -1].max() <= vi
                and (lab[:, 1:] > lab[:, :-1]).all()):
            return False
    return True


def _shared_design(s: PartStructure, t: int, blocks) -> Design:
    """A design whose blocks come from the structure's shared blocks, so
    that the designs a caller keeps of one structure share their block
    objects instead of each holding its own copy of every block."""
    return Design(s, t, tuple(s._shared_blocks.setdefault(b, b) for b in blocks))


def as_int(x, error: type[Exception], what: str) -> int:
    """x coerced with operator.index; error when x is not an integer."""
    try:
        return index(x)
    except TypeError:
        raise error(f"{what} must be an integer, got {x!r}") from None


def as_ints(xs, error: type[Exception], what: str) -> tuple[int, ...]:
    """xs as a tuple of ints, each coerced with operator.index; error when
    xs is not an iterable of integers."""
    try:
        return tuple(map(index, xs))
    except TypeError:
        raise error(f"each {what} must be an integer, got {xs!r}") from None


def check_strength_lambda(s: PartStructure, t, lam) -> tuple[int, int]:
    """(t, lam) as integers with 0 <= t <= k_sum and lam >= 1, the checks
    every design of structure s makes."""
    require_structure(s, "a design")
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
class _BlockDesign:
    """Design's and PlaceholderDesign's body; _star is the class's
    placeholder marker.  Neither subclasses the other, so they never
    compare equal and require_design refuses a PlaceholderDesign."""

    structure: PartStructure
    t: int
    blocks: tuple[Block, ...] = field(default=())
    lam: int = 1
    _star = None

    def __post_init__(self):
        t, lam = check_strength_lambda(self.structure, self.t, self.lam)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "blocks", _check_blocks(self.structure, self.blocks, self._star))

    def __len__(self) -> int:
        return len(self.blocks)


class Design(_BlockDesign):
    """An ordered multiset of blocks with declared strength and lambda.

    Repeated blocks are permitted; order is preserved as given.
    """


class PlaceholderDesign(_BlockDesign):
    """A design whose block parts may hold STAR, a don't-care entry."""

    _star = STAR

    def fill(self) -> Design:
        """Replace each placeholder with the least unused label of its
        part, then drop exact repeats at lambda = 1."""
        filled = (tuple(_pad([x for x in part if x != STAR], len(part)) for part in b)
                  for b in self.blocks)
        return Design(self.structure, self.t, _drop_repeats(filled, self.lam), self.lam)


def _pad(labels, k: int) -> tuple[int, ...]:
    """labels and the least labels not among them, k in all, sorted."""
    out = list(labels)
    fill = 1
    while len(out) < k:
        if fill not in out:
            out.append(fill)
        fill += 1
    return tuple(sorted(out))


def _drop_repeats(blocks, lam: int) -> tuple[Block, ...]:
    """blocks without exact repeats at lambda = 1, where a repeat never
    helps; every block, repeats too, at larger lambda."""
    return tuple(dict.fromkeys(blocks)) if lam == 1 else tuple(blocks)


def require_structure(s, op: str) -> None:
    """Raise StructureMismatch unless s is a PartStructure: op, the
    operation's name, takes one."""
    if not isinstance(s, PartStructure):
        raise StructureMismatch(f"{op} takes a PartStructure, got a {type(s).__name__}")


def require_design(d, op: str) -> None:
    """Raise PlaceholdersPresent unless d is a Design: op, the operation's
    name, takes filled blocks, not a PlaceholderDesign's or anything else."""
    if not isinstance(d, Design):
        raise PlaceholdersPresent(f"{op} takes a Design, got a {type(d).__name__}; fill it first")


def admissible_patterns(s: PartStructure, t: int) -> list[Pattern]:
    """All vectors tt with tt <= k componentwise and sum t.

    Ordered with larger leading entries first, the order the worked
    examples use; e.g. k=(2,1,1), t=2 gives (2,0,0), (1,1,0), (1,0,1),
    (0,1,1).
    """
    return list(_walk_patterns(s, t))


def _walk_patterns(s: PartStructure, t: int) -> Iterator[Pattern]:
    """admissible_patterns one at a time, so that a caller can refuse a
    pattern before the rest are made; t is checked on the first call of
    next().  A depth-first walk that holds one descending range of
    choices per part, not the choices themselves."""
    t = as_int(t, StrengthTooLarge, "strength")
    if t < 0 or t > s.k_sum:
        raise StrengthTooLarge(f"strength {t} not in 0..{s.k_sum}")
    # Room left in the parts after position i.
    room = list(accumulate(reversed(s.k[1:]), initial=0))[::-1]

    def choices(i: int, rem: int) -> Iterator[int]:
        return iter(range(min(s.k[i], rem), max(0, rem - room[i]) - 1, -1))

    head: list[int] = []
    rem = t
    # stack[i] holds part i's choices left; there is one more than head.
    stack = [choices(0, t)]
    while stack:
        x = next(stack[-1], None)
        if x is None:
            stack.pop()
            if head:
                rem += head.pop()
        elif len(stack) == s.m:
            yield (*head, x)
        else:
            head.append(x)
            rem -= x
            stack.append(choices(len(stack), rem))


def _check_pattern(s: PartStructure, p) -> Pattern:
    """p as integers, one non-negative entry per part of s."""
    p = as_ints(p, StrengthTooLarge, "pattern entry")
    if len(p) != s.m:
        raise LengthMismatch(f"pattern has {len(p)} entries, structure has {s.m} parts")
    if min(p) < 0:
        raise StrengthTooLarge(f"pattern entries must be non-negative, got {p}")
    return p


def admissible_tuples(s: PartStructure, p: Pattern) -> Iterator[SetTuple]:
    """Yield every set tuple matching pattern p, ascending lexicographically."""
    p = _check_pattern(s, p)
    pools = (combinations(range(1, vi + 1), ti) for vi, ti in zip(s.v, p))
    return product(*pools)


def pattern_tuple_count(s: PartStructure, p: Pattern) -> int:
    p = _check_pattern(s, p)
    n = 1
    for vi, ti in zip(s.v, p):
        n *= comb(vi, ti)
    return n


def lower_schonheim(s: PartStructure, t: int) -> int:
    """Generalized Schönheim bound (Schönheim, Pacific J. Math. 14, 1964).

    The blocks through a point x of part i, with x removed, form a GC of
    strength t-1 on (v - e_i, k - e_i), where a part whose profile drops
    to 0 disappears.  Each block holds k_i points of part i, so
    L(v,k,t) = max_i ceil(v_i/k_i L(v-e_i, k-e_i, t-1)), with
    L(v,k,1) = max_i ceil(v_i/k_i).  For m = 1 this is bounds.schonheim(),
    computed in a loop.

    A unit part (k_i = 1) steps once, multiplying by v_i exactly, and
    v ceil(x) >= ceil(v x), so some best path takes its unit steps
    outermost, on the largest unit parts: L(P, t) is the max over j of
    the product of the j largest unit v_i times W(N, t - j), W the
    recursion on the other parts N (_schonheim_rec), W(N, 0) = 1.  Two or
    more parts of N recurse once per unit of t, and a depth the
    interpreter cannot take raises StrengthTooLarge.
    """
    require_structure(s, "lower_schonheim")
    t = as_int(t, StrengthTooLarge, "strength")
    if not 1 <= t <= s.k_sum:
        raise ParameterOrderViolated(f"need 1 <= t <= k_sum = {s.k_sum}, got t={t}")
    units = sorted((vi for vi, ki in zip(s.v, s.k) if ki == 1), reverse=True)
    rest = tuple(sorted((vi, ki) for vi, ki in zip(s.v, s.k) if ki > 1))
    room = s.k_sum - len(units)
    memo: dict = {}
    best = 0
    try:
        for j, outer in enumerate(accumulate(units[:t], mul, initial=1)):
            if t - j <= room:
                best = max(best, outer * _schonheim_rec(rest, t - j, memo))
    except RecursionError:
        raise StrengthTooLarge(
            f"the Schönheim recursion on {s.m} parts at strength {t} is deeper than "
            "the interpreter allows") from None
    return best


def _schonheim_rec(parts: tuple[tuple[int, int], ...], t: int, memo: dict) -> int:
    """W(parts, t), lower_schonheim's recursion on sorted (v_i, k_i) pairs,
    each k_i >= 2, so that identical parts share memo entries and no
    unit part enters the memo; 0 <= t <= their k_sum.  Of equal parts,
    only the first is stepped.  The memo lives for one lower_schonheim
    call.  One part is the plain nested ceiling (_schonheim_single), so
    only two or more parts recurse, once per unit of t.  A part of
    profile 2 steps to the unit part (v_i - 1, 1), whose step goes
    outermost, as in lower_schonheim."""
    if t <= 1:
        return max(-(vi // -ki) for vi, ki in parts) if t else 1
    if len(parts) == 1:
        return _schonheim_single(*parts[0], t)
    if (parts, t) not in memo:
        k_sum = sum(ki for _, ki in parts)
        best = 0
        for i, (vi, ki) in enumerate(parts):
            if i and parts[i - 1] == (vi, ki):
                continue  # an equal part gives the same branch
            rest = parts[:i] + parts[i + 1:]
            if ki > 2:
                inner = _schonheim_rec(tuple(sorted(rest + ((vi - 1, ki - 1),))), t - 1, memo)
            else:
                inner = (vi - 1) * _schonheim_rec(rest, t - 2, memo)
                if t - 1 <= k_sum - ki:
                    inner = max(inner, _schonheim_rec(rest, t - 1, memo))
            best = max(best, -(vi * inner // -ki))
        memo[parts, t] = best
    return memo[parts, t]


def _schonheim_single(v: int, k: int, t: int) -> int:
    """The recursion on the one part (v, k), t <= k, in a loop of t
    steps: ceil(v/k ceil((v-1)/(k-1) ... ceil((v-t+1)/(k-t+1))))."""
    x = 1
    for j in reversed(range(t)):
        x = -((v - j) * x // -(k - j))
    return x


def tuple_in_block(T: SetTuple, B: Block) -> bool:
    """Componentwise containment: T_i is a subset of B_i for every part."""
    try:
        if len(T) != len(B):
            raise StructureMismatch(f"tuple has {len(T)} parts, block has {len(B)}")
        return all(set(Ti) <= set(Bi) for Ti, Bi in zip(T, B))
    except TypeError:
        raise StructureMismatch(
            f"tuple and block must be sequences of parts, got {T!r} and {B!r}") from None


def _alphabets(alphabets, ncols: int) -> list[list]:
    """alphabets as ncols lists of symbols, one per column; alphabets that
    are not sequences raise EntryOutOfAlphabet, as a wrong-sized one does."""
    try:
        alphabets = [list(a) for a in alphabets]
    except TypeError:
        raise EntryOutOfAlphabet(
            f"alphabets must be a sequence of symbol sequences, got {alphabets!r}") from None
    if len(alphabets) != ncols:
        raise LengthMismatch(f"{len(alphabets)} alphabets for {ncols} columns")
    return alphabets


def from_covering_array(rows: Sequence[Sequence[object]], t: int = 2,
                        alphabets: Sequence[Sequence[object]] | None = None,
                        lam: int = 1) -> Design:
    """Read an N x k array as a unit-profile design.

    Column symbols map to labels 1..s_i via the sorted order of the
    distinct symbols seen, unless explicit per-column alphabets are given.
    Symbols that cannot be hashed, or sorted when there are no alphabets,
    raise EntryOutOfAlphabet.
    """
    try:
        rows = [tuple(r) for r in rows]
    except TypeError:
        raise LengthMismatch(f"array must be a sequence of rows, got {rows!r}") from None
    if not rows:
        raise LengthMismatch("array has no rows")
    ncols = len(rows[0])
    if ncols == 0 or any(len(r) != ncols for r in rows):
        raise LengthMismatch("rows must be nonempty and of equal length")
    try:
        if alphabets is None:
            alphabets = [sorted({r[i] for r in rows}) for i in range(ncols)]
        else:
            alphabets = _alphabets(alphabets, ncols)
        maps = [{sym: j + 1 for j, sym in enumerate(a)} for a in alphabets]
        for r in rows:
            for i, entry in enumerate(r):
                if entry not in maps[i]:
                    raise EntryOutOfAlphabet(f"entry {entry!r} not in column {i + 1} alphabet")
    except TypeError as e:
        raise EntryOutOfAlphabet(f"array symbols must be hashable and sortable: {e}") from None
    s = make_structure(tuple(len(a) for a in alphabets), (1,) * ncols)
    blocks = tuple(tuple((maps[i][r[i]],) for i in range(ncols)) for r in rows)
    return Design(s, t, blocks, lam)


def to_covering_array(d: Design,
                      alphabets: Sequence[Sequence[object]] | None = None) -> list[tuple]:
    """Inverse of from_covering_array: one row of symbols per block.

    Without alphabets, rows carry the 1-based labels themselves.
    """
    require_design(d, "to_covering_array")
    if any(ki != 1 for ki in d.structure.k):
        raise NotUnitProfile(f"profile must be all ones, got {d.structure.k}")
    if alphabets is not None:
        alphabets = _alphabets(alphabets, d.structure.m)
        for a, vi in zip(alphabets, d.structure.v):
            if len(a) != vi:
                raise EntryOutOfAlphabet(f"alphabet size {len(a)} does not match part size {vi}")
        return [tuple(alphabets[i][b[i][0] - 1] for i in range(d.structure.m))
                for b in d.blocks]
    return [tuple(b[i][0] for i in range(d.structure.m)) for b in d.blocks]
