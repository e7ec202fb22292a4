"""Decide whether a design covers everything it must, with witnesses.

For each admissible pattern the verifier ranks every sub-tuple each block
holds and adds the ranks into one count array with np.add.at; the tuple
universe itself is never enumerated.  A tuple's rank mixes the lex ranks
of its parts' subsets in mixed radix, last part fastest, so rank order is
the order of core.admissible_tuples.  Ranking follows Kreher & Stinson,
Combinatorial Algorithms (1999), ch. 2.  Per pattern, each used part's
rank is split into per-slot terms for every label of every block, radix
weight and constant included.  A chunk of blocks is ranked slot by slot,
summed in place: slot 0 of the lex subsets is nondecreasing, so its terms
are repeated along their runs, and every later slot takes one gather.
Counts take the smallest unsigned type that holds the block count (one
byte up to 255 blocks).

Coverage is counted by one scan of per-part label arrays, which verify,
coverage_deficit, `gencov verify` and construct's prune_redundant
share.  The label arrays are one (n_blocks, k_i) integer array per
part, holding the labels exactly as blocks and files write them,
one-based; _part_labels builds them from blocks, io.parse_label_arrays
reads them from a file's block section and core._check_labels checks
them against the block rules, and none of these converts them.  One
size rule (_patterns) is checked before any array is built from blocks,
and before any count: no pattern may have more than PATTERN_TUPLE_CAP
tuples, nor tuples of more than PATTERN_TUPLE_CAP labels, so every
label fits in an array.  `gencov verify` reads its arrays from the file
first, and the rule refuses them before they are counted.  numpy is
imported by the first label build or count, not with the module.

A pattern's count is split in two: a set-up built from the label arrays
(_pattern_setup: slot terms, slot-0 run lengths, slot columns, chunk
step and count dtype), and the count itself (_pattern_counts).  Every
caller counts by one flow: _block_labels (the size rule, then the label
arrays), _setups (each pattern's set-up, made when asked for) and one
deficit walk, _deficits (each set-up counted, over all blocks or the
rows given, and its tuples held fewer than lambda times listed by rank
and count).  The walk stops once cap tuples are listed, so no pattern
after that is counted, and it searches the counts a chunk at a time,
so no index array of every deficient tuple is built.  _report reads the
walk at DEFICIT_CAP and takes its checked totals from the size rule;
coverage_deficit is the walk at its cap, decoded.  verify,
coverage_deficit and `gencov verify` hold one set-up at a time; a prune
lists its set-ups once and reports on the rows each trial keeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .core import (
    Block,
    Design,
    Pattern,
    PartStructure,
    SetTuple,
    _walk_patterns,
    as_int,
    pattern_tuple_count,
    require_design,
)
from .errors import NonPositiveEntry, UniverseTooLarge

DEFICIT_CAP = 1000

# Most tuples one pattern may have.  Counting them holds the counts, in
# the smallest type that holds the block count: 1 byte a tuple up to 255
# blocks (64 MiB at the cap), 2 bytes up to 65,535.
PATTERN_TUPLE_CAP = 1 << 26

# Sub-tuple ranks added per np.add.at call, and counts searched per step
# of the deficit walk; bounds the transient memory.
_CHUNK = 1 << 16

# Bound by _bind_numpy, before any label build or count.
np = None


@dataclass(frozen=True)
class VerificationReport:
    """Whether every admissible tuple lies in at least lambda blocks.

    checked_patterns and checked_tuples describe the whole universe, every
    admissible pattern and tuple, even when the deficit walk stops early.
    first_uncovered is the first tuple held fewer than lambda times in the
    global (pattern, tuple) order, or None, and deficient_count is how many
    there are, capped at DEFICIT_CAP: the first entry and the length of
    coverage_deficit at its default cap.
    """

    valid: bool
    checked_patterns: int
    checked_tuples: int
    first_uncovered: SetTuple | None
    deficient_count: int

    def __bool__(self) -> bool:
        return self.valid


def _bind_numpy() -> None:
    global np
    import numpy as np


def _patterns(s: PartStructure, t: int) -> list[tuple[Pattern, int]]:
    """(pattern, tuple count) of every admissible pattern of strength t in
    the global order, none at strength 0.  The one size rule, checked
    before any label array is built from blocks, and before any count:
    UniverseTooLarge for a pattern of more than PATTERN_TUPLE_CAP tuples,
    or, when no count is above the cap, for tuples of more than
    PATTERN_TUPLE_CAP labels (t above it).

    So at t >= 1 every structure passed has every v_i <= PATTERN_TUPLE_CAP,
    and labels too large for an array are refused too: some pattern takes
    t_i = min(k_i, t) >= 1 points of part i, and either t_i < v_i, and
    that pattern has at least v_i tuples, or t_i = v_i <= t.

    The patterns are walked one at a time, so a refusal comes before the
    patterns after it are made."""
    out = []
    for p in (_walk_patterns(s, t) if t else ()):
        n_tuples = pattern_tuple_count(s, p)
        if n_tuples > PATTERN_TUPLE_CAP:
            raise UniverseTooLarge(
                f"pattern {p} has {n_tuples} tuples, above cap {PATTERN_TUPLE_CAP}")
        out.append((p, n_tuples))
    if t > PATTERN_TUPLE_CAP:
        raise UniverseTooLarge(
            f"tuples of strength {t} hold {t} labels, above cap {PATTERN_TUPLE_CAP}")
    return out


def _block_labels(s: PartStructure, t: int, blocks: tuple[Block, ...]) -> list[np.ndarray]:
    """The label arrays of blocks at strength t: _patterns first, then
    _part_labels, or no labels where there is no pattern."""
    return _part_labels(s, blocks) if _patterns(s, t) else []


def _part_labels(s: PartStructure, blocks: tuple[Block, ...]) -> list[np.ndarray]:
    """The label arrays (see the module docstring) of blocks, canonical
    blocks of s."""
    _bind_numpy()
    n = len(blocks)
    return [np.array([b[i] for b in blocks], dtype=np.intp).reshape(n, ki)
            for i, ki in enumerate(s.k)]


def _binom(x: np.ndarray, j: int) -> np.ndarray:
    """C(x, j) elementwise for x >= 0; each step is an exact division."""
    out = np.ones_like(x)
    for i in range(j):
        out = out * (x - i) // (i + 1)
    return out


def _slot_terms(labels: np.ndarray, v: int, t: int, weight: int) -> list[np.ndarray]:
    """Slot j's share of the rank, times weight, for every entry of labels.

    A sorted t-subset a_0 < ... < a_{t-1} of 1..v has lex rank
    C(v, t) - 1 - sum_j C(v - a_j, t - j); term j holds the j-th
    summand with its sign, the constant folded into term 0.  Entries that
    cannot stand in slot j hold values no gather reads.
    """
    x = v - labels
    return ([weight * (comb(v, t) - 1 - _binom(x, t))]
            + [-weight * _binom(x, t - j) for j in range(1, t)])


def _slot_columns(k: int, t: int) -> list[np.ndarray]:
    """Slot j of every t-subset of range(k) in lex order, one contiguous
    array per slot, for 1 <= t <= k.  Slot 0 is nondecreasing: position a
    stands there in one run of C(k - 1 - a, t - 1) subsets."""
    cols = [np.arange(k, dtype=np.intp)]
    for _ in range(1, t):
        # each prefix ending in a is followed by a + 1, ..., k - 1
        reps = k - 1 - cols[-1]
        ends = np.cumsum(reps)
        offset = np.arange(ends[-1]) - np.repeat(ends - reps, reps)
        cols = [c.repeat(reps) for c in cols]
        cols.append(cols[-1] + 1 + offset)
    return cols


def _pattern_setup(labels: list[np.ndarray], s: PartStructure, p: Pattern,
                   n_tuples: int) -> tuple:
    """What _pattern_counts needs to count the n_tuples tuples of pattern
    p over the label arrays labels, built from the labels once: per used
    part its slot terms, slot-0 run lengths and later slot columns, then
    the tuple count, the block count, the chunk step in blocks and the
    count dtype, the smallest unsigned type that holds the block count."""
    # Part i's rank is weighted by the tuple count of the parts after it
    # (mixed radix, last part fastest), so parts combine by addition.
    used = []
    weight = n_tuples
    width = 1  # sub-tuples per block
    for lab, vi, ti in zip(labels, s.v, p):
        if ti:
            weight //= comb(vi, ti)
            k = lab.shape[1]
            width *= comb(k, ti)
            runs = np.array([comb(k - 1 - a, ti - 1) for a in range(k)], dtype=np.intp)
            used.append((_slot_terms(lab, vi, ti, weight), runs, _slot_columns(k, ti)[1:]))
    n_blocks = len(labels[0])
    return used, n_tuples, n_blocks, max(1, _CHUNK // width), np.min_scalar_type(n_blocks)


def _pattern_counts(setup: tuple, rows: np.ndarray | None = None) -> np.ndarray:
    """How many of the blocks at rows, an index array, or of all blocks
    if None, hold each tuple of a pattern, indexed by tuple rank; setup
    is the pattern's _pattern_setup."""
    # Slot 0's term is repeated along its runs (see _slot_columns); the
    # other slots are gathered.
    used, n_tuples, n_blocks, step, dtype = setup
    counts = np.zeros(n_tuples, dtype=dtype)
    one = counts.dtype.type(1)  # a Python 1 takes np.add.at off its fast path
    n = n_blocks if rows is None else len(rows)
    for lo in range(0, n, step):
        pick = slice(lo, lo + step) if rows is None else rows[lo:lo + step]
        ranks = None
        for terms, runs, cols in used:
            r = np.repeat(terms[0][pick], runs, axis=1)
            for term, col in zip(terms[1:], cols):
                r += np.take(term[pick], col, axis=1)
            ranks = r if ranks is None else (ranks[:, :, None] + r[:, None, :]).reshape(len(r), -1)
        np.add.at(counts, ranks.ravel(), one)
    return counts


def _unrank_subset(r: int, v: int, t: int) -> tuple[int, ...]:
    """The 1-based t-subset of 1..v at lex rank r."""
    out = []
    x = 1
    for left in range(t, 0, -1):
        while comb(v - x, left - 1) <= r:
            r -= comb(v - x, left - 1)
            x += 1
        out.append(x)
        x += 1
    return tuple(out)


def _unrank(s: PartStructure, p: Pattern, rank: int) -> SetTuple:
    """The tuple of pattern p at the given rank, decoded last part first."""
    parts = []
    for vi, ti in zip(reversed(s.v), reversed(p)):
        rank, r = divmod(rank, comb(vi, ti))
        parts.append(_unrank_subset(r, vi, ti))
    return tuple(reversed(parts))


def _setups(s: PartStructure, t: int, labels: list[np.ndarray]):
    """(pattern, _pattern_setup) for each pattern of _patterns(s, t), over
    the label arrays labels, built one at a time as they are asked for."""
    _bind_numpy()
    for p, n_tuples in _patterns(s, t):
        yield p, _pattern_setup(labels, s, p, n_tuples)


def _deficits(setups, lam: int, cap: int, rows=None) -> list[tuple[Pattern, int, int]]:
    """The deficit walk: (pattern, rank, count) of the first cap tuples
    held fewer than lam times, in pattern order and rank order within a
    pattern, by the blocks at rows, indices into the label arrays that
    setups, (pattern, _pattern_setup) pairs in pattern order, were built
    from, or by all their blocks if None.  No pattern after the cap-th
    entry is counted, and each count array is searched _CHUNK tuples at a
    time.  Each set-up and count array is dropped once it is read, so a
    lazy setups holds one of each at a time."""
    if rows is not None:
        _bind_numpy()
        rows = np.array(rows, dtype=np.intp)
    out: list[tuple[Pattern, int, int]] = []
    for p, setup in setups:
        counts = _pattern_counts(setup, rows)
        del setup
        for lo in range(0, len(counts), _CHUNK):
            for r in np.flatnonzero(counts[lo:lo + _CHUNK] < lam)[:cap - len(out)]:
                out.append((p, lo + int(r), int(counts[lo + r])))
            if len(out) == cap:
                return out
        del counts
    return out


def _report(s: PartStructure, t: int, setups, lam: int, rows=None) -> VerificationReport:
    """The report of the blocks at rows (see _deficits), taken as a
    design on s of strength t and multiplicity lam: the deficit walk at
    DEFICIT_CAP, with the checked totals of the size rule, which refuses
    every pattern before any is counted."""
    patterns = _patterns(s, t)
    found = _deficits(setups, lam, DEFICIT_CAP, rows)
    return VerificationReport(
        valid=not found,
        checked_patterns=len(patterns),
        checked_tuples=sum(n for _, n in patterns),
        first_uncovered=_unrank(s, *found[0][:2]) if found else None,
        deficient_count=len(found),
    )


def verify(d: Design) -> VerificationReport:
    """Check that every admissible tuple lies in >= lambda blocks.

    first_uncovered is the first failing tuple in the global
    (pattern, tuple) enumeration order; the walk stops at DEFICIT_CAP
    failures.  Strength 0 is always valid.  Anything but a Design, a
    PlaceholderDesign for one, is refused at every strength.
    """
    require_design(d, "verify")
    s = d.structure
    return _report(s, d.t, _setups(s, d.t, _block_labels(s, d.t, d.blocks)), d.lam)


def coverage_deficit(d: Design, cap: int = DEFICIT_CAP) -> list[tuple[SetTuple, int]]:
    """Up to cap under-covered tuples with their actual multiplicities,
    in the global enumeration order: the deficit walk at cap, decoded."""
    cap = as_int(cap, NonPositiveEntry, "cap")
    if cap < 1:
        raise NonPositiveEntry(f"cap must be >= 1, got {cap}")
    require_design(d, "coverage_deficit")
    s = d.structure
    found = _deficits(_setups(s, d.t, _block_labels(s, d.t, d.blocks)), d.lam, cap)
    return [(_unrank(s, p, rank), n) for p, rank, n in found]
