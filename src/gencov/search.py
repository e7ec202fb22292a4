"""Exact minimum block counts by branch and bound, plus the greedy cover.

The searcher enumerates candidate blocks in lexicographic order and
branches on the first uncovered tuple tau, with each child banning the
candidates tried before it so every block subset is visited at most
once.  The bans are a bitmask of candidates passed down the tree: a
node's options are the coverers of tau, a bitmask, less its bans, and a
child's bans are its parent's plus the options below its own block.
Only lambda = 1 is supported: a repeated block never helps a minimum
cover, so plain subsets suffice.

Tables: the coverers of every tuple are built up front, as greedy's gain
updates and the branching read them, from one incidence build per
distinct part (v_i, k_i) that serves every t_i the patterns give it,
by ANDs of per-point masks (_part_incidence).  The candidates
themselves are never listed: a candidate is its index, decoded into
per-part subsets by mixed radix when a block or a cover mask is needed.
The tuples a candidate covers are, per pattern, a product of per-part
factors.  Greedy, which reads only its picks' masks, multiplies them
out per pick; the search, which reads one per child, builds every
candidate's mask from the same factors once greedy has missed the root
bound, core's lower_schonheim.  The designs it returns share their
block objects through core's registry on the structure.

Symmetry: permuting the points inside each part maps any block onto the
first candidate ((1..k_1), ..., (1..k_m)), so some minimum cover holds
it.  The search therefore takes that block first and explores only its
subtree, depth first in one process, under one node count and one
deadline taken when exact_min is entered.  The optimum, the certificate
and the node count are deterministic; the wall-clock timeout is a safety
valve and the one source of nondeterminism when it fires.

Below the first block, a node skips every coverer of its branching tuple
tau that lies in the orbit of an earlier sibling under H, the point
permutations inside each part that fix every chosen block.  H is the
product of the symmetric groups on the atoms: the classes of points that
lie in exactly the same chosen blocks.  The atoms are point bitmasks,
refined by each chosen block on the way down, and only those of two or
more points are kept.  Two coverers are in one H-orbit iff they hold the
same single-point atoms and meet every other atom in as many points.  A
skipped coverer is still banned for the siblings after it.  This is
sound by induction on the depth-first order of search paths.  Take a
minimum cover C whose path (at each node, the first unbanned coverer of
tau in C) comes first, and suppose it passes through a skipped child
c = h(c') with h in H and c' an earlier sibling.  h^-1(C) is a cover of
the same size that holds every chosen block and c'.  It leaves the path
of C no later than this node, either at an ancestor where it holds a
block banned there, or here, towards c' or earlier, so its path, which
ends at a cover no larger, comes first: a contradiction.  Once every
atom is a single point a node does no orbit work.  Swapping parts of
equal (v_i, k_i) is not used.

Node bound: a node is pruned when the blocks still needed cannot beat
the incumbent.  Schönheim's counting (Pacific J. Math. 14, 1964) bounds
them over groups of points, each with a divisor.  A point holds (mask,
cap) slots, cap the most of mask's tuples one block through the point
covers, so at least need = max ceil(deg / cap) remaining blocks hold
it, deg the popcount of the uncovered bits under mask.  A block holds
divisor of a group's points, so ceil(sum need / divisor) blocks remain.
Group 0, the pattern bound, has divisor 1 and one point, which every
block holds, with a slot per pattern.  Each part i then gives a group
of divisor k_i, the point-degree bound: per point x of part i and
pattern p with p_i >= 1, a slot of the tuples of p whose part-i subset
holds x, cap = C(k_i-1, p_i-1) * prod_{j!=i} C(k_j, p_j).  Uncovered
tuples over the most one block covers is a mediant of the pattern
ratios, never above group 0, so it is not counted.  The walk stops
once the bound reaches the pruning number, after any group.

A node is counted and bounded in its parent's loop over the options:
after the orbit skip come the budget check, the count, the check for a
cover and remaining_lb, in that order.  Only a child that the bound
keeps, which branches, has its atoms refined and its tau found, and is
searched.  Pruned children and covers are nodes too, so the count is
that of every child reached.  The root, candidate 0, is the one option
of an empty parent.
"""

from __future__ import annotations

import time
from collections.abc import Collection, Iterator
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, combinations, product
from math import comb, prod
from numbers import Real

from .core import (Block, Design, PartStructure, _shared_design, _walk_patterns, as_int,
                   lower_schonheim, pattern_tuple_count, require_structure)
from .errors import BudgetExhausted, CandidateSpaceTooLarge, NonPositiveEntry, StrengthTooLarge

# The default budget of exact_min, certify_classical, bounds.upper_minimax
# and the CLI's construct and search commands.
DEFAULT_MAX_NODES = 10_000_000
DEFAULT_TIMEOUT = 60.0
CANDIDATE_CAP = 10 ** 6
# coverers is a dense n_cands x n_tuples bit matrix, the one table greedy
# allocates, and the search's full cover list is another; tables of more
# bits than this are refused before either is allocated.  A row of
# coverers is an int object: 36 bytes or more with its list slot.
TABLE_BITS_CAP = 1 << 30
_ROW_BITS = 36 * 8
# The search reads the clock every 64 nodes.
_TIME_CHECK_MASK = 0x3F
# Coverage tables of fewer (tuple, coverer) pairs than this are always
# finished, whatever the deadline.  Of 25 random structures with 0.6 to 1
# times as many pairs, 23 built in at most 0.1 s, median 0.02 s, slowest
# 0.15 s (Python 3.11, 2-CPU VM).  The rule cannot count bits instead:
# (18)/(9) t=2, 7.4 M bits and 1.75 M pairs, builds in 0.05 s and a
# 0.01 s timeout must cut it off, while (5,5,5,5)/(2,2,2,2) t=4, 42 M bits
# and 0.70 M pairs, also builds in 0.05 s and must finish at timeout 0, so
# that greedy's cheap finish still returns a cover.
_UNTIMED_ENTRIES = 1 << 20


@dataclass(frozen=True)
class SearchResult:
    optimum: int
    design: Design | None
    nodes: int
    status: str  # "proven" or "budget-exhausted"


def _check_deadline(deadline: float | None) -> None:
    if deadline is not None and time.monotonic() > deadline:
        raise BudgetExhausted("timeout reached while building the coverage tables")


def _part_incidence(vi: int, ki: int, tis: Collection[int], deadline: float | None = None,
                    ) -> dict[int, tuple[list[int], list[int]]]:
    """Containment between the k_i- and t_i-subsets of 1..v_i, both in lex
    order, for each t_i in tis: for each k_i-subset the bitmask of the
    t_i-subsets inside it, and for each t_i-subset the bitmask of the
    k_i-subsets holding it.

    Both come from per-point masks (_holding), one build per part for
    every t_i.  A t_i-subset's holders are the AND of its points'
    holders, and a k_i-subset's mask is the AND, over each point outside
    it, of the t_i-subsets that miss that point; the k_i-subsets'
    complements, (v_i - k_i)-subsets, come in reverse lex order, so that
    list is reversed.  The deadline is checked once per step of _holding
    and once per subset size in _subset_ands."""
    holding = {k: _holding(vi, k, deadline) for k in {ki, *tis}}
    out = {}
    for ti in tis:
        every = (1 << comb(vi, ti)) - 1
        missing = [every ^ h for h in holding[ti]]
        out[ti] = (_subset_ands(missing, vi - ki, every, deadline)[::-1],
                   _subset_ands(holding[ki], ti, (1 << comb(vi, ki)) - 1, deadline))
    return out


def _holding(v: int, k: int, deadline: float | None) -> list[int]:
    """For each point of 1..v, the bitmask of the lex k-subsets that hold
    it.

    In the lex prefix tree, a prefix ending at point x with r points
    still to choose has a run of C(v-x, r) leaves, so x's mask is that
    run of ones times starts[x], the bitmask of the runs' first leaves.
    From one depth to the next, the starts of the children ending at x
    are those ending at x - 1, shifted by their run, plus the parents
    ending at x - 1, whose first child is x.  That takes k steps of v
    shifts; for k > v/2 the complements, (v-k)-subsets listed in reverse
    lex order, take v - k steps and their masks are bit-reversed and
    inverted."""
    flip = 2 * k > v
    depth = v - k if flip else k
    masks = [0] * v
    parents = [0] * v
    for r in reversed(range(depth)):
        _check_deadline(deadline)
        # The first level's one parent, the empty prefix, starts at leaf 0.
        start = int(r == depth - 1)
        starts = []
        for x in range(v):
            if x:
                start = start << comb(v - x, r) | parents[x - 1]
            starts.append(start)
            masks[x] |= ((1 << comb(v - x - 1, r)) - 1) * start
        parents = starts
    if flip:
        n = comb(v, k)
        every = (1 << n) - 1
        masks = [every ^ int(format(m, f"0{n}b")[::-1], 2) for m in masks]
    return masks


def _subset_ands(masks: list[int], r: int, top: int, deadline: float | None) -> list[int]:
    """For each r-subset of the points of masks, in lex order, top ANDed
    with its points' masks.  The d-subsets of points x..v are those
    holding x, x's mask ANDed into each (d-1)-subset of x+1..v, then the
    d-subsets of x+1..v, so each size d is built from d - 1, and a
    subset's AND shares its suffix's: at most C(v+1, r) - 1 ANDs."""
    v = len(masks)
    # level[x] lists the ANDs of the d-subsets of the points from x on.
    level = [[top]] * (v + 1)
    for d in range(1, r + 1):
        _check_deadline(deadline)
        below, level = level, [[]] * (v + 1)
        # Only points x >= r - d start a suffix that an r-subset ends with.
        for x in reversed(range(r - d, v - d + 1)):
            mx = masks[x]
            level[x] = [mx & a for a in below[x + 1]] + level[x + 1]
    return level[0]


def _spread(xs: list[int], width: int) -> list[int]:
    """Each x of xs with bit b moved to bit b * width, so that y times the
    spread x is the Kronecker product of bitmasks x and y for any y below
    2**width: width - 1 zero bits go between the bits of x.  For width 1 that is
    xs, which is returned as it is, not copied.

    The zeros go in as digits, by one join of x's binary string, so each
    mask costs time linear in its spread width."""
    if width == 1:
        return xs
    gap = "0" * (width - 1)
    return [int(gap.join(format(x, "b")), 2) for x in xs]


def _kron(xs: list[int], ys: list[int], width: int) -> list[int]:
    """The Kronecker products of each x in xs with each y in ys, x major,
    for ys below 2**width: bit a * width + b of x (x) y is bit a of x and
    bit b of y.  For ys == [1] and width 1 that is xs, which is returned as
    it is, not copied."""
    if ys == [1] and width == 1:
        return xs
    return [x * y for x in _spread(xs, width) for y in ys]


class _Tables:
    """Candidate blocks, the tuple universe, and coverage bitmasks.

    A candidate is a product of per-part lex k_i-subsets and a tuple of
    pattern p a product of per-part lex t_i-subsets, both indexed in
    mixed radix with the last part fastest.  There are n_cands
    candidates and no list of them: block(c) decodes candidate c from
    the per-part pools of k_i-subsets, so greedy_cover pays only for the
    blocks it picks.  A candidate covers a tuple iff each part's
    k_i-subset holds its t_i-subset.  coverers[j] is the bitmask of the
    candidates that hold tuple j: per pattern, the Kronecker product of
    per-part holder masks, each spread by the suffix width (_spread, one
    digit join per mask).
    The per-part masks come from one _part_incidence build per distinct
    (v_i, k_i), made for every p_i its parts take in the patterns.

    cover(c), the transpose, is the bitmask of the tuples candidate c
    covers.  Per pattern, the build keeps one factor per part i with
    p_i >= 1: the part's incidence masks spread by the suffix width.
    cover(c) multiplies the factors at c's per-part subsets and shifts
    each product to its pattern's start, so greedy pays only for its
    picks.  covers() builds every candidate's mask once, from the same
    factors by Kronecker products, for the branch and bound, and cover
    reads it once it is built.  A single-part structure's one factor is
    its part's masks list itself, already the full list, so the build
    takes it as that.

    coverers, and the list covers() builds, are n_cands x n_tuples bit
    matrices, so each takes n_cands * n_tuples / 8 bytes whatever its
    density, and more than TABLE_BITS_CAP bits raise
    CandidateSpaceTooLarge before either is built; a row of coverers
    counts at least _ROW_BITS, its int object.  Lists of the
    coverers' indices were smaller only where a tuple lies in under 1/64
    of the candidates.

    Every block covers the same number of tuples, maxcov, the sum over
    the patterns of prod_i C(k_i, p_i).

    remaining_lb bounds the blocks a search node still needs (see the
    module docstring).  Its slot groups (_bound_groups) are built on the
    first call, so greedy_cover never builds them.

    Past the deadline, if one is given, the build raises BudgetExhausted,
    as no design exists yet.  It checks before and after each pattern's
    tables, before each part, and once per step of a part's incidence
    (_part_incidence), unless the tables hold fewer than
    _UNTIMED_ENTRIES (tuple, coverer) pairs in all: a small table is
    always built, so that a spent timeout still leaves greedy's cheap
    finish.  covers() takes its own deadline.
    """

    def __init__(self, s: PartStructure, t: int, deadline: float | None = None):
        n_cands = s.block_count_possible()
        if n_cands > CANDIDATE_CAP:
            raise CandidateSpaceTooLarge(f"{n_cands} candidate blocks exceed cap {CANDIDATE_CAP}")
        # The patterns are walked one at a time, and the tables refused
        # once the bits of those so far pass the cap.
        patterns, sizes = [], []
        bits = 0
        for p in _walk_patterns(s, t):
            patterns.append(p)
            sizes.append(pattern_tuple_count(s, p))
            bits += max(n_cands, _ROW_BITS) * sizes[-1]
            if bits > TABLE_BITS_CAP:
                raise CandidateSpaceTooLarge(
                    f"coverage tables of at least {bits} bits exceed cap {TABLE_BITS_CAP}"
                )
        self.s = s
        self.t = t
        self.patterns = patterns
        self.n_cands = n_cands
        self._pools = [list(combinations(range(1, vi + 1), ki)) for vi, ki in zip(s.v, s.k)]

        # Tuple universe in global order: patterns descending, tuples
        # ascending within each pattern, as admissible_tuples lists them.
        # spans holds (start, end, cap) with cap the most tuples of that
        # pattern one block can cover.
        self.spans: list[tuple[int, int, int]] = []
        self.coverers: list[int] = []
        self._radices = [len(pool) for pool in self._pools]
        # (stride, radix) per part: candidate c's part-i digit is
        # c // stride % radix, stride the product of the later radices.
        self._places = [(prod(self._radices[i + 1:]), r) for i, r in enumerate(self._radices)]
        self._factors: list[tuple[int, list[tuple[int, list[int]]]]] = []
        self._covers: list[int] | None = None
        # Each tuple of pattern p is held by prod_i C(v_i - p_i, k_i - p_i)
        # candidates.
        entries = sum(prod(comb(vi, pi) * comb(vi - pi, ki - pi)
                           for vi, ki, pi in zip(s.v, s.k, p)) for p in patterns)
        if entries < _UNTIMED_ENTRIES:
            deadline = None
        # One incidence build per distinct (v_i, k_i), for every p_i the
        # patterns give its parts.
        needed: dict[tuple[int, int], set[int]] = {}
        for p in patterns:
            for vk, pi in zip(zip(s.v, s.k), p):
                needed.setdefault(vk, set()).add(pi)
        incidence = {vk: _part_incidence(*vk, tis, deadline) for vk, tis in needed.items()}
        start = 0
        for p, size in zip(patterns, sizes):
            _check_deadline(deadline)
            cap = prod(comb(ki, pi) for ki, pi in zip(s.k, p))
            self.spans.append((start, start + size, cap))

            # From the last part to the first: factors holds (i, part i's
            # cover masks spread by width, the tuple count of the parts
            # after it), and holders[j] the mask of the suffix candidates
            # holding suffix tuple j, stride bits wide.  A part with
            # p_i = 0 has no factor: each of its subsets covers the one
            # empty subset, so its masks are all 1.
            factors: list[tuple[int, list[int]]] = []
            width = 1
            holders, stride = [1], 1
            for i in reversed(range(s.m)):
                _check_deadline(deadline)
                part_masks, part_holders = incidence[s.v[i], s.k[i]][p[i]]
                if p[i]:
                    factors.append((i, _spread(part_masks, width)))
                holders = _kron(part_holders, holders, stride)
                width *= len(part_holders)
                stride *= len(part_masks)
            self._factors.append((start, factors))
            self.coverers.extend(holders)
            start += size
            _check_deadline(deadline)
        self.n_tuples = start
        self.maxcov = sum(cap for _, _, cap in self.spans)
        if s.m == 1:
            self.covers()  # its one factor, already the full list

    def _digits(self, c: int) -> list[int]:
        """Candidate c's per-part lex subset indices, by mixed radix with
        the last part fastest."""
        return [c // stride % radix for stride, radix in self._places]

    def block(self, c: int) -> Block:
        """Candidate c as a block, decoded from the per-part pools."""
        return tuple([pool[d] for pool, d in zip(self._pools, self._digits(c))])

    def cover(self, c: int) -> int:
        """The bitmask of the tuples candidate c covers: per pattern, the
        product of its factors at c's per-part subsets, shifted to the
        pattern's start.  Once the full list is built, it is read there."""
        if self._covers is not None:
            return self._covers[c]
        digits = self._digits(c)
        mask = 0
        for start, factors in self._factors:
            x = 1
            for i, f in factors:
                x *= f[digits[i]]
            mask |= x << start
        return mask

    def covers(self, deadline: float | None = None) -> list[int]:
        """Every candidate's cover mask, in candidate order, built on the
        first call and kept: per pattern, the Kronecker product of its
        factors, a part with no factor repeating the list, shifted to the
        pattern's start.  Past the deadline, checked once per pattern, it
        raises BudgetExhausted."""
        if self._covers is None:
            covers: list[int] = []
            for start, factors in self._factors:
                _check_deadline(deadline)
                by_part = dict(factors)
                masks = [1]
                for i in reversed(range(self.s.m)):
                    f = by_part.get(i)
                    if f is None:
                        masks = masks * self._radices[i]
                    else:  # a first factor is taken as it is, not copied
                        masks = f if masks == [1] else [x * y for x in f for y in masks]
                covers = [c | x << start for c, x in zip(covers, masks)] if start else masks
            self._covers = covers
        return self._covers

    @cached_property
    def _bound_groups(self) -> list[tuple[int, list[list[tuple[int, int]]]]]:
        """remaining_lb's (divisor, points) groups, each point a list of
        (mask, cap) slots (see the module docstring): group 0 holds the
        spans with their caps, then one group per part i.  A point's cap
        in part i's group is the span's cap * p_i / k_i."""
        s = self.s
        groups = [(1, [[(((1 << (end - start)) - 1) << start, cap)
                         for start, end, cap in self.spans]])]
        for i, (vi, ki) in enumerate(zip(s.v, s.k)):
            points: list[list[tuple[int, int]]] = [[] for _ in range(vi)]
            for p, (start, end, cap) in zip(self.patterns, self.spans):
                if not p[i]:
                    continue
                # Tuples of p are mixed radix over the per-part subsets,
                # last part fastest: a point's mask is the Kronecker
                # product of all-ones over the parts before i, the part-i
                # subsets holding x, and all-ones over the parts after i.
                holders = [0] * vi
                for j, sub in enumerate(combinations(range(vi), p[i])):
                    for x in sub:
                        holders[x] |= 1 << j
                after = prod(comb(vj, pj) for vj, pj in zip(s.v[i + 1:], p[i + 1:]))
                inner = comb(vi, p[i]) * after
                through = _kron(holders, [(1 << after) - 1], after)
                masks = _kron([(1 << ((end - start) // inner)) - 1], through, inner)
                for slots, mask in zip(points, masks):
                    slots.append((mask << start, cap * p[i] // ki))
            groups.append((ki, points))
        return groups

    @cached_property
    def _point_masks(self) -> list[int]:
        """Each candidate as one bitmask of points, the parts side by
        side: point x of part i is bit v_1+...+v_{i-1}+x-1."""
        shifts = accumulate(self.s.v, initial=-1)
        pools = [[sum(c) for c in combinations([1 << (shift + x) for x in range(1, vi + 1)], ki)]
                 for shift, vi, ki in zip(shifts, self.s.v, self.s.k)]
        return [sum(c) for c in product(*pools)]

    def design_from(self, chosen: list[int]) -> Design:
        return _shared_design(self.s, self.t, [self.block(c) for c in chosen])

    def remaining_lb(self, uncovered: int, stop: int) -> int:
        """A lower bound on the blocks still needed to cover the tuples
        set in uncovered.  It returns as soon as the bound reaches stop,
        the count at which the caller prunes, so a result of at least
        stop may be below the full bound."""
        lb = 0
        # In each group at least need = max_slot ceil(deg / cap) of the
        # remaining blocks hold a point, and each block holds divisor of
        # the group's points.
        for divisor, points in self._bound_groups:
            total = 0
            for slots in points:
                need = 0
                for mask, cap in slots:
                    deg = (uncovered & mask).bit_count()
                    if deg > need * cap:
                        need = -(deg // -cap)
                total += need
            if total > lb * divisor:
                lb = -(total // -divisor)
                if lb >= stop:
                    return lb
        return lb


def _refine(atoms: list[int], points: int) -> list[int]:
    """Split each atom, a point bitmask, into its points inside and
    outside points, keeping only the pieces of two or more points."""
    out = []
    for a in atoms:
        inside = a & points
        if inside and inside != a:
            outside = a ^ inside
            if inside & (inside - 1):
                out.append(inside)
            if outside & (outside - 1):
                out.append(outside)
        else:
            out.append(a)
    return out


def _ones(x: int) -> Iterator[int]:
    """The positions of the set bits of x, ascending, by one string scan
    instead of a big-int operation per bit."""
    bits = format(x, "b")[::-1]
    j = bits.find("1")
    while j >= 0:
        yield j
        j = bits.find("1", j + 1)


def _greedy(tb: _Tables, deadline: float | None = None) -> list[int]:
    """greedy_cover's picks, as candidate indices of tb in pick order.

    Each candidate's gain, the number of uncovered tuples it covers, is
    kept bit-sliced: bit c of slices[b] is bit b of candidate c's gain.
    Every gain starts at tb.maxcov.  A pick ANDs down the slices from the
    top, keeping the candidates whose gain has each bit set whenever any
    has, and takes the lowest of the largest gain.  For each tuple it
    newly covers, coverers[j] is subtracted from every gain at once with
    a ripple borrow, so a pick costs a few big-int operations per newly
    covered tuple (Chvátal's exact-gain update, 1979).  The pick's cover
    mask comes from tb.cover, so greedy never builds the full list.

    The clock is read once per pick.  Past the deadline the cover is
    finished cheaply instead: the pick starts from the coverers of the
    lowest uncovered tuple, not from every candidate, so it takes the one
    of the largest gain (ties to the lowest index), until none is left,
    and the result is always a valid design.
    """
    coverers = tb.coverers
    everyone = (1 << tb.n_cands) - 1
    slices = [everyone if tb.maxcov >> b & 1 else 0 for b in range(tb.maxcov.bit_length())]
    uncovered = (1 << tb.n_tuples) - 1
    chosen: list[int] = []
    cheap = False
    while uncovered:
        if not cheap and deadline is not None and time.monotonic() > deadline:
            cheap = True
        pool = coverers[(uncovered & -uncovered).bit_length() - 1] if cheap else everyone
        for bit in reversed(slices):
            best = pool & bit
            if best:
                pool = best
        ci = (pool & -pool).bit_length() - 1
        chosen.append(ci)
        newly = tb.cover(ci) & uncovered
        uncovered ^= newly
        for j in _ones(newly):
            borrow = coverers[j]
            for b, bit in enumerate(slices):
                bit ^= borrow
                slices[b] = bit
                # A candidate borrows on from bit b iff that bit was 0.
                borrow &= bit
                if not borrow:
                    break
    return chosen


def greedy_cover(s: PartStructure, t: int) -> Design:
    """Repeatedly add the candidate covering the most uncovered tuples,
    breaking ties toward the lexicographically least block."""
    require_structure(s, "greedy_cover")
    if t == 0:
        return Design(s, 0)
    tb = _Tables(s, t)
    return tb.design_from(_greedy(tb))


def exact_min(s: PartStructure, t: int, *, max_nodes: int = DEFAULT_MAX_NODES,
              timeout: float = DEFAULT_TIMEOUT) -> SearchResult:
    """Minimum block count of a GC(s, t), with certificate when one
    exists.  Strength above the profile sum is infeasible and reported
    as optimum 0; status is proven unless a budget cut the search off.
    The timeout covers every phase, and at most max_nodes nodes are
    searched.  A spent budget shows on the result: once greedy holds a
    design, the best design found is returned with status
    budget-exhausted.  Only a timeout that runs out before the coverage
    tables are built, when there is no design yet, raises
    BudgetExhausted.  The full cover list is built only if greedy misses
    the root bound.  max_nodes must be an integer and timeout a real
    number of seconds, not NaN (NonPositiveEntry otherwise)."""
    max_nodes = as_int(max_nodes, NonPositiveEntry, "max_nodes")
    if not isinstance(timeout, Real) or timeout != timeout:
        raise NonPositiveEntry(f"timeout must be a real number of seconds, got {timeout!r}")
    deadline = time.monotonic() + timeout
    require_structure(s, "exact_min")
    t = as_int(t, StrengthTooLarge, "strength")
    if t < 0:
        raise StrengthTooLarge(f"strength must be nonnegative, got {t}")
    if t > s.k_sum:
        return SearchResult(0, None, 0, "proven")
    if t == 0:
        return SearchResult(0, Design(s, 0), 0, "proven")

    tb = _Tables(s, t, deadline)
    lower = lower_schonheim(s, t)
    best = _greedy(tb, deadline)
    if len(best) == lower:
        return SearchResult(lower, tb.design_from(best), 0, "proven")
    try:
        covers = tb.covers(deadline)
    except BudgetExhausted:
        return SearchResult(len(best), tb.design_from(best), 0, "budget-exhausted")

    nodes = 0
    stopped = False
    cand_points = tb._point_masks
    everything = (1 << s.v_sum) - 1

    def dfs(chosen: list[int], uncovered: int, banned: int, atoms: list[int], opts: int) -> None:
        """Search the children of the node that chose chosen, one per
        option in opts.  Each child is counted and bounded here, and only
        one that the bound keeps, which branches, is entered."""
        nonlocal best, nodes, stopped
        if atoms:
            single = everything ^ sum(atoms)
            seen: set[tuple[int, ...]] = set()
        for c in _ones(opts):
            if atoms:
                # Skip c if it is in the orbit of an earlier sibling.
                points = cand_points[c]
                orbit = (points & single, *[(points & a).bit_count() for a in atoms])
                if orbit in seen:
                    continue
                seen.add(orbit)
            # The clock is read at the root too, so a deadline spent before
            # the search starts stops it at once.
            if nodes >= max_nodes or (nodes & _TIME_CHECK_MASK == 0
                                      and time.monotonic() > deadline):
                stopped = True
                return
            nodes += 1
            rest = uncovered & ~covers[c]
            if not rest:
                if len(chosen) + 1 < len(best):
                    best = [*chosen, c]
                    if len(best) == lower:
                        return
                continue
            stop = len(best) - len(chosen) - 1
            if tb.remaining_lb(rest, stop) >= stop:
                continue
            # The child bans every earlier sibling, skipped ones too.
            child_banned = banned | opts & ((1 << c) - 1)
            tau = (rest & -rest).bit_length() - 1
            chosen.append(c)
            dfs(chosen, rest, child_banned, _refine(atoms, points) if atoms else atoms,
                tb.coverers[tau] & ~child_banned)
            chosen.pop()
            if len(best) == lower or stopped:
                return

    # Candidate 0 is the first block ((1..k_1), ..., (1..k_m)), the one
    # option of an empty parent.  The atoms start as the parts of two or
    # more points.
    parts = [((1 << vi) - 1) << (offset - vi)
             for vi, offset in zip(s.v, accumulate(s.v)) if vi > 1]
    dfs([], (1 << tb.n_tuples) - 1, 0, parts, 1)
    status = "proven" if len(best) == lower or not stopped else "budget-exhausted"
    return SearchResult(len(best), tb.design_from(best), nodes, status)


def certify_classical(v: int, k: int, t: int, *, max_nodes: int = DEFAULT_MAX_NODES,
                      timeout: float = DEFAULT_TIMEOUT) -> SearchResult:
    """exact_min on the single-part structure ((v,), (k,))."""
    return exact_min(PartStructure((v,), (k,)), t, max_nodes=max_nodes, timeout=timeout)
