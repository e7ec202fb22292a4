"""Single-design constructions and transformations.

Includes the greedy base cover, the placeholder lift that copies one
classical cover onto every part, restriction and amalgamation of parts,
point deletion and block expansion, equivalence handling for repeated
parts, and redundancy pruning.  All operations return new immutable
designs; none mutate their input.

Restriction, the equivalence expansion and amalgamation are regroupings
of parts: each output part joins one or more input parts, whose labels
are offset past the members before it.  restrict keeps some parts,
expand_equivalent appends a copy of one, and amalgamate merges two.

The lift with placeholders kept returns core's PlaceholderDesign, whose
parts may hold core's STAR ("*").  delete_points and expand_blocks, like
PlaceholderDesign.fill, build sorted blocks and leave the check to the
output Design, so each block is checked once.  The transforms take a
Design and refuse a PlaceholderDesign (core.require_design), as verify
and the products do.  Operations that can map two blocks to one drop
the repeats at lambda = 1 only; at larger lambda a repeat counts toward
the multiplicity and stays.
"""

from __future__ import annotations

from .core import (
    STAR,
    Design,
    PartStructure,
    PlaceholderDesign,
    _drop_repeats,
    _pad,
    as_int,
    as_ints,
    require_design,
    require_structure,
)
from .errors import (
    BasePartTooSmall,
    DegenerateRestriction,
    EmptyIndexSet,
    InvalidInput,
    LabelOutOfRange,
    LengthMismatch,
    NonPositiveEntry,
    ParameterOrderViolated,
    ProfileBelowTwo,
    StrengthNotTwo,
    StrengthTooLarge,
    StructureMismatch,
    TargetBelowProfile,
    TargetExceedsPart,
    UnitProfilePart,
)
from .search import DEFAULT_MAX_NODES, DEFAULT_TIMEOUT, certify_classical, greedy_cover
from .verify import _block_labels, _report, _setups


def cover_t1(s: PartStructure) -> Design:
    """Strength-1 cover of the minimum possible size max_i ceil(v_i/k_i).

    Block r takes the r-th run of k_i consecutive labels in each part,
    padding with the least labels outside the run once the part is used
    up.
    """
    n = max(-(vi // -ki) for vi, ki in zip(s.v, s.k))
    return Design(s, 1, tuple(
        tuple(_pad(range(r * ki + 1, min((r + 1) * ki, vi) + 1), ki) for vi, ki in zip(s.v, s.k))
        for r in range(n)))


def greedy_classical_cover(v: int, k: int, t: int) -> Design:
    """Greedy (v,k,t)-cover: repeatedly add the k-subset covering the
    most uncovered t-subsets, breaking ties lexicographically."""
    v = as_int(v, ParameterOrderViolated, "v")
    k = as_int(k, ParameterOrderViolated, "k")
    t = as_int(t, ParameterOrderViolated, "strength")
    if not (v >= k >= t >= 0):
        raise ParameterOrderViolated(f"need v >= k >= t >= 0, got ({v},{k},{t})")
    return greedy_cover(PartStructure((v,), (k,)), t)


def minimax_base_size(s: PartStructure) -> int:
    """Points the classical base cover of construct_minimax needs:
    max_j (v_j - (k_j - k_min))."""
    return max(vj - (kj - s.k_min) for vj, kj in zip(s.v, s.k))


def construct_minimax(s: PartStructure, base: Design | None = None,
                      keep_placeholders: bool = False, *, max_nodes: int = DEFAULT_MAX_NODES,
                      timeout: float = DEFAULT_TIMEOUT) -> Design | PlaceholderDesign:
    """Lift a single-part (w, k_min, 2) cover to a GC(v, k, 2).

    Every k_i must be at least 2 (UnitProfilePart).  Without a base, the
    base is certify_classical(minimax_base_size(s), s.k_min, 2)'s design,
    searched under max_nodes and timeout (BudgetExhausted if it holds no
    design yet); a base given must be a Design.

    Each part receives a copy of the base blocks.  Parts needing fewer
    points than the base provides have surplus labels turned into
    placeholders; parts with a larger profile gain extra placeholders;
    parts larger than the base keep a fixed tail of their highest
    labels in every block.  Placeholders are then filled with the least
    unused label per part (or retained when keep_placeholders is set)
    and duplicate blocks are dropped.
    """
    require_structure(s, "construct_minimax")
    if s.k_min < 2:
        raise UnitProfilePart(f"lift needs every k_i >= 2, got {s.k}")
    if base is None:
        base = certify_classical(minimax_base_size(s), s.k_min, 2, max_nodes=max_nodes,
                                 timeout=timeout).design
    require_design(base, "construct_minimax")
    if base.structure.m != 1 or base.structure.k[0] != s.k_min:
        raise StructureMismatch(
            f"base must be single-part with profile ({s.k_min},), got {base.structure}"
        )
    if base.t != 2:
        raise StrengthNotTwo(f"base must have strength 2, got {base.t}")
    w = base.structure.v[0]
    need = minimax_base_size(s)
    if w < need:
        raise BasePartTooSmall(f"base on {w} points, need at least {need}")

    # cut[i]: labels above it are absent from the base copy on part i;
    # the fixed tail cut[i]+1..v_i is appended verbatim to every block.
    cut = [vi if vi <= w else vi - (ki - s.k_min) for vi, ki in zip(s.v, s.k)]
    pblocks = []
    for (bset,) in base.blocks:
        parts = []
        for i, (vi, ki) in enumerate(zip(s.v, s.k)):
            kept = [x for x in bset if x <= cut[i]]
            tail = list(range(cut[i] + 1, vi + 1))
            stars = ki - len(kept) - len(tail)
            parts.append(tuple(kept + tail) + (STAR,) * stars)
        pblocks.append(tuple(parts))
    pd = PlaceholderDesign(s, 2, tuple(dict.fromkeys(pblocks)))
    return pd if keep_placeholders else pd.fill()


def _check_part_index(s: PartStructure, i) -> int:
    """i as an integer part index in 1..m."""
    i = as_int(i, LabelOutOfRange, "part index")
    if not (1 <= i <= s.m):
        raise LabelOutOfRange(f"part index {i} outside 1..{s.m}")
    return i


def _check_strength(d: Design, parts, op: str) -> None:
    """Raise StrengthTooLarge unless each listed part (1-based) has
    k_i >= min(t, v_i), so that a part holds every set of labels that a
    t-tuple can meet it in."""
    for i in parts:
        vi, ki = d.structure.v[i - 1], d.structure.k[i - 1]
        if ki < min(d.t, vi):
            raise StrengthTooLarge(
                f"{op} at strength {d.t} needs k_{i} >= {min(d.t, vi)}, got {ki}"
            )


def _regroup(d: Design, groups, t: int) -> Design:
    """The design at strength t whose part r joins the parts of d listed
    in groups[r] (1-based): its size and profile are the sums over the
    group, and each member's labels are offset by the sizes of the
    members before it.  Lambda and the block order are kept."""
    v, k = d.structure.v, d.structure.k
    s = PartStructure(tuple(sum(v[p - 1] for p in g) for g in groups),
                      tuple(sum(k[p - 1] for p in g) for g in groups))
    # (0-based part, label offset) of each member of each group
    members = [[(p - 1, sum(v[q - 1] for q in g[:n])) for n, p in enumerate(g)]
               for g in groups]
    blocks = tuple(tuple(tuple(x + off for p, off in grp for x in b[p]) for grp in members)
                   for b in d.blocks)
    return Design(s, t, blocks, d.lam)


def restrict(d: Design, index_set) -> Design:
    """Project the design onto the parts in index_set (1-based).

    Strength drops to the restricted profile sum when that is smaller.
    """
    require_design(d, "restrict")
    idx = sorted({_check_part_index(d.structure, i)
                  for i in as_ints(index_set, LabelOutOfRange, "part index")})
    if not idx:
        raise EmptyIndexSet("restriction needs at least one part")
    kI = tuple(d.structure.k[i - 1] for i in idx)
    if kI == (1,):
        raise DegenerateRestriction("no design exists on a single unit-profile part")
    return _regroup(d, [(i,) for i in idx], min(d.t, sum(kI)))


def drop_full_parts(d: Design) -> Design:
    """Remove every part with v_i = k_i; such parts appear in full in
    every block and impose no constraint."""
    require_design(d, "drop_full_parts")
    keep = [i + 1 for i in range(d.structure.m) if d.structure.v[i] != d.structure.k[i]]
    if len(keep) == d.structure.m:
        return d
    kI = tuple(d.structure.k[i - 1] for i in keep)
    if kI in ((), (1,)):
        raise DegenerateRestriction(f"surviving profile {kI} is degenerate")
    return restrict(d, keep)


def add_full_parts(d: Design, sizes) -> Design:
    """Append parts with v_i = k_i = size; every block gains the whole
    new point set, so validity is preserved at the same strength."""
    require_design(d, "add_full_parts")
    sizes = as_ints(sizes, NonPositiveEntry, "part size")
    if any(x < 1 for x in sizes):
        raise NonPositiveEntry(f"part sizes must be positive, got {sizes}")
    s = PartStructure(d.structure.v + sizes, d.structure.k + sizes)
    full = tuple(tuple(range(1, x + 1)) for x in sizes)
    blocks = tuple(b + full for b in d.blocks)
    return Design(s, d.t, blocks, d.lam)


def expand_equivalent(d: Design, i: int) -> Design:
    """Append a copy of part i (profile >= 2 required); each block's new
    part repeats its part-i labels.  A tuple split across the twin parts
    maps to at most min(t, v_i) labels inside part i, so the copy needs
    k_i >= min(t, v_i), which profile >= 2 gives at strength <= 2;
    StrengthTooLarge otherwise."""
    require_design(d, "expand_equivalent")
    i = _check_part_index(d.structure, i)
    if d.structure.k[i - 1] < 2:
        raise ProfileBelowTwo(f"part {i} has profile {d.structure.k[i - 1]}")
    _check_strength(d, (i,), "expand_equivalent")
    return _regroup(d, [(p,) for p in range(1, d.structure.m + 1)] + [(i,)], d.t)


def reduce_equivalence(s: PartStructure) -> tuple[PartStructure, dict[tuple[int, int], int]]:
    """Keep one representative per (v_i, k_i) class among parts with
    profile >= 2; unit-profile parts are always kept.  The returned map
    counts the parts of each merged class."""
    v_out: list[int] = []
    k_out: list[int] = []
    mult: dict[tuple[int, int], int] = {}
    for vi, ki in zip(s.v, s.k):
        if ki < 2:
            v_out.append(vi)
            k_out.append(ki)
            continue
        key = (vi, ki)
        if key not in mult:
            v_out.append(vi)
            k_out.append(ki)
        mult[key] = mult.get(key, 0) + 1
    return PartStructure(tuple(v_out), tuple(k_out)), mult


def _target(d: Design, target, what: str) -> tuple[int, ...]:
    """target as integers, one per part, with k_i <= target_i <= v_i."""
    target = as_ints(target, NonPositiveEntry, what)
    if len(target) != d.structure.m:
        raise LengthMismatch(f"expected {d.structure.m} entries, got {len(target)}")
    for x, vi, ki in zip(target, d.structure.v, d.structure.k):
        if x < ki:
            raise TargetBelowProfile(f"{what} {x} below profile {ki}")
        if x > vi:
            raise TargetExceedsPart(f"{what} {x} above part size {vi}")
    return target


def delete_points(d: Design, v_hat) -> Design:
    """Shrink part i to its first v_hat_i labels.  A deleted label in a
    block is replaced by the least surviving label of that part not
    already present (deleted labels processed in ascending order), then
    exact repeats are dropped at lambda = 1."""
    require_design(d, "delete_points")
    v_hat = _target(d, v_hat, "target size")
    s = PartStructure(v_hat, d.structure.k)
    out = (tuple(_pad([x for x in part if x <= vh], ki) for part, vh, ki in zip(b, v_hat, s.k))
           for b in d.blocks)
    return Design(s, d.t, _drop_repeats(out, d.lam), d.lam)


def expand_blocks(d: Design, k_hat) -> Design:
    """Grow each block's part i to k_hat_i labels using the least labels
    not already present, then drop exact repeats at lambda = 1.  Requires
    every original profile >= 2.  A part grown to k_i < k_hat_i < v_i
    admits tuples meeting it in up to t labels, so it also needs
    k_i >= t (StrengthTooLarge otherwise); a part grown to v_i is whole
    in every block."""
    require_design(d, "expand_blocks")
    if any(ki < 2 for ki in d.structure.k):
        raise ProfileBelowTwo(f"expansion needs every k_i >= 2, got {d.structure.k}")
    k_hat = _target(d, k_hat, "target profile")
    grown = [i + 1 for i, (vi, ki, kh) in enumerate(zip(d.structure.v, d.structure.k, k_hat))
             if ki < kh < vi]
    _check_strength(d, grown, "expand_blocks")
    s = PartStructure(d.structure.v, k_hat)
    out = (tuple(_pad(part, kh) for part, kh in zip(b, k_hat)) for b in d.blocks)
    return Design(s, d.t, _drop_repeats(out, d.lam), d.lam)


def amalgamate(d: Design, i: int, j: int) -> Design:
    """Merge parts i and j (both profiles >= 2) into a single part at
    position i; part-j labels are offset by v_i.  Block count is
    preserved.  A tuple may meet the merged part in up to t labels from
    either side, so each merged part needs k >= min(t, v), which profile
    >= 2 gives at strength <= 2; StrengthTooLarge otherwise."""
    require_design(d, "amalgamate")
    i = _check_part_index(d.structure, i)
    j = _check_part_index(d.structure, j)
    if i == j:
        raise InvalidInput("amalgamation needs two distinct parts")
    if d.structure.k[i - 1] < 2 or d.structure.k[j - 1] < 2:
        raise ProfileBelowTwo("both merged parts need profile >= 2")
    _check_strength(d, (i, j), "amalgamate")
    return _regroup(d, [(i, j) if p == i else (p,) for p in range(1, d.structure.m + 1)
                        if p != j], d.t)


def prune_redundant(d: Design, greedy_drop: bool = False) -> Design:
    """Drop exact duplicate blocks (at lambda = 1, where a duplicate can
    never help); with greedy_drop, additionally remove blocks whose
    deletion keeps the design valid, trying lexicographically last
    blocks first.  The input must verify (InvalidInput otherwise).

    The label arrays of the deduplicated blocks are made once (verify's
    _block_labels), and from them each pattern's counting set-up, listed
    once (verify's _setups).  The input and every trial are reported on
    from those set-ups (verify's _report), a trial over the rows of the
    blocks it keeps; the output is the only Design built."""
    require_design(d, "prune_redundant")
    s = d.structure
    blocks = _drop_repeats(d.blocks, d.lam)
    setups = list(_setups(s, d.t, _block_labels(s, d.t, blocks)))
    if not _report(s, d.t, setups, d.lam).valid:
        raise InvalidInput("input design fails verification")
    if greedy_drop:
        kept = set(range(len(blocks)))
        for r in sorted(kept, key=lambda q: blocks[q], reverse=True):
            if _report(s, d.t, setups, d.lam, sorted(kept - {r})).valid:
                kept.discard(r)
        blocks = [blocks[q] for q in sorted(kept)]
    return Design(s, d.t, tuple(blocks), d.lam)
