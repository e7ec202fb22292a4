"""Independent helpers the benchmark uses to make inputs and judge outputs.

Nothing here calls into gencov.  The design text reader and writer follow
the documented `gcd 1` format on their own, so a change to gencov.io can
not make a wrong output look right.  The coverage counts use a plain
block-by-point incidence matrix, a different method from the verifier's
per-pattern tuple enumeration.
"""

from __future__ import annotations

import importlib.util
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path

import numpy as np

# The 3-block strength-2 cover of parts (3, 4) with profile (2, 3) that
# greedy_cover builds; every Hadamard power in the benchmark starts here.
HADAMARD_BASE = (
    ((1, 2), (1, 2, 3)),
    ((1, 3), (1, 2, 4)),
    ((2, 3), (1, 3, 4)),
)
HADAMARD_BASE_V = (3, 4)
HADAMARD_BASE_K = (2, 3)


@dataclass(frozen=True)
class Doc:
    """A design read from text: header values and blocks as label tuples."""

    t: int
    lam: int
    v: tuple[int, ...]
    k: tuple[int, ...]
    blocks: tuple[tuple[tuple[int, ...], ...], ...]


def hadamard(b1, v1, b2, v2):
    """Pointwise product of two block lists: part i of the pair (B, C)
    is {r + (s-1) v1_i : r in B_i, s in C_i}, row-major in (B, C)."""
    out = []
    for bb in b1:
        for cc in b2:
            out.append(tuple(
                tuple(sorted(r + (s - 1) * v1[i] for r in bb[i] for s in cc[i]))
                for i in range(len(v1))
            ))
    return out, tuple(a * b for a, b in zip(v1, v2))


def hadamard_power(n: int):
    """The n-th Hadamard power of HADAMARD_BASE as (blocks, v, k)."""
    blocks, v = list(HADAMARD_BASE), HADAMARD_BASE_V
    for _ in range(n - 1):
        blocks, v = hadamard(blocks, v, HADAMARD_BASE, HADAMARD_BASE_V)
    k = tuple(ki ** n for ki in HADAMARD_BASE_K)
    return blocks, v, k


def relabel(blocks, v, rng):
    """Apply one seed-drawn permutation to the labels of each part."""
    perms = [rng.sample(range(1, vi + 1), vi) for vi in v]
    return [tuple(tuple(sorted(perms[i][x - 1] for x in part))
                  for i, part in enumerate(b)) for b in blocks]


def write_design(path: Path, t, v, k, blocks, lam=1) -> None:
    lines = ["gcd 1", f"t: {t}", f"lambda: {lam}",
             "v: " + " ".join(map(str, v)), "k: " + " ".join(map(str, k)), "blocks:"]
    lines += [" | ".join(" ".join(map(str, part)) for part in b) for b in blocks]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_design(text: str) -> Doc:
    """Parse `gcd 1` text; raises ValueError on anything malformed."""
    rows = [raw.split("#", 1)[0].strip() for raw in text.splitlines()]
    rows = [r for r in rows if r]
    if not rows or rows[0] != "gcd 1" or "blocks:" not in rows:
        raise ValueError("not a gcd 1 document")
    cut = rows.index("blocks:")
    head = {}
    for row in rows[1:cut]:
        key, _, val = row.partition(":")
        head[key.strip()] = tuple(int(x) for x in val.split())
    v, k = head["v"], head["k"]
    blocks = []
    for row in rows[cut + 1:]:
        parts = tuple(tuple(int(x) for x in chunk.split()) for chunk in row.split("|"))
        if len(parts) != len(v):
            raise ValueError(f"block {row!r} has {len(parts)} parts, expected {len(v)}")
        for part, vi, ki in zip(parts, v, k):
            if len(part) != ki or len(set(part)) != ki or not all(1 <= x <= vi for x in part):
                raise ValueError(f"block {row!r} does not fit v={v} k={k}")
        blocks.append(parts)
    return Doc(head["t"][0], head["lambda"][0], v, k, tuple(blocks))


def load_naive_oracle(root: Path):
    """tests/naive_oracle.py, the repository's loop-based reference checker."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_naive_oracle", root / "tests" / "naive_oracle.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def incidence(blocks, v) -> np.ndarray:
    """[blocks, points] 0/1 matrix, points numbered part-major from 0."""
    offs = np.cumsum((0,) + tuple(v))
    m = np.zeros((len(blocks), int(offs[-1])), dtype=np.int32)
    for bi, b in enumerate(blocks):
        for i, part in enumerate(b):
            m[bi, [offs[i] + x - 1 for x in part]] = 1
    return m


def pairs_only_in(blocks, v, index: int):
    """Pairs inside blocks[index] that no other block contains, as set
    tuples sorted in verify's order (patterns with larger leading
    entries first, then ascending).  Every pair inside a block is
    admissible when each profile entry is at least 2."""
    offs = np.cumsum((0,) + tuple(v))
    others = incidence(blocks[:index] + blocks[index + 1:], v)
    pts = [int(offs[i]) + x - 1 for i, part in enumerate(blocks[index]) for x in part]
    sub = others[:, pts]
    together = sub.T @ sub
    out = []
    for a, b in combinations(range(len(pts)), 2):
        if together[a, b] == 0:
            out.append(_as_set_tuple((pts[a], pts[b]), offs))
    out.sort(key=lambda tup: (tuple(-len(p) for p in tup), tup))
    return out


def _as_set_tuple(points, offs):
    parts = [[] for _ in range(len(offs) - 1)]
    for p in points:
        i = int(np.searchsorted(offs, p, side="right")) - 1
        parts[i].append(p - int(offs[i]) + 1)
    return tuple(tuple(sorted(part)) for part in parts)


def essential_blocks(blocks, v) -> list[bool]:
    """Per block, whether it holds a pair no other block holds (strength 2,
    every profile entry at least 2)."""
    inc = incidence(blocks, v)
    together = inc.T @ inc
    out = []
    for row in inc:
        pts = np.flatnonzero(row)
        sub = together[np.ix_(pts, pts)]
        out.append(bool((sub[np.triu_indices(len(pts), 1)] == 1).any()))
    return out
