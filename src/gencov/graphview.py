"""Graph interpretations of strength-2 designs.

A structure induces a join graph: each part contributes a complete
graph when its profile is at least 2 and an empty graph otherwise, and
all between-part edges are present.  Valid strength-2 designs are
exactly the clique coverings of this graph whose cliques take k_i
vertices from part i; an equivalent multipartite reading splits the
check into between-part and within-part conditions.

Both checks below recompute coverage from first principles so they can
serve as an oracle for the tuple-counting verifier; they intentionally
share no code with it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

from .core import Design, PartStructure, require_design
from .errors import StrengthNotTwo, StructureMismatch, UniverseTooLarge

# join_graph holds every edge as a Python tuple in a set, over 100 bytes
# each; graphs of more edges than this are refused before any is built.
# The 243-block design on (243, 1024) with profile (32, 243) has 802,011.
EDGE_CAP = 1 << 21


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph with 1-based global vertex labels and a
    recorded (part, local label) assignment per vertex."""

    n: int
    part_of: tuple[int, ...]
    local_of: tuple[int, ...]
    edges: frozenset[tuple[int, int]]


def _offsets(s: PartStructure) -> list[int]:
    offs = [0]
    for vi in s.v:
        offs.append(offs[-1] + vi)
    return offs


def join_graph(s: PartStructure) -> Graph:
    """Join of the per-part graphs: within-part edges iff k_i >= 2, all
    between-part edges.  Vertices are numbered part-major.  A graph of
    more than EDGE_CAP edges raises UniverseTooLarge before it is built."""
    edges = comb(s.v_sum, 2) - sum(comb(vi, 2) for vi, ki in zip(s.v, s.k) if ki == 1)
    if edges > EDGE_CAP:
        raise UniverseTooLarge(f"join graph of {edges} edges exceeds cap {EDGE_CAP}")
    offs = _offsets(s)
    part_of = []
    local_of = []
    for i, vi in enumerate(s.v):
        part_of.extend([i + 1] * vi)
        local_of.extend(range(1, vi + 1))
    edges = set()
    for i, (vi, ki) in enumerate(zip(s.v, s.k)):
        if ki >= 2:
            for a, b in combinations(range(offs[i] + 1, offs[i] + vi + 1), 2):
                edges.add((a, b))
    for i, j in combinations(range(s.m), 2):
        for a in range(offs[i] + 1, offs[i] + s.v[i] + 1):
            for b in range(offs[j] + 1, offs[j] + s.v[j] + 1):
                edges.add((a, b))
    return Graph(s.v_sum, tuple(part_of), tuple(local_of), frozenset(edges))


def _check_design(s: PartStructure, d: Design, op: str) -> None:
    """Raise unless d is a strength-2 Design on s itself; op names the check."""
    require_design(d, op)
    if d.t != 2:
        raise StrengthNotTwo(f"graph checks apply to strength 2, got {d.t}")
    if d.structure != s:
        raise StructureMismatch(f"design is on {d.structure}, not on {s}")


def check_clique_cover(s: PartStructure, d: Design) -> bool:
    """True iff the blocks, read as vertex sets, cover every edge of the
    join graph."""
    _check_design(s, d, "check_clique_cover")
    offs = _offsets(s)
    need = set(join_graph(s).edges)
    for block in d.blocks:
        verts = sorted(offs[i] + x for i, part in enumerate(block) for x in part)
        for pair in combinations(verts, 2):
            need.discard(pair)
        if not need:
            return True
    return not need


def check_multipartite_cover(s: PartStructure, d: Design) -> bool:
    """True iff (i) every between-part pair lies in some block and
    (ii) for every part with profile >= 2, every within-part pair lies
    in some block's set for that part."""
    _check_design(s, d, "check_multipartite_cover")
    for i, j in combinations(range(s.m), 2):
        for x in range(1, s.v[i] + 1):
            for y in range(1, s.v[j] + 1):
                if not any(x in b[i] and y in b[j] for b in d.blocks):
                    return False
    for i, (vi, ki) in enumerate(zip(s.v, s.k)):
        if ki < 2:
            continue
        for x, y in combinations(range(1, vi + 1), 2):
            if not any(x in b[i] and y in b[i] for b in d.blocks):
                return False
    return True


def to_dot(g: Graph) -> str:
    """DOT text of the graph; vertices are labeled part:local."""
    lines = ["graph G {"]
    for v in range(1, g.n + 1):
        lines.append(f'  v{v} [label="{g.part_of[v - 1]}:{g.local_of[v - 1]}"];')
    for a, b in sorted(g.edges):
        lines.append(f"  v{a} -- v{b};")
    lines.append("}")
    return "\n".join(lines) + "\n"
