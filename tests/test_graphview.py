"""Join-graph construction and the two covering interpretations."""

import random
import time
from math import comb

import pytest

from fixture_designs import build, fano, mixed_422, strength2_fixtures
from gencov import (
    Design,
    PartStructure,
    StrengthNotTwo,
    UniverseTooLarge,
    check_clique_cover,
    check_multipartite_cover,
    cover_t1,
    from_covering_array,
    join_graph,
    to_dot,
    verify,
)
from gencov.cli import main
from gencov.graphview import EDGE_CAP
from util_random import mutate_design, random_structure, random_valid_design


def test_join_graph_mixed():
    g = join_graph(PartStructure((4, 2, 2), (2, 1, 1)))
    assert g.n == 8
    assert len(g.edges) == 26
    # part 1 is a clique, parts 2 and 3 are independent sets
    assert (1, 2) in g.edges
    assert (5, 6) not in g.edges and (7, 8) not in g.edges
    assert (5, 7) in g.edges  # between-part edge


def test_join_graph_extremes():
    multi = join_graph(PartStructure((2, 3), (1, 1)))
    assert len(multi.edges) == 2 * 3
    full = join_graph(PartStructure((3, 2), (2, 2)))
    assert len(full.edges) == comb(5, 2)


def test_join_graph_refuses_past_its_edge_cap(capsys):
    """(30000)/(2) has 4.5 * 10^8 edges: join_graph, check_clique_cover
    and `gencov graph dot` refuse it before building any."""
    s = PartStructure((30000,), (2,))
    began = time.perf_counter()
    with pytest.raises(UniverseTooLarge):
        join_graph(s)
    with pytest.raises(UniverseTooLarge):
        check_clique_cover(s, Design(s, 2, [((1, 2),)]))
    assert main(["graph", "dot", "--v", "30000", "--k", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:")
    assert time.perf_counter() - began < 1
    # The 243-block design on (243, 1024)/(32, 243), 802,011 edges, is
    # still checked as a clique cover.
    assert EDGE_CAP >= comb(243 + 1024, 2)


def test_join_graph_vertex_map():
    g = join_graph(PartStructure((4, 2), (2, 1)))
    assert g.part_of == (1, 1, 1, 1, 2, 2)
    assert g.local_of == (1, 2, 3, 4, 1, 2)


def test_edge_count_closed_forms():
    rng = random.Random(61)
    for _ in range(30):
        s = random_structure(rng, v_sum_max=12, m_max=4)
        g = join_graph(s)
        total = comb(s.v_sum, 2)
        skipped = sum(comb(vi, 2) for vi, ki in zip(s.v, s.k) if ki == 1)
        within = sum(comb(vi, 2) for vi, ki in zip(s.v, s.k) if ki >= 2)
        between = sum(
            s.v[i] * s.v[j] for i in range(s.m) for j in range(i + 1, s.m)
        )
        assert len(g.edges) == total - skipped == within + between


def test_clique_cover_reference():
    s = mixed_422().structure
    assert check_clique_cover(s, mixed_422())
    missing = Design(s, 2, mixed_422().blocks[1:])
    assert not check_clique_cover(s, missing)  # edge {1,2} inside part 1


def test_clique_cover_full_block():
    s = PartStructure((3, 2), (3, 2))
    d = build((3, 2), (3, 2), 2, (((1, 2, 3), (1, 2)),))
    assert check_clique_cover(s, d)


def test_multipartite_cover_reference():
    s = mixed_422().structure
    assert check_multipartite_cover(s, mixed_422())
    missing = Design(s, 2, mixed_422().blocks[1:])
    assert not check_multipartite_cover(s, missing)


def test_unit_profile_designs_agree():
    rows = [(0, 0, 0, 0), (1, 1, 1, 0), (1, 1, 0, 1), (1, 0, 1, 1), (0, 1, 1, 1)]
    d = from_covering_array(rows, t=2)
    s = d.structure
    assert check_clique_cover(s, d) == check_multipartite_cover(s, d) == True
    short = Design(s, 2, d.blocks[:3])
    assert check_clique_cover(s, short) == check_multipartite_cover(s, short) == False


def test_strength_two_required():
    d1 = cover_t1(PartStructure((4, 2), (2, 1)))
    with pytest.raises(StrengthNotTwo):
        check_clique_cover(d1.structure, d1)
    with pytest.raises(StrengthNotTwo):
        check_multipartite_cover(d1.structure, d1)


def test_all_fixtures_covered_both_ways():
    for name, d in strength2_fixtures():
        s = d.structure
        assert check_clique_cover(s, d), name
        assert check_multipartite_cover(s, d), name


def test_equivalence_randomized():
    rng = random.Random(67)
    for _ in range(60):
        d = random_valid_design(rng, v_sum_max=8, strengths=(2,))
        if d.t != 2:
            continue
        if rng.random() < 0.5:
            d = mutate_design(rng, d)
        s = d.structure
        ok = verify(d).valid
        assert check_clique_cover(s, d) == ok
        assert check_multipartite_cover(s, d) == ok


def test_dot_output():
    text = to_dot(join_graph(PartStructure((2, 2), (1, 1))))
    assert text.startswith("graph G {")
    assert 'v1 [label="1:1"]' in text
    assert "v1 -- v3;" in text
    assert "v1 -- v2;" not in text  # no within-part edge at profile 1
    assert text.rstrip().endswith("}")
