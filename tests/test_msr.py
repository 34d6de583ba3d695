import random

import pytest

from deltamsr import (
    blocks,
    check_delta_conjecture,
    clique_cover_number,
    complement,
    from_edge_list,
    is_connected,
    min_degree,
    msr_exact,
    to_graph6,
)
from deltamsr.families import complete, cycle, path, star

import deltamsr.msr
import helpers

BOWTIE = from_edge_list(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])
PRISM = complement(cycle(6))
# K5 on 0..4 with the paths 0-5-6-7 and 2-8-9: one K5 block and five K2 blocks
K5_TWO_PATHS = from_edge_list(
    10, [(i, j) for j in range(5) for i in range(j)] + [(0, 5), (5, 6), (6, 7), (2, 8), (8, 9)]
)

def clique_edges(vs):
    return [(u, v) for i, v in enumerate(vs) for u in vs[:i]]


# K4 on 0..3 and C5 on 3..7, sharing the cut vertex 3
K4_C5 = from_edge_list(8, clique_edges(range(4)) + [(3, 4), (4, 5), (5, 6), (6, 7), (7, 3)])
# K_200 with one pendant vertex: a large chordal block beside a K2 block
K200_PENDANT = from_edge_list(201, clique_edges(range(200)) + [(0, 200)])
# K4 on 0..3 and the prism on 3..8, sharing the cut vertex 3
K4_PRISM = from_edge_list(9, clique_edges(range(4)) + [(u + 3, v + 3) for u, v in PRISM.edges()])


# --- exact engine -------------------------------------------------------------


@pytest.mark.parametrize(
    "g,expected",
    [
        (path(4), 3),
        (cycle(5), 3),
        (BOWTIE, 2),
        (complete(4), 1),
        (star(3), 3),
        (complete(1), 0),
        (cycle(3), 1),
        (helpers.random_tree(200, random.Random(12)), 199),
        (K5_TWO_PATHS, 1 + 5),
        (K4_C5, 1 + 3),
        (K200_PENDANT, 2),
        (K4_PRISM, None),
    ],
)
def test_msr_exact_values(g, expected):
    assert msr_exact(g) == expected


def test_msr_exact_rejects_disconnected():
    with pytest.raises(ValueError):
        msr_exact(from_edge_list(4, [(0, 1), (2, 3)]))


def test_msr_exact_unresolved_on_prism():
    # 2-connected, not a cycle, not chordal: outside the engine's reach
    assert msr_exact(PRISM) is None


def test_random_trees(n_trees=20):
    rng = random.Random(7)
    for _ in range(n_trees):
        t = helpers.random_tree(rng.randint(2, 12), rng)
        assert msr_exact(t) == t.n - 1


def test_cycles():
    for n in range(3, 13):
        assert msr_exact(cycle(n)) == n - 2


# --- clique cover ---------------------------------------------------------------


@pytest.mark.parametrize(
    "g,expected",
    [(complete(4), 1), (path(4), 3), (star(3), 3), (BOWTIE, 2)],
)
def test_clique_cover_values(g, expected):
    assert clique_cover_number(g, (1 << g.n) - 1) == expected


def test_clique_cover_rejects_bad_peo():
    # a non-chordal block inside a larger graph has no cover, while the
    # chordal block beside it and a chordal part of the prism have one
    prism_block = 0b111111000
    assert clique_cover_number(K4_PRISM, prism_block) is None
    assert clique_cover_number(K4_PRISM, 0b1111) == 1
    assert clique_cover_number(K4_PRISM, 0b010101000) == 1  # a triangle face of the prism


def test_clique_cover_matches_brute_force_up_to_6():
    for g in helpers.atlas_graphs(max_n=6):
        if g.n < 2 or not is_connected(g):
            continue
        cover = clique_cover_number(g, (1 << g.n) - 1)
        if cover is None:
            continue
        assert cover == helpers.min_edge_clique_cover(g), to_graph6(g)


def test_clique_cover_of_every_block_matches_the_induced_oracle():
    checked = 0
    for g in helpers.atlas_graphs(max_n=6):
        if not is_connected(g):
            continue
        for block in blocks(g):
            h = helpers.induced_subgraph(g, helpers.mask_vertices(block))
            expected = helpers.min_edge_clique_cover(h) if helpers.is_chordal_brute(h) else None
            assert clique_cover_number(g, block) == expected, (to_graph6(g), bin(block))
            checked += 1
    assert checked > 250


def test_chordal_and_pendant_rules_agree():
    # engine consistency: removing a pendant vertex lowers msr by exactly
    # one, the msr of its K2 block
    checked = 0
    for g in helpers.atlas_graphs(max_n=7):
        if g.n < 3 or not is_connected(g):
            continue
        value = msr_exact(g)
        for v in range(g.n):
            if g.degree(v) != 1:
                continue
            inner = msr_exact(helpers.induced_subgraph(g, [u for u in range(g.n) if u != v]))
            assert (value is None) == (inner is None), to_graph6(g)
            if value is not None:
                assert value == inner + 1, to_graph6(g)
                checked += 1
    assert checked > 100


def test_block_rule_consistent_with_chordal_rule():
    for g in helpers.atlas_graphs(max_n=6):
        if not is_connected(g) or g.n < 3:
            continue
        cover = clique_cover_number(g, (1 << g.n) - 1)
        parts = blocks(g)
        if cover is None or len(parts) == 1:
            continue
        total = sum(
            msr_exact(helpers.induced_subgraph(g, helpers.mask_vertices(b))) for b in parts
        )
        assert total == cover, to_graph6(g)


def glued_graph(rng: random.Random, pieces: int):
    """Cycles, cliques and single edges glued one at a time at random cut vertices.

    Returns the graph and its msr as the sum over the pieces, each of which
    is one block: k - 2 for C_k, 1 for K_k, 1 for a bridge.
    """
    edges: list[tuple[int, int]] = []
    n = 1
    expected = 0
    for _ in range(pieces):
        at = rng.randrange(n)
        kind = rng.choice(("cycle", "clique", "edge"))
        k = 2 if kind == "edge" else rng.randint(3 if kind == "clique" else 4, 7)
        verts = [at] + list(range(n, n + k - 1))
        n += k - 1
        if kind == "cycle":
            edges += [(verts[i], verts[(i + 1) % k]) for i in range(k)]
            expected += k - 2
        else:
            edges += [(verts[i], verts[j]) for i in range(k) for j in range(i + 1, k)]
            expected += 1
    return from_edge_list(n, edges), expected


def test_block_sum_on_glued_graphs():
    rng = random.Random(11)
    for _ in range(60):
        g, expected = glued_graph(rng, rng.randint(2, 8))
        assert msr_exact(g) == expected, to_graph6(g)


# --- conjecture reports ------------------------------------------------------------


def test_conjecture_prism():
    r = check_delta_conjecture(PRISM, seed=0, graph_id=to_graph6(PRISM))
    assert r.verdict == "holds-by-construction"
    assert r.certified_hi == r.delta_bound == 3


def test_conjecture_tree():
    t = helpers.random_tree(9, random.Random(3))
    r = check_delta_conjecture(t, seed=0, graph_id=to_graph6(t))
    assert r.verdict in ("holds", "holds-by-construction")
    assert r.certified_hi <= r.delta_bound == t.n - 1


def test_conjecture_c6():
    r = check_delta_conjecture(cycle(6), seed=0, graph_id="C6")
    assert r.verdict == "holds"
    assert r.certified_hi == 4 == 6 - 2


def test_conjecture_refuted_when_exact_value_exceeds_bound(monkeypatch):
    # C6 is not a delta-graph, so the verdict rests on the exact engine
    monkeypatch.setattr(deltamsr.msr, "msr_exact", lambda g: 5)
    r = check_delta_conjecture(cycle(6), seed=0, graph_id="C6")
    assert r.verdict == "refuted"
    assert r.certified_hi == 5 > r.delta_bound == 4
    monkeypatch.setattr(deltamsr.msr, "msr_exact", lambda g: None)
    r = check_delta_conjecture(cycle(6), seed=0, graph_id="C6")
    assert r.verdict == "unresolved" and r.certified_hi == 5


def test_conjecture_reports_on_small_atlas():
    for g in helpers.atlas_graphs(max_n=5):
        if not is_connected(g):
            continue
        r = check_delta_conjecture(g, seed=0, graph_id=to_graph6(g))
        if r.verdict != "unresolved":
            assert r.certified_hi <= r.delta_bound, r


def test_engine_respects_delta_bound_up_to_6():
    # known fact for small orders: the exact value never beats |G| - delta(G)
    for g in helpers.atlas_graphs(max_n=6):
        if not is_connected(g):
            continue
        value = msr_exact(g)
        if value is not None:
            assert value <= g.n - min_degree(g), to_graph6(g)
