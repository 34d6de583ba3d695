import random

import pytest

from deltamsr import (
    blocks,
    check_delta_conjecture,
    chordality,
    clique_cover_number_chordal,
    complement,
    from_edge_list,
    induced_subgraph,
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
    peo = chordality(g)
    assert peo is not None
    assert clique_cover_number_chordal(g, peo) == expected


def test_clique_cover_rejects_bad_peo():
    with pytest.raises(ValueError):
        clique_cover_number_chordal(path(4), (1, 0, 2, 3))


def test_clique_cover_matches_brute_force_up_to_6():
    for g in helpers.atlas_graphs(max_n=6):
        if g.n < 2 or not is_connected(g):
            continue
        peo = chordality(g)
        if peo is None:
            continue
        assert clique_cover_number_chordal(g, peo) == helpers.min_edge_clique_cover(
            g
        ), to_graph6(g)


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
            inner = msr_exact(induced_subgraph(g, [u for u in range(g.n) if u != v]))
            assert (value is None) == (inner is None), to_graph6(g)
            if value is not None:
                assert value == inner + 1, to_graph6(g)
                checked += 1
    assert checked > 100


def test_block_rule_consistent_with_chordal_rule():
    for g in helpers.atlas_graphs(max_n=6):
        if not is_connected(g) or g.n < 3:
            continue
        peo = chordality(g)
        parts = blocks(g)
        if peo is None or len(parts) == 1:
            continue
        total = sum(msr_exact(induced_subgraph(g, b)) for b in parts)
        assert total == clique_cover_number_chordal(g, peo), to_graph6(g)


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
    r = check_delta_conjecture(PRISM)
    assert r.verdict == "holds-by-construction"
    assert r.certified_hi == r.delta_bound == 3


def test_conjecture_tree():
    t = helpers.random_tree(9, random.Random(3))
    r = check_delta_conjecture(t)
    assert r.verdict in ("holds", "holds-by-construction")
    assert r.certified_hi <= r.delta_bound == t.n - 1


def test_conjecture_c6():
    r = check_delta_conjecture(cycle(6))
    assert r.verdict == "holds"
    assert r.certified_hi == 4 == 6 - 2


def test_conjecture_refuted_when_exact_value_exceeds_bound(monkeypatch):
    # C6 is not a delta-graph, so the verdict rests on the exact engine
    monkeypatch.setattr(deltamsr.msr, "msr_exact", lambda g: 5)
    r = check_delta_conjecture(cycle(6))
    assert r.verdict == "refuted"
    assert r.certified_hi == 5 > r.delta_bound == 4
    monkeypatch.setattr(deltamsr.msr, "msr_exact", lambda g: None)
    r = check_delta_conjecture(cycle(6))
    assert r.verdict == "unresolved" and r.certified_hi == 5


def test_conjecture_reports_on_small_atlas():
    for g in helpers.atlas_graphs(max_n=5):
        if not is_connected(g):
            continue
        r = check_delta_conjecture(g)
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
