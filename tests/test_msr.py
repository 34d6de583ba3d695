import random

import pytest

from deltamsr import (
    EliminationOrdering,
    check_delta_conjecture,
    chordality,
    clique_cover_number_chordal,
    complement,
    find_pendant,
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
    # 2-connected, not chordal, no pendant: outside the engine's reach
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
        clique_cover_number_chordal(path(4), EliminationOrdering((1, 0, 2, 3)))


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
    # engine consistency: on chordal graphs with a pendant vertex the clique
    # cover equals one plus the msr of the graph with the pendant removed
    checked = 0
    for g in helpers.atlas_graphs(max_n=7):
        if not is_connected(g):
            continue
        peo = chordality(g)
        v = find_pendant(g)
        if peo is None or v is None or g.n < 2:
            continue
        rest = induced_subgraph(g, [u for u in range(g.n) if u != v])
        assert clique_cover_number_chordal(g, peo) == msr_exact(rest) + 1
        checked += 1
    assert checked > 100


def test_block_rule_consistent_with_chordal_rule():
    from deltamsr import blocks

    for g in helpers.atlas_graphs(max_n=6):
        if not is_connected(g) or g.n < 3:
            continue
        peo = chordality(g)
        decomp = blocks(g)
        if peo is None or not decomp.cut_vertices:
            continue
        total = sum(msr_exact(induced_subgraph(g, b)) for b in decomp.blocks)
        assert total == clique_cover_number_chordal(g, peo), to_graph6(g)


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
