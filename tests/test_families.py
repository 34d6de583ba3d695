import pytest

from deltamsr import (
    GenericSampler,
    complement,
    construct,
    from_edge_list,
    min_degree,
    recognize_delta,
    to_graph6,
    verify_rep,
)
from deltamsr.families import (
    cartesian_product,
    complete,
    corona,
    cycle,
    mobius_ladder,
    path,
    robertson_cage,
    star,
)

import helpers


def test_cycle_basics():
    c6 = cycle(6)
    assert c6.n == 6 and c6.edge_count == 6
    assert min_degree(c6) == helpers.max_degree(c6) == 2
    with pytest.raises(ValueError):
        cycle(2)


def test_star_and_complete():
    s4 = star(4)
    assert s4.n == 5 and min_degree(s4) == 1 and helpers.max_degree(s4) == 4
    assert complete(3) == cycle(3)


def test_path_endpoints():
    p = path(4)
    assert p.edge_count == 3 and p.adj[0].bit_count() == p.adj[3].bit_count() == 1


def test_k2_box_k2_is_c4():
    assert helpers.are_isomorphic(cartesian_product(complete(2), complete(2)), cycle(4))


def test_k3_box_p4_degrees():
    g = cartesian_product(complete(3), path(4))
    assert g.n == 12
    assert sorted({g.adj[v].bit_count() for v in range(12)}) == [3, 4]


def test_k3_box_k2_is_prism():
    prism = cartesian_product(complete(3), complete(2))
    assert helpers.are_isomorphic(prism, complement(cycle(6)))


def test_cartesian_product_commutes_up_to_isomorphism():
    pairs = [
        (complete(2), path(3)),
        (path(2), cycle(4)),
        (complete(2), complete(4)),
    ]
    for g, h in pairs:
        assert (g.n * h.n) <= 8
        assert helpers.are_isomorphic(cartesian_product(g, h), cartesian_product(h, g))


def test_mobius_ladder_6_is_k33():
    k33 = from_edge_list(6, [(i, j) for i in (0, 1, 2) for j in (3, 4, 5)])
    assert helpers.are_isomorphic(mobius_ladder(6), k33)


def test_mobius_ladder_8_is_cubic():
    g = mobius_ladder(8)
    assert g.n == 8 and min_degree(g) == helpers.max_degree(g) == 3


@pytest.mark.parametrize("k", [4, 7])
def test_mobius_ladder_rejects(k):
    with pytest.raises(ValueError):
        mobius_ladder(k)


def test_corona_of_two_k1_is_k2():
    assert corona(complete(1), complete(1)) == complete(2)


def test_corona_star_path_layout():
    g = corona(star(2), path(1))
    assert g.n == 6
    # each of the three star vertices gains one private leaf
    assert g.adj[0].bit_count() == 3 and g.adj[1].bit_count() == g.adj[2].bit_count() == 2
    assert all(g.adj[v].bit_count() == 1 for v in (3, 4, 5))


def test_robertson_cage_parameters():
    g = robertson_cage()
    assert g.n == 19
    assert g.edge_count == 38
    assert min_degree(g) == helpers.max_degree(g) == 4
    assert helpers.girth(g) == 5


def test_small_mobius_ladders_cannot_be_c_delta():
    """Counting obstruction: placing v_m may cover at most floor(m/2)-1 edges,
    the (triangle-free) base at most 2, so ML6 (9 edges > 2+1+1+2) and ML8
    (12 edges > 2+1+1+2+2+3) admit no valid ordering at all."""
    from helpers import brute_force_recognize

    for k in (6, 8):
        g = mobius_ladder(k)
        budget = 2 + sum(m // 2 - 1 for m in range(4, k + 1))
        assert g.edge_count > budget
        assert recognize_delta(complement(g)) is None
        assert brute_force_recognize(complement(g)) is None


def _family_corpus():
    yield from (cycle(n) for n in range(6, 11))
    yield mobius_ladder(10)
    yield mobius_ladder(12)
    yield cartesian_product(complete(3), path(4))
    yield corona(star(2), path(2))
    yield robertson_cage()


def test_family_corpus_members_are_c_delta_with_verified_reps():
    for g in _family_corpus():
        gbar = complement(g)
        cert = recognize_delta(gbar)
        assert cert is not None, to_graph6(g)
        rep = construct(gbar, cert, GenericSampler(seed=0))
        report = verify_rep(gbar, rep)
        assert report.all_ok, to_graph6(g)
        assert report.bound == gbar.n - min_degree(gbar)
