import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from deltamsr import (
    MAX_VERTICES,
    Graph,
    blocks,
    clique_cover_number,
    complement,
    from_edge_list,
    is_connected,
    min_degree,
    parse_edge_list,
    parse_graph6,
    to_graph6,
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

BOWTIE = from_edge_list(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])
PRISM = complement(cycle(6))


@st.composite
def graphs(draw, min_n=1, max_n=8):
    n = draw(st.integers(min_n, max_n))
    nbits = n * (n - 1) // 2
    bits = draw(st.integers(0, 2**nbits - 1))
    edges = []
    k = 0
    for j in range(1, n):
        for i in range(j):
            if bits >> k & 1:
                edges.append((i, j))
            k += 1
    return from_edge_list(n, edges)


# --- construction and formats ----------------------------------------------


def test_from_edge_list_empty_is_3k1():
    g = from_edge_list(3, [])
    assert g.n == 3 and g.edge_count == 0


def test_from_edge_list_c6():
    g = from_edge_list(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)])
    assert g == cycle(6)


def test_from_edge_list_collapses_duplicates():
    g = from_edge_list(3, [(0, 1), (1, 0), (0, 1)])
    assert g.edge_count == 1


@pytest.mark.parametrize(
    "n, adj, message",
    [
        (0, (), "at least one vertex"),
        (2, (2,), "length"),
        (2, (4, 0), "out-of-range"),
        (2, (1, 0), "loop"),
        (2, (0, 1), "asymmetric"),
    ],
)
def test_graph_rejects_invalid_adjacency(n, adj, message):
    # every way of building a Graph runs the same checks
    k2 = Graph(2, (2, 1))
    with pytest.raises(ValueError, match=message):
        Graph(n, adj)
    with pytest.raises(ValueError, match=message):
        Graph._make((n, adj))
    with pytest.raises(ValueError, match=message):
        k2._replace(n=n, adj=adj)


@pytest.mark.parametrize("bad", [[(0, 3)], [(-1, 0)], [(1, 1)]])
def test_from_edge_list_rejects(bad):
    with pytest.raises(ValueError):
        from_edge_list(3, bad)


def test_parse_graph6_k4():
    assert parse_graph6("C~") == complete(4)


def test_parse_graph6_k2():
    assert parse_graph6("A_") == complete(2)


def test_parse_graph6_roundtrip_example():
    s = "E?~o"
    g = parse_graph6(s)
    assert g.n == 6
    assert to_graph6(g) == s


def test_parse_graph6_optional_header():
    assert parse_graph6(">>graph6<<C~") == complete(4)


@pytest.mark.parametrize("bad", ["", "C", "C~~~~", "A" + chr(200), "A@"])
def test_parse_graph6_rejects_malformed(bad):
    with pytest.raises(ValueError):
        parse_graph6(bad)


def test_parse_graph6_rejects_nonzero_padding():
    # K2 payload uses 1 of 6 bits; flip a padding bit
    with pytest.raises(ValueError):
        parse_graph6("A" + chr(63 + 0b100001))


def test_graph6_long_form():
    g = path(70)
    s = to_graph6(g)
    assert s.startswith("~")
    assert parse_graph6(s) == g
    rng = random.Random(5)
    dense = from_edge_list(300, [(i, j) for j in range(300) for i in range(j) if rng.random() < 0.5])
    assert parse_graph6(to_graph6(dense)) == dense


def assert_checked_equal(h, expected):
    """h is a Graph that Graph(n, adj), with every check, rebuilds as expected."""
    assert type(h) is Graph
    assert h == Graph(h.n, h.adj) == expected


def non_edges(g):
    return [(u, v) for v in range(g.n) for u in range(v) if not g.adj[u] >> v & 1]


def test_builders_make_what_the_checking_constructor_accepts_on_atlas():
    # parse_graph6, from_edge_list and complement skip Graph's checks; their
    # masks must pass them
    for line in helpers.ATLAS_PATH.read_text().splitlines():
        g = parse_graph6(line)
        assert_checked_equal(g, g)
        assert_checked_equal(parse_graph6(to_graph6(g)), g)
        assert_checked_equal(complement(g), from_edge_list(g.n, non_edges(g)))
        # each edge in both orientations, so every pair is set twice
        both = g.edges() + [(v, u) for u, v in g.edges()]
        assert_checked_equal(from_edge_list(g.n, both), g)


@given(graphs(max_n=70))
def test_builders_make_what_the_checking_constructor_accepts(g):
    # n up to 70, so masks run past one 64-bit word; g is from_edge_list's
    assert_checked_equal(g, parse_graph6(to_graph6(g)))
    assert_checked_equal(parse_graph6(to_graph6(g)), g)
    assert_checked_equal(complement(g), from_edge_list(g.n, non_edges(g)))


def test_family_builders_make_what_the_checking_constructor_accepts():
    # every builder returns from_edge_list's graph
    p4 = path(4)
    for g in (
        cycle(70),
        path(66),
        complete(9),
        star(65),
        mobius_ladder(10),
        cartesian_product(complete(3), p4),
        corona(star(2), p4),
        robertson_cage(),
    ):
        assert_checked_equal(g, parse_graph6(to_graph6(g)))


def test_from_edge_list_refuses_an_empty_vertex_set():
    for n in (0, -1):
        with pytest.raises(ValueError, match="^graph needs at least one vertex$"):
            from_edge_list(n, [])
    # an out-of-range edge is named before the empty vertex set
    with pytest.raises(ValueError, match=r"^edge \(0,1\) out of range for n=0$"):
        from_edge_list(0, [(0, 1)])


@given(graphs(max_n=14))
def test_graph6_roundtrip(g):
    assert parse_graph6(to_graph6(g)) == g


def test_graph6_roundtrip_atlas():
    for line in helpers.ATLAS_PATH.read_text().splitlines():
        assert to_graph6(parse_graph6(line)) == line


def test_edge_list_text_roundtrip():
    g = BOWTIE
    assert parse_edge_list(helpers.format_edge_list(g)) == g


def test_parsers_cap_vertex_count_before_allocating():
    with pytest.raises(ValueError, match="input cap"):
        parse_edge_list(f"{10**18}\n0 1\n")
    # graph6 long form for n = 2**16 + 1, with no payload at all
    n = MAX_VERTICES + 1
    size = "~~" + "".join(chr((n >> s & 63) + 63) for s in (30, 24, 18, 12, 6, 0))
    with pytest.raises(ValueError, match="input cap"):
        parse_graph6(size)
    size = "~" + "".join(chr((n >> s & 63) + 63) for s in (12, 6, 0))
    with pytest.raises(ValueError, match="input cap"):
        parse_graph6(size)


def test_parse_edge_list_rejects_junk():
    with pytest.raises(ValueError):
        parse_edge_list("5\n0 1 2\n")
    # only [+-]?[0-9]+ is a number, where int() alone would read "1_0" as 10
    # and a full-width digit as its ASCII twin; lines end only at \n, \r\n
    # or \r and fields split only at spaces and tabs, where splitlines() and
    # split() would also break at NEL, U+2028 or the ideographic space; the
    # error names the line
    for text, message in (
        ("4\n0 x\n", "bad edge line: '0 x'"),
        ("1_0\n0 1\n", "bad vertex count line: '1_0'"),
        ("4\n0 \uff13\n", "bad edge line: '0 \uff13'"),
        ("4\n0\u30001\n2 3\n", "bad edge line: '0\\u30001'"),
        ("4\n0 1\n2 3\x851 2\n", "bad edge line: '2 3\\x851 2'"),
        ("4\n0 1\u20282 3\n", "bad edge line: '0 1\\u20282 3'"),
        ("4\u2028\n0 1\n", "bad vertex count line: '4\\u2028'"),
        ("4\n0 1\n\u3000\n", "bad edge line: '\\u3000'"),
    ):
        with pytest.raises(ValueError) as info:
            parse_edge_list(text)
        assert str(info.value) == message, text


def test_parse_edge_list_reads_crlf_cr_and_tab_separators():
    square = from_edge_list(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    for text in ("4\r\n0 1\r\n1\t2\r2 \t 3\n\t3 0 \r\n", " 4\n\n0  1\n1 2\n2 3\n3\t\t0"):
        assert parse_edge_list(text) == square, text


# --- complement, degrees, connectivity --------------------------------------


def test_complement_k3_is_3k1():
    assert complement(complete(3)) == from_edge_list(3, [])


def test_complement_c6_is_prism():
    from deltamsr.families import cartesian_product

    prism = cartesian_product(complete(3), complete(2))
    assert helpers.are_isomorphic(complement(cycle(6)), prism)


@given(graphs())
def test_complement_is_involution(g):
    assert complement(complement(g)) == g


@given(graphs())
def test_degree_identity(g):
    gbar = complement(g)
    assert all(g.adj[v].bit_count() + gbar.adj[v].bit_count() == g.n - 1 for v in range(g.n))
    assert min_degree(g) + helpers.max_degree(gbar) == g.n - 1


def test_is_connected():
    assert is_connected(cycle(6))
    assert not is_connected(from_edge_list(3, []))
    assert is_connected(PRISM)


def test_degrees_examples():
    assert (min_degree(cycle(6)), helpers.max_degree(cycle(6))) == (2, 2)
    assert (min_degree(robertson_cage()), helpers.max_degree(robertson_cage())) == (4, 4)
    assert (min_degree(star(4)), helpers.max_degree(star(4))) == (1, 4)


# --- induced subgraphs ---------------------------------------------------------
# The engine reads a set of vertices as a bitmask of the whole graph; the
# oracle relabels the same set into a graph of its own, and both agree.


def test_induced_consecutive_cycle_vertices_give_path():
    assert helpers.induced_subgraph(cycle(6), [0, 1, 2]) == path(3)
    assert clique_cover_number(cycle(6), 0b111) == clique_cover_number(path(3), 0b111) == 2


def test_induced_single_vertex():
    assert helpers.induced_subgraph(PRISM, [4]).n == 1
    assert clique_cover_number(PRISM, 1 << 4) == 0


def test_induced_triangle_face_of_prism():
    # complement(C6) has triangles on the even and odd vertices
    assert helpers.induced_subgraph(PRISM, [0, 2, 4]) == complete(3)
    assert clique_cover_number(PRISM, 0b010101) == clique_cover_number(PRISM, 0b101010) == 1


def test_induced_identity_on_all_vertices():
    assert helpers.induced_subgraph(BOWTIE, range(5)) == BOWTIE
    assert clique_cover_number(BOWTIE, 0b11111) == 2


@pytest.mark.parametrize("vs", [[], [0, 0], [9]])
def test_induced_rejects(vs):
    with pytest.raises(ValueError):
        helpers.induced_subgraph(BOWTIE, vs)


# --- chordality --------------------------------------------------------------
# clique_cover_number(g, mask) is None exactly when g[mask] is not chordal.


def test_chordality_complete_graph():
    assert clique_cover_number(complete(4), 0b1111) == 1


def test_chordality_c4_absent():
    assert clique_cover_number(cycle(4), 0b1111) is None


def test_chordality_bowtie_matches_exhaustive_check():
    assert clique_cover_number(BOWTIE, 0b11111) is not None
    assert helpers.is_chordal_brute(BOWTIE)


def test_chordality_agrees_with_brute_force_up_to_6():
    for g in helpers.atlas_graphs(max_n=6):
        cover = clique_cover_number(g, (1 << g.n) - 1)
        assert (cover is not None) == helpers.is_chordal_brute(g), to_graph6(g)
        if cover is not None:
            assert cover == helpers.min_edge_clique_cover(g), to_graph6(g)


# --- blocks ------------------------------------------------------------------


def cut_vertices(g):
    """Vertices whose deletion disconnects g, found by deleting each in turn."""
    if g.n == 1:
        return set()
    return {
        v
        for v in range(g.n)
        if not is_connected(helpers.induced_subgraph(g, [u for u in range(g.n) if u != v]))
    }


def block_vertex_lists(g):
    return sorted(map(helpers.mask_vertices, blocks(g)))


def test_blocks_bowtie():
    assert block_vertex_lists(BOWTIE) == [[0, 1, 2], [2, 3, 4]]
    assert cut_vertices(BOWTIE) == {2}


def test_blocks_cycle_single_block():
    assert blocks(cycle(6)) == [0b111111]
    assert not cut_vertices(cycle(6))


def test_blocks_path():
    assert block_vertex_lists(path(4)) == [[0, 1], [1, 2], [2, 3]]
    assert cut_vertices(path(4)) == {1, 2}


def test_blocks_rejects_disconnected():
    with pytest.raises(ValueError):
        blocks(from_edge_list(4, [(0, 1), (2, 3)]))


def k4_chain(k):
    """k copies of K4 in a row, block i on vertices 3i..3i+3; 3k + 1 vertices."""
    return from_edge_list(
        3 * k + 1, [(3 * i + a, 3 * i + b) for i in range(k) for b in range(4) for a in range(b)]
    )


def random_connected_graphs(count, max_n, rng):
    """Random trees with random extra edges: few to many blocks, any mask width."""
    for _ in range(count):
        n = rng.randint(1, max_n)
        tree = helpers.random_tree(n, rng)
        extra = [rng.sample(range(n), 2) for _ in range(rng.randint(0, n)) if n > 1]
        yield from_edge_list(n, tree.edges() + extra)


def test_blocks_match_the_neighbour_list_oracle():
    # same blocks in the same order, so msr_exact sums them alike
    cases = [g for g in helpers.atlas_graphs() if is_connected(g)]
    cases += random_connected_graphs(300, 70, random.Random(18))
    cases.append(k4_chain(500))
    for g in cases:
        assert blocks(g) == helpers.blocks_by_neighbour_lists(g), to_graph6(g)
    assert len(blocks(k4_chain(500))) == 500


def test_blocks_invariants_on_atlas():
    for g in helpers.atlas_graphs(max_n=6):
        if not is_connected(g):
            continue
        parts = [set(helpers.mask_vertices(b)) for b in blocks(g)]
        assert set().union(*parts) == set(range(g.n))
        cuts = cut_vertices(g)
        seen = {}
        for bi, block in enumerate(parts):
            for u, v in g.edges():
                if u in block and v in block:
                    assert seen.setdefault((u, v), bi) == bi
        for u, v in g.edges():
            assert (u, v) in seen, "every edge lies in exactly one block"
        for i in range(len(parts)):
            for j in range(i + 1, len(parts)):
                shared = parts[i] & parts[j]
                assert len(shared) <= 1
                assert shared <= cuts
        # a cut vertex exists exactly when there is more than one block
        assert (len(parts) > 1) == bool(cuts)
        # block-cut tree identity, and the tree characterization via edges
        assert sum(len(b) - 1 for b in parts) == g.n - 1
        block_edges = sum(
            1
            for block in parts
            for u, v in g.edges()
            if u in block and v in block
        )
        is_tree = g.edge_count == g.n - 1
        assert block_edges >= g.n - 1
        assert (block_edges == g.n - 1) == is_tree
