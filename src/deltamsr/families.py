"""Generators for the named graph families used as a regression corpus.

Cycles, paths, complete graphs and stars; Cartesian products (K_n x P_m),
Moebius ladders, coronas of a star with paths, and the Robertson (4,5)-cage.
Vertex labellings are canonical and documented per generator, so outputs
are reproducible byte-for-byte through graph6.  Each builder checks its
vertex count against ``graphs.MAX_VERTICES`` before it builds an edge
list, and the builders whose edge count can outgrow their vertex count
(complete graphs, Cartesian products, coronas) compute it and check it
against this module's ``MAX_EDGES`` too.
"""

from .graphs import Graph, check_vertex_count, from_edge_list

__all__ = [
    "MAX_EDGES",
    "check_edge_count",
    "cycle",
    "path",
    "complete",
    "star",
    "cartesian_product",
    "mobius_ladder",
    "corona",
    "robertson_cage",
]


# largest edge count the family builders produce; K_1449 is the first
# complete graph above it
MAX_EDGES = 2**20


def check_edge_count(m: int) -> None:
    """Refuse an edge count above MAX_EDGES, before any edge list is built."""
    if m > MAX_EDGES:
        raise ValueError(f"edge count {m} exceeds the cap of {MAX_EDGES}")


def cycle(n: int) -> Graph:
    """C_n with edges i ~ i+1 (mod n)."""
    if n < 3:
        raise ValueError("a cycle needs at least three vertices")
    check_vertex_count(n)
    return from_edge_list(n, [(i, (i + 1) % n) for i in range(n)])


def path(n: int) -> Graph:
    """P_n with edges i ~ i+1."""
    if n < 1:
        raise ValueError("a path needs at least one vertex")
    check_vertex_count(n)
    return from_edge_list(n, [(i, i + 1) for i in range(n - 1)])


def complete(n: int) -> Graph:
    if n < 1:
        raise ValueError("a complete graph needs at least one vertex")
    check_vertex_count(n)
    check_edge_count(n * (n - 1) // 2)
    return from_edge_list(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def star(n: int) -> Graph:
    """S_n = K_{1,n}: centre 0 joined to leaves 1..n."""
    if n < 1:
        raise ValueError("a star needs at least one leaf")
    check_vertex_count(n + 1)
    return from_edge_list(n + 1, [(0, i) for i in range(1, n + 1)])


def cartesian_product(g: Graph, h: Graph) -> Graph:
    """Box product: (a,b) ~ (c,d) iff a=c, b~d or b=d, a~c; (a,b) -> a*|h|+b."""
    check_vertex_count(g.n * h.n)
    check_edge_count(g.n * h.edge_count + h.n * g.edge_count)
    edges = []
    for a in range(g.n):
        for b in range(h.n):
            base = a * h.n + b
            for d in h.neighbors(b):
                if d > b:
                    edges.append((base, a * h.n + d))
            for c in g.neighbors(a):
                if c > a:
                    edges.append((base, c * h.n + b))
    return from_edge_list(g.n * h.n, edges)


def mobius_ladder(k: int) -> Graph:
    """ML_k for even k >= 6: the cycle C_k plus the k/2 antipodal chords."""
    if k % 2 or k < 6:
        raise ValueError("a Moebius ladder needs an even vertex count >= 6")
    check_vertex_count(k)
    edges = [(i, (i + 1) % k) for i in range(k)]
    edges += [(i, i + k // 2) for i in range(k // 2)]
    return from_edge_list(k, edges)


def corona(g: Graph, h: Graph) -> Graph:
    """g with one copy of h per vertex; vertex i of g joins all of copy i.

    Layout: g occupies 0..|g|-1, copy i of h occupies |g|+i*|h| onward.
    """
    ng, nh = g.n, h.n
    check_vertex_count(ng * (1 + nh))
    check_edge_count(g.edge_count + ng * (h.edge_count + nh))
    edges = list(g.edges())
    for i in range(ng):
        base = ng + i * nh
        edges.extend((base + u, base + v) for u, v in h.edges())
        edges.extend((i, base + u) for u in range(nh))
    return from_edge_list(ng + ng * nh, edges)


# Chord offsets over the 19-cycle; vertex i gains the chord i ~ i + offset.
# The resulting graph is 4-regular with girth 5 on 19 vertices, and the
# (4,5)-cage is unique, so these 38 edges are the Robertson graph.
_ROBERTSON_CHORDS = (8, 4, 7, 4, 8, 5, 7, 4, 7, 8, 4, 5, 7, 8, 4, 8, 4, 8, 4)


def robertson_cage() -> Graph:
    """Robertson's (4,5)-cage: 19 vertices, 38 edges, 4-regular, girth 5."""
    edges = [(i, (i + 1) % 19) for i in range(19)]
    edges += [(i, (i + off) % 19) for i, off in enumerate(_ROBERTSON_CHORDS)]
    return from_edge_list(19, edges)
