"""Brute-force oracles and small utilities shared across the test suite.

Everything here is deliberately independent of the library's own search
and elimination code: isomorphism and clique covers run raw backtracking,
chordality and delta-graph recognition try every ordering, girth runs BFS
from every root.
"""

from __future__ import annotations

import random
from itertools import combinations, permutations
from pathlib import Path

from deltamsr import (
    DeltaCertificate,
    Graph,
    complement,
    from_edge_list,
    is_connected,
    is_perfect_elimination_ordering,
    parse_graph6,
)

ATLAS_PATH = Path(__file__).parent / "data" / "atlas_n1to7.g6"

# isomorphism class counts of simple graphs on 1..7 vertices
ATLAS_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044}


def atlas_graphs(min_n: int = 1, max_n: int = 7) -> list[Graph]:
    out = []
    for line in ATLAS_PATH.read_text().splitlines():
        g = parse_graph6(line)
        if min_n <= g.n <= max_n:
            out.append(g)
    return out


def are_isomorphic(g: Graph, h: Graph) -> bool:
    """Backtracking isomorphism test with degree pruning (small graphs)."""
    if g.n != h.n or g.edge_count != h.edge_count:
        return False
    if sorted(map(g.degree, range(g.n))) != sorted(map(h.degree, range(h.n))):
        return False
    order = sorted(range(g.n), key=lambda v: -g.degree(v))
    mapping: dict[int, int] = {}
    used = [False] * h.n

    def assign(i: int) -> bool:
        if i == g.n:
            return True
        v = order[i]
        for w in range(h.n):
            if used[w] or h.degree(w) != g.degree(v):
                continue
            if all(g.has_edge(v, u) == h.has_edge(w, mapping[u]) for u in mapping):
                mapping[v] = w
                used[w] = True
                if assign(i + 1):
                    return True
                del mapping[v]
                used[w] = False
        return False

    return assign(0)


def maximal_cliques(g: Graph) -> list[frozenset[int]]:
    """Bron-Kerbosch without pivoting."""
    out: list[frozenset[int]] = []

    def expand(r: set[int], p: set[int], x: set[int]) -> None:
        if not p and not x:
            out.append(frozenset(r))
            return
        for v in sorted(p):
            nv = set(g.neighbors(v))
            expand(r | {v}, p & nv, x & nv)
            p.remove(v)
            x.add(v)

    expand(set(), set(range(g.n)), set())
    return out


def min_edge_clique_cover(g: Graph) -> int:
    """Minimum number of cliques covering every edge; 0 for edgeless graphs.

    Restricting to maximal cliques is safe: growing any clique of a cover
    keeps it a cover of the same size.
    """
    edges = [frozenset(e) for e in g.edges()]
    if not edges:
        return 0
    cliques = maximal_cliques(g)
    covers = [
        frozenset(i for i, e in enumerate(edges) if e <= c) for c in cliques
    ]
    target = frozenset(range(len(edges)))
    for k in range(1, len(cliques) + 1):
        for pick in combinations(covers, k):
            merged: frozenset[int] = frozenset()
            for c in pick:
                merged |= c
            if merged == target:
                return k
    raise AssertionError("maximal cliques always cover all edges")


def is_chordal_brute(g: Graph) -> bool:
    """Chordal iff some vertex ordering is a perfect elimination ordering."""
    return any(
        is_perfect_elimination_ordering(g, perm)
        for perm in permutations(range(g.n))
    )


def brute_force_recognize(g: Graph) -> DeltaCertificate | None:
    """Delta-graph certificate from a scan of all vertex orderings (n <= 9).

    Position m (from 4) may miss at most floor(m/2) - 1 of its priors; the
    first three vertices must induce 3K1 or K2+K1.
    """
    n = g.n
    if n > 9:
        raise ValueError("factorial search is capped at 9 vertices")
    if n < 4 or not (is_connected(g) and is_connected(complement(g))):
        return None
    # bit u of missed[v] is set when u and v are distinct non-neighbours
    missed = [
        sum(1 << u for u in range(n) if u != v and not g.has_edge(u, v))
        for v in range(n)
    ]
    for perm in permutations(range(n)):
        a, b, c = perm[:3]
        base_edges = g.has_edge(a, b) + g.has_edge(a, c) + g.has_edge(b, c)
        if base_edges > 1:
            continue
        placed = (1 << a) | (1 << b) | (1 << c)
        counts = []
        for i in range(3, n):
            t = (missed[perm[i]] & placed).bit_count()
            if t > (i + 1) // 2 - 1:
                break
            counts.append(t)
            placed |= 1 << perm[i]
        else:
            kind = "3K1" if base_edges == 0 else "K2+K1"
            return DeltaCertificate(perm, kind, tuple(counts))
    return None


def girth(g: Graph) -> int | None:
    """Length of a shortest cycle via BFS from every root; None if acyclic."""
    best: int | None = None
    for root in range(g.n):
        dist = {root: 0}
        parent = {root: -1}
        frontier = [root]
        while frontier:
            nxt = []
            for u in frontier:
                for w in g.neighbors(u):
                    if w not in dist:
                        dist[w] = dist[u] + 1
                        parent[w] = u
                        nxt.append(w)
                    elif w != parent[u] and dist[w] >= dist[u]:
                        length = dist[u] + dist[w] + 1
                        if best is None or length < best:
                            best = length
            frontier = nxt
    return best


def random_tree(n: int, rng: random.Random) -> Graph:
    """Uniform labelled tree from a random Pruefer sequence."""
    if n == 1:
        return from_edge_list(1, [])
    if n == 2:
        return from_edge_list(2, [(0, 1)])
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = []
    import heapq

    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    u = heapq.heappop(leaves)
    w = heapq.heappop(leaves)
    edges.append((u, w))
    g = from_edge_list(n, edges)
    assert g.edge_count == n - 1 and is_connected(g)
    return g
