"""Brute-force oracles and small utilities shared across the test suite.

Everything here is deliberately independent of the library's own search
and elimination code: isomorphism and clique covers run raw backtracking,
induced subgraphs test every vertex pair, perfect elimination orderings
are checked pair by pair, chordality and delta-graph recognition try
every ordering, the first certificate in the search's order comes from a
plain recursive scan with no memo, blocks come from a DFS over neighbour
lists, girth runs BFS from every root, rank is plain Fraction elimination,
representation checks take plain Fraction dots and rank, and random
delta-graphs are drawn along the definition's own ordering.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, permutations
from pathlib import Path

from deltamsr import (
    DeltaCertificate,
    Graph,
    complement,
    from_edge_list,
    is_connected,
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


def max_degree(g: Graph) -> int:
    return max(g.degree(v) for v in range(g.n))


def format_edge_list(g: Graph) -> str:
    """The text format parse_edge_list reads: n, then one 'u v' line per edge."""
    lines = [str(g.n)]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def rank(rows) -> int:
    """Exact rank of a matrix of ints or Fractions by Gaussian elimination."""
    mat = [[Fraction(x) for x in row] for row in rows]
    r = 0
    for c in range(len(mat[0]) if mat else 0):
        p = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if p is None:
            continue
        mat[r], mat[p] = mat[p], mat[r]
        for i in range(r + 1, len(mat)):
            f = mat[i][c] / mat[r][c]
            mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        r += 1
    return r


def rep_checks(g: Graph, dim: int, vecs) -> tuple[bool, bool, bool, bool, tuple[int, int] | None]:
    """verify_rep's pattern, nonzero, independent and dimension flags, and
    its first failing pair in row-major order, from the definitions.

    Inner products are plain Fraction sums.  A pair i < j is dependent when
    vecs[i] is nonzero and the two vectors have rank at most 1.  Ragged
    vectors leave no pair to compare, so neither pair flag holds.
    """
    vecs = [[Fraction(x) for x in vec] for vec in vecs]
    dimension_ok = dim == g.n - min(map(g.degree, range(g.n))) and all(
        len(vec) == dim for vec in vecs
    )
    nonzero_ok = all(x != 0 for vec in vecs for x in vec)
    if len({len(vec) for vec in vecs}) != 1:
        return False, nonzero_ok, False, dimension_ok, None
    pattern_ok = independent_ok = True
    failed = None
    for i, j in combinations(range(g.n), 2):
        wrong = (sum(a * b for a, b in zip(vecs[i], vecs[j])) != 0) != g.has_edge(i, j)
        dependent = any(vecs[i]) and rank([vecs[i], vecs[j]]) <= 1
        pattern_ok = pattern_ok and not wrong
        independent_ok = independent_ok and not dependent
        if failed is None and (wrong or dependent):
            failed = (i, j)
    return pattern_ok, nonzero_ok, independent_ok, dimension_ok, failed


def induced_subgraph(g: Graph, vs) -> Graph:
    """Subgraph induced on vs, relabelled 0..len(vs)-1 in the order given."""
    vs = list(vs)
    if not vs or len(set(vs)) != len(vs) or not set(vs) <= set(range(g.n)):
        raise ValueError(f"not a nonempty set of vertices of g: {vs}")
    return from_edge_list(
        len(vs),
        [(i, j) for i, j in combinations(range(len(vs)), 2) if g.has_edge(vs[i], vs[j])],
    )


def mask_vertices(mask: int) -> list[int]:
    """The vertices of a bitmask in increasing order."""
    return [v for v in range(mask.bit_length()) if mask >> v & 1]


def blocks_by_neighbour_lists(g: Graph) -> list[int]:
    """graphs.blocks with each vertex's neighbours read as a list.

    The same Hopcroft-Tarjan DFS, discovery order and block order, reading
    neighbours through ``Graph.neighbors`` instead of scanning the masks.
    """
    if not is_connected(g):
        raise ValueError("block decomposition requires a connected graph")
    if g.n == 1:
        return [1]
    disc = [-1] * g.n
    low = [0] * g.n
    disc[0] = 0
    timer = 1
    unplaced = [0]
    found = []
    stack = [(0, iter(g.neighbors(0)))]
    while stack:
        v, it = stack[-1]
        for w in it:
            if disc[w] == -1:
                disc[w] = low[w] = timer
                timer += 1
                unplaced.append(w)
                stack.append((w, iter(g.neighbors(w))))
                break
            low[v] = min(low[v], disc[w])
        else:
            stack.pop()
            if not stack:
                break
            u = stack[-1][0]
            low[u] = min(low[u], low[v])
            if low[v] >= disc[u]:
                members = 1 << u
                while True:
                    w = unplaced.pop()
                    members |= 1 << w
                    if w == v:
                        break
                found.append(members)
    return found


def is_perfect_elimination_ordering(g: Graph, order) -> bool:
    """Every vertex's neighbours later in order are pairwise adjacent."""
    order = list(order)
    if sorted(order) != list(range(g.n)):
        return False
    for i, v in enumerate(order):
        later = [u for u in order[i + 1:] if g.has_edge(u, v)]
        if not all(g.has_edge(a, b) for a, b in combinations(later, 2)):
            return False
    return True


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


def first_delta_certificate(g: Graph) -> DeltaCertificate | None:
    """The first delta certificate in the order recognize_delta promises.

    Base triples come in lexicographic order of their vertex sets: 3K1 as
    (a, b, c), K2+K1 as (end, lone, end).  At each later position the
    admissible vertices are tried by smallest excluded-count, then smallest
    label.  A plain recursive scan with no memo and no pruning beyond each
    position's own bound, so it is exponential; keep it to small graphs.
    """
    n = g.n
    if n < 4 or not (is_connected(g) and is_connected(complement(g))):
        return None

    def missed(v: int, placed: list[int]) -> int:
        return sum(1 for u in placed if not g.has_edge(u, v))

    def extend(placed: list[int], counts: list[int]) -> DeltaCertificate | None:
        if len(placed) == n:
            return DeltaCertificate(tuple(placed), kind, tuple(counts))
        m = len(placed) + 1
        options = sorted(
            (missed(v, placed), v) for v in range(n) if v not in placed
        )
        for t, v in options:
            if t > m // 2 - 1:
                break
            found = extend(placed + [v], counts + [t])
            if found is not None:
                return found
        return None

    for a, b, c in combinations(range(n), 3):
        edges = [e for e in ((a, b), (a, c), (b, c)) if g.has_edge(*e)]
        if len(edges) > 1:
            continue
        if edges:
            (u, w), = edges
            lone = ({a, b, c} - {u, w}).pop()
            base, kind = [u, lone, w], "K2+K1"
        else:
            base, kind = [a, b, c], "3K1"
        found = extend(base, [])
        if found is not None:
            return found
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


def random_delta_graph(n: int, rng: random.Random) -> Graph:
    """Random delta-graph on n >= 4 vertices, drawn along its own ordering.

    The first three vertices induce 3K1 or K2+K1; vertex m (from 4) then
    misses a random set of at most floor(m/2) - 1 of its priors and is
    joined to the rest.  Labels are shuffled, and draws repeat until the
    graph and its complement are both connected.
    """
    while True:
        order = list(range(n))
        rng.shuffle(order)
        edges = [(order[0], order[1])] if rng.random() < 0.5 else []
        for m in range(4, n + 1):
            priors = order[: m - 1]
            missed = set(rng.sample(priors, rng.randint(0, m // 2 - 1)))
            edges += [(u, order[m - 1]) for u in priors if u not in missed]
        g = from_edge_list(n, edges)
        if is_connected(g) and is_connected(complement(g)):
            return g
