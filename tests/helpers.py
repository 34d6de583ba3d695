"""Brute-force oracles and small utilities shared across the test suite.

Everything here is deliberately independent of the library's own search
and elimination code: isomorphism and clique covers run raw backtracking,
induced subgraphs test every vertex pair, perfect elimination orderings
are checked pair by pair, chordality and delta-graph recognition try
every ordering, the first certificate in the search's order comes from a
plain recursive scan with no memo, blocks come from a DFS over neighbour
lists, girth runs BFS from every root, rank is plain Fraction elimination,
representation checks take plain Fraction dots and rank, random
delta-graphs are drawn along the definition's own ordering, and the
construction kernel is replayed step by step from each vertex's full list
of priors, with its own elimination and a sampler that draws through
``randint``, along an ordering whose predicted bits are summed afresh
from lists of placed vertices.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations
from math import gcd, lcm
from pathlib import Path

from deltamsr import (
    DeltaCertificate,
    GenericSampler,
    Graph,
    complement,
    from_edge_list,
    is_connected,
    parse_graph6,
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
from deltamsr.construction import MAX_RESAMPLES, MAX_RESTARTS, WIDEN_EVERY, RetryBudgetExceeded

ATLAS_PATH = Path(__file__).parent / "data" / "atlas_n1to7.g6"


def subprocess_env(**extra):
    """The environment for running this checkout's deltamsr in a fresh process."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    return dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""), **extra)


# The sampler's contract with a @dataclass subclass, run in a fresh process,
# which prints "ok" when every assertion holds: importing the sampler and
# drawing loads no dataclasses; a @dataclass subclass declared afterwards,
# with counter fields, takes seed= and magnitude= and draws the stream of
# GenericSampler, the draws an earlier GenericSampler took before it was
# declared included; and a plain subclass that calls super().__init__(), as a
# scripted sampler does, still works.
SAMPLER_HOOK = """\
import sys
preloaded = set(sys.modules)
from deltamsr.construction import GenericSampler
early_sampler = GenericSampler(seed=5)
early = [early_sampler.nonzero() for _ in range(10)]
loaded = {"dataclasses", "inspect"} & (set(sys.modules) - preloaded)
assert not loaded, loaded

from dataclasses import dataclass, fields

@dataclass
class Counting(GenericSampler):
    draws: int = 0
    widenings: int = 0

    def nonzero(self):
        self.draws += 1
        return super().nonzero()

    def widen(self):
        self.widenings += 1
        super().widen()

assert [f.name for f in fields(Counting)] == ["seed", "magnitude", "draws", "widenings"]
counting = Counting(seed=5)
assert (counting.seed, counting.magnitude, counting.draws, counting.widenings) == (5, 8, 0, 0)
late = [early_sampler.nonzero() for _ in range(10)]
assert [counting.nonzero() for _ in range(20)] == early + late
counting.widen()
early_sampler.widen()
assert [counting.nonzero() for _ in range(50)] == [early_sampler.nonzero() for _ in range(50)]
assert (counting.draws, counting.widenings, counting.magnitude) == (70, 1, 16)
small, plain = Counting(seed=7, magnitude=3), GenericSampler(seed=7, magnitude=3)
assert [small.nonzero() for _ in range(50)] == [plain.nonzero() for _ in range(50)]
assert max(abs(small.nonzero()) for _ in range(50)) <= 3

class Scripted(GenericSampler):
    def __init__(self, values):
        super().__init__()
        self.values = iter(values)

    def nonzero(self):
        return next(self.values)

scripted = Scripted([3, -1])
assert (scripted.seed, scripted.magnitude) == (0, 8)
assert [scripted.nonzero(), scripted.nonzero()] == [3, -1]
scripted.widen()
assert scripted.magnitude == 16
print("ok")
"""

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
    return max(map(int.bit_count, g.adj))


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
    dimension_ok = dim == g.n - min(map(int.bit_count, g.adj)) and all(
        len(vec) == dim for vec in vecs
    )
    nonzero_ok = all(x != 0 for vec in vecs for x in vec)
    if len({len(vec) for vec in vecs}) != 1:
        return False, nonzero_ok, False, dimension_ok, None
    pattern_ok = independent_ok = True
    failed = None
    for i, j in combinations(range(g.n), 2):
        wrong = (sum(a * b for a, b in zip(vecs[i], vecs[j])) != 0) != g.adj[i] >> j & 1
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
        [(i, j) for i, j in combinations(range(len(vs)), 2) if g.adj[vs[i]] >> vs[j] & 1],
    )


def mask_vertices(mask: int) -> list[int]:
    """The vertices of a bitmask in increasing order."""
    return [v for v in range(mask.bit_length()) if mask >> v & 1]


def blocks_by_neighbour_lists(g: Graph) -> list[int]:
    """msr.blocks with each vertex's neighbours read as a list.

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
        later = [u for u in order[i + 1:] if g.adj[u] >> v & 1]
        if not all(g.adj[a] >> b & 1 for a, b in combinations(later, 2)):
            return False
    return True


def are_isomorphic(g: Graph, h: Graph) -> bool:
    """Backtracking isomorphism test with degree pruning (small graphs)."""
    if g.n != h.n or g.edge_count != h.edge_count:
        return False
    if sorted(map(int.bit_count, g.adj)) != sorted(map(int.bit_count, h.adj)):
        return False
    order = sorted(range(g.n), key=lambda v: -g.adj[v].bit_count())
    mapping: dict[int, int] = {}
    used = [False] * h.n

    def assign(i: int) -> bool:
        if i == g.n:
            return True
        v = order[i]
        for w in range(h.n):
            if used[w] or h.adj[w].bit_count() != g.adj[v].bit_count():
                continue
            if all(g.adj[v] >> u & 1 == h.adj[w] >> mapping[u] & 1 for u in mapping):
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
        sum(1 << u for u in range(n) if u != v and not g.adj[u] >> v & 1)
        for v in range(n)
    ]
    for perm in permutations(range(n)):
        a, b, c = perm[:3]
        base_edges = (g.adj[a] >> b & 1) + (g.adj[a] >> c & 1) + (g.adj[b] >> c & 1)
        if base_edges > 1:
            continue
        placed = (1 << a) | (1 << b) | (1 << c)
        for i in range(3, n):
            if (missed[perm[i]] & placed).bit_count() > (i + 1) // 2 - 1:
                break
            placed |= 1 << perm[i]
        else:
            kind = "3K1" if base_edges == 0 else "K2+K1"
            return DeltaCertificate(perm, kind)
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
        return sum(1 for u in placed if not g.adj[u] >> v & 1)

    def extend(placed: list[int]) -> DeltaCertificate | None:
        if len(placed) == n:
            return DeltaCertificate(tuple(placed), kind)
        m = len(placed) + 1
        options = sorted(
            (missed(v, placed), v) for v in range(n) if v not in placed
        )
        for t, v in options:
            if t > m // 2 - 1:
                break
            found = extend(placed + [v])
            if found is not None:
                return found
        return None

    for a, b, c in combinations(range(n), 3):
        edges = [e for e in ((a, b), (a, c), (b, c)) if g.adj[e[0]] >> e[1] & 1]
        if len(edges) > 1:
            continue
        if edges:
            (u, w), = edges
            lone = ({a, b, c} - {u, w}).pop()
            base, kind = [u, lone, w], "K2+K1"
        else:
            base, kind = [a, b, c], "3K1"
        found = extend(base)
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


def certify_verify_families() -> list[Graph]:
    """The 43 C-delta family graphs of the benchmark's certify-verify corpus.

    C_n for n = 6..24, ML_k for even k = 10..24, the C-delta K_a x P_b with
    n = ab <= 18 except K6 x P3, the Robertson cage, S2 o P2 and S3 o P1.
    """
    out = [cycle(n) for n in range(6, 25)]
    out += [mobius_ladder(k) for k in range(10, 25, 2)]
    for a, bs in ((2, range(4, 10)), (3, range(3, 7)), (4, range(3, 5)), (5, range(3, 4))):
        out += [cartesian_product(complete(a), path(b)) for b in bs]
    out.append(robertson_cage())
    out += [corona(star(2), path(2)), corona(star(3), path(1))]
    return out


# --- the construction kernel, replayed from each vertex's full prior list ---


@dataclass
class RandintSampler(GenericSampler):
    """GenericSampler's stream drawn through randint, counting draws and widenings."""

    draws: int = 0
    widenings: int = 0

    def nonzero(self) -> int:
        self.draws += 1
        value = self._rng.randint(1, self.magnitude)
        if self._rng.random() < 0.5:
            value = -value
        return value

    def widen(self) -> None:
        self.widenings += 1
        super().widen()


def _primitive(ints) -> tuple[int, ...]:
    g = gcd(*ints)
    return tuple(x // g for x in ints) if g > 1 else tuple(ints)


def nullspace_basis_by_elimination(rows, ncols: int) -> list[tuple[int, ...]]:
    """The primitive reduced-echelon nullspace basis, eliminating even when rows is empty.

    One vector per free column, positive in that column, in column order.
    """
    mat = [list(row) for row in rows]
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == len(mat):
            break
        p = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if p is None:
            continue
        mat[r], mat[p] = mat[p], mat[r]
        prow = mat[r]
        pv = prow[c]
        for i, row in enumerate(mat):
            f = row[c]
            if i != r and f:
                mat[i] = list(_primitive([pv * x - f * y for x, y in zip(row, prow)]))
        pivots.append(c)
        r += 1
    scale = lcm(*(mat[i][pc] for i, pc in enumerate(pivots)))
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        vec = [0] * ncols
        vec[fc] = scale
        for i, pc in enumerate(pivots):
            vec[pc] = -mat[i][fc] * (scale // mat[i][pc])
        basis.append(_primitive(vec))
    return basis


def solve_from_priors(priors, d: int, sampler) -> tuple[int, ...]:
    """One construction step from (vector, adjacent) pairs over every prior.

    Draws a random combination of the nullspace basis of the non-adjacent
    priors, redrawing up to MAX_RESAMPLES times (widening every WIDEN_EVERY
    draws; once only for a one-vector basis) until every coordinate is
    nonzero and every adjacent prior has a nonzero inner product with it and
    is not +-it, each prior's norm taken afresh.
    """
    zero_rows = [vec for vec, adjacent in priors if not adjacent]
    basis = nullspace_basis_by_elimination(zero_rows, d)
    draws = 1 if len(basis) == 1 else MAX_RESAMPLES
    for attempt in range(draws):
        if attempt and attempt % WIDEN_EVERY == 0:
            sampler.widen()
        coeffs = [sampler.nonzero() for _ in basis]
        x = [sum(c * vec[k] for c, vec in zip(coeffs, basis)) for k in range(d)]
        if not all(x):
            continue
        x = _primitive(x)
        xx = sum(a * a for a in x)
        for u, adjacent in priors:
            if adjacent:
                xu = sum(a * b for a, b in zip(x, u))
                if xu == 0 or (sum(a * a for a in u) == xx and abs(xu) == xx):
                    break
        else:
            return x
    raise RetryBudgetExceeded(f"step out of {draws} draws")


def predicted_bits(g: Graph, order) -> list[int]:
    """p(v) = 4 + the sum of p(u) over the non-neighbours u before v, by position in order."""
    p: list[int] = []
    for i, v in enumerate(order):
        p.append(4 + sum(pu for u, pu in zip(order[:i], p) if not g.adj[u] >> v & 1))
    return p


def greedy_ordering(g: Graph) -> list[int]:
    """Place next the unplaced vertex of least p, then most non-neighbours, then lowest label.

    Each candidate's p is summed afresh from the list of placed vertices.
    """
    order: list[int] = []
    p: list[int] = []
    rest = list(range(g.n))
    while rest:
        scores = []
        for v in rest:
            pv = 4 + sum(pu for u, pu in zip(order, p) if not g.adj[u] >> v & 1)
            non_neighbours = sum(1 for u in range(g.n) if u != v and not g.adj[u] >> v & 1)
            scores.append((pv, -non_neighbours, v))
        pv, _, v = min(scores)
        order.append(v)
        p.append(pv)
        rest.remove(v)
    return order


def first_ordering(g: Graph, cert: DeltaCertificate) -> tuple[int, ...]:
    """The greedy ordering when its largest p is below the certificate ordering's, else that."""
    greedy = greedy_ordering(g)
    if max(predicted_bits(g, greedy)) < max(predicted_bits(g, cert.ordering)):
        return tuple(greedy)
    return cert.ordering


def construct_from_priors(
    g: Graph, cert: DeltaCertificate, sampler, first=None
) -> tuple[tuple[tuple[int, ...], ...], int]:
    """construct's vectors for a valid certificate, and how often it restarted.

    The first walk places each vertex of first (certificate order when
    None) by solve_from_priors over the list of all the vertices before it;
    a step out of draws widens the window and walks the certificate order,
    up to MAX_RESTARTS times.
    """
    d = g.n - min(a.bit_count() for a in g.adj)
    order = cert.ordering if first is None else first
    for restart in range(MAX_RESTARTS + 1):
        if restart:
            sampler.widen()
            order = cert.ordering
        try:
            return vectors_from_priors(g, order, d, sampler), restart
        except RetryBudgetExceeded:
            continue
    raise RetryBudgetExceeded("out of restarts")


def vectors_from_priors(g: Graph, order, d: int, sampler) -> tuple[tuple[int, ...], ...]:
    """One solve_from_priors step per vertex of order, in dimension d.

    Any d above the largest excluded-count of a certificate ordering works,
    so this also builds representations in a dimension other than
    |G| - min_degree(G).
    """
    vectors = [()] * g.n
    for i, v in enumerate(order):
        priors = [(vectors[u], g.adj[u] >> v & 1) for u in order[:i]]
        vectors[v] = solve_from_priors(priors, d, sampler)
    return tuple(vectors)
