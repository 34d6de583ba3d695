"""Simple undirected graphs on vertices 0..n-1 with bitset adjacency.

Graph values are immutable and safe to share; every operation here is a
pure function returning new values.  Adjacency is one Python int bitmask
per vertex, which keeps complementation, degree counts and neighbourhood
intersections cheap at desk scale (fast below 64 vertices, correct for
any n).  graph6 is the interchange format; a plain edge-list text format
is accepted for hand input.  Both parsers refuse vertex counts above
``MAX_VERTICES`` before allocating anything of that size.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

__all__ = [
    "MAX_VERTICES",
    "Graph",
    "EliminationOrdering",
    "BlockDecomposition",
    "from_edge_list",
    "parse_edge_list",
    "parse_graph6",
    "to_graph6",
    "complement",
    "is_connected",
    "induced_subgraph",
    "min_degree",
    "find_pendant",
    "lex_bfs",
    "is_perfect_elimination_ordering",
    "chordality",
    "blocks",
]


# largest vertex count either parser accepts
MAX_VERTICES = 2**16


def _check_vertex_count(n: int) -> None:
    if n > MAX_VERTICES:
        raise ValueError(f"vertex count {n} exceeds the input cap of {MAX_VERTICES}")


def _bits(mask: int):
    """Yield set bit positions of mask in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class Graph:
    """Simple graph; ``adj[v]`` is the neighbour bitmask of vertex v."""

    n: int
    adj: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("graph needs at least one vertex")
        if len(self.adj) != self.n:
            raise ValueError("adjacency length does not match vertex count")
        full = (1 << self.n) - 1
        for v, mask in enumerate(self.adj):
            if mask & ~full:
                raise ValueError(f"adjacency of vertex {v} has out-of-range bits")
            if mask >> v & 1:
                raise ValueError(f"loop at vertex {v}")
            for u in _bits(mask):
                if not self.adj[u] >> v & 1:
                    raise ValueError(f"asymmetric adjacency between {u} and {v}")

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def neighbors(self, v: int) -> list[int]:
        return list(_bits(self.adj[v]))

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in _bits(self.adj[u]) if u < v]

    @property
    def edge_count(self) -> int:
        return sum(self.degree(v) for v in range(self.n)) // 2


def from_edge_list(n: int, edges) -> Graph:
    """Build a graph from (u, v) pairs; duplicates collapse, loops are errors."""
    adj = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) out of range for n={n}")
        if u == v:
            raise ValueError(f"loop edge at vertex {u}")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(n, tuple(adj))


def parse_edge_list(text: str) -> Graph:
    """Parse the plain text format: first line n, then one 'u v' pair per line."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines:
        raise ValueError("empty edge-list input")
    try:
        n = int(lines[0])
    except ValueError:
        raise ValueError(f"bad vertex count line: {lines[0]!r}") from None
    _check_vertex_count(n)
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"bad edge line: {ln!r}")
        edges.append((int(parts[0]), int(parts[1])))
    return from_edge_list(n, edges)


# --- graph6 ---------------------------------------------------------------

_G6_HEADER = ">>graph6<<"


def _g6_encode_n(n: int) -> str:
    if n <= 62:
        return chr(n + 63)
    if n <= 258047:
        return "~" + "".join(chr((n >> s & 63) + 63) for s in (12, 6, 0))
    if n <= 68719476735:
        return "~~" + "".join(chr((n >> s & 63) + 63) for s in (30, 24, 18, 12, 6, 0))
    raise ValueError("graph too large for graph6")


def _g6_decode_n(data: str) -> tuple[int, int]:
    """Return (n, number of characters consumed)."""
    if not data:
        raise ValueError("empty graph6 string")
    if data[0] != "~":
        return ord(data[0]) - 63, 1
    if len(data) >= 2 and data[1] != "~":
        if len(data) < 4:
            raise ValueError("truncated graph6 size field")
        vals = [ord(c) - 63 for c in data[1:4]]
        return (vals[0] << 12) | (vals[1] << 6) | vals[2], 4
    if len(data) < 8:
        raise ValueError("truncated graph6 size field")
    vals = [ord(c) - 63 for c in data[2:8]]
    n = 0
    for v in vals:
        n = n << 6 | v
    return n, 8


def parse_graph6(text: str) -> Graph:
    """Decode a graph6 line (bit-exact, padding must be zero)."""
    data = text.strip()
    if data.startswith(_G6_HEADER):
        data = data[len(_G6_HEADER):]
    if not data:
        raise ValueError("empty graph6 string")
    for c in data:
        if not 63 <= ord(c) <= 126:
            raise ValueError(f"invalid graph6 character {c!r}")
    n, used = _g6_decode_n(data)
    if n < 1:
        raise ValueError("graph6 value encodes an empty vertex set")
    _check_vertex_count(n)
    payload = data[used:]
    nbits = n * (n - 1) // 2
    nchars = (nbits + 5) // 6
    if len(payload) != nchars:
        raise ValueError(
            f"graph6 payload has {len(payload)} characters, expected {nchars}"
        )
    bits = 0
    for c in payload:
        bits = bits << 6 | (ord(c) - 63)
    pad = nchars * 6 - nbits
    if pad and bits & ((1 << pad) - 1):
        raise ValueError("nonzero padding bits in graph6 payload")
    bits >>= pad
    adj = [0] * n
    # bit order: column-major upper triangle, (0,1), (0,2), (1,2), (0,3), ...
    pos = nbits - 1
    for j in range(1, n):
        for i in range(j):
            if bits >> pos & 1:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
            pos -= 1
    return Graph(n, tuple(adj))


def to_graph6(g: Graph) -> str:
    """Encode in canonical graph6 (no optional header)."""
    out = [_g6_encode_n(g.n)]
    bits = 0
    nbits = 0
    for j in range(1, g.n):
        for i in range(j):
            bits = bits << 1 | (g.adj[i] >> j & 1)
            nbits += 1
            if nbits == 6:
                out.append(chr(bits + 63))
                bits = nbits = 0
    if nbits:
        out.append(chr((bits << (6 - nbits)) + 63))
    return "".join(out)


# --- structural predicates ------------------------------------------------


def complement(g: Graph) -> Graph:
    full = (1 << g.n) - 1
    return Graph(g.n, tuple(~g.adj[v] & full & ~(1 << v) for v in range(g.n)))


def is_connected(g: Graph) -> bool:
    seen = 1
    frontier = 1
    while frontier:
        reach = 0
        for v in _bits(frontier):
            reach |= g.adj[v]
        frontier = reach & ~seen
        seen |= frontier
    return seen == (1 << g.n) - 1


def induced_subgraph(g: Graph, vs) -> Graph:
    """Subgraph induced on vs, relabeled 0..len(vs)-1 in the order given."""
    vs = list(vs)
    if not vs:
        raise ValueError("induced subgraph needs at least one vertex")
    if len(set(vs)) != len(vs):
        raise ValueError("duplicate vertices in induced subgraph")
    for v in vs:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range")
    edges = [
        (i, j)
        for i, j in combinations(range(len(vs)), 2)
        if g.has_edge(vs[i], vs[j])
    ]
    return from_edge_list(len(vs), edges)


def min_degree(g: Graph) -> int:
    return min(g.degree(v) for v in range(g.n))


def find_pendant(g: Graph) -> int | None:
    """Lowest-indexed degree-1 vertex, or None."""
    for v in range(g.n):
        if g.degree(v) == 1:
            return v
    return None


# --- chordality -----------------------------------------------------------


@dataclass(frozen=True)
class EliminationOrdering:
    """A vertex order in which each vertex's later neighbours form a clique."""

    order: tuple[int, ...]


def lex_bfs(g: Graph) -> list[int]:
    """Lexicographic BFS visit order (ties broken by lowest vertex id)."""
    n = g.n
    labels: list[list[int]] = [[] for _ in range(n)]
    visited = [False] * n
    order = []
    for step in range(n):
        best = max(
            (v for v in range(n) if not visited[v]),
            key=lambda v: (labels[v], -v),
        )
        visited[best] = True
        order.append(best)
        for w in _bits(g.adj[best]):
            if not visited[w]:
                labels[w].append(n - step)
    return order


def is_perfect_elimination_ordering(g: Graph, order) -> bool:
    order = list(order)
    if sorted(order) != list(range(g.n)):
        return False
    pos = {w: i for i, w in enumerate(order)}
    later = 0
    later_masks = [0] * g.n
    for v in reversed(order):
        later_masks[v] = g.adj[v] & later
        later |= 1 << v
    for v in order:
        mask = later_masks[v]
        if not mask:
            continue
        # it suffices to check the earliest later neighbour against the rest
        u = min(_bits(mask), key=lambda w: pos[w])
        rest = mask & ~(1 << u)
        if rest & ~g.adj[u]:
            return False
    return True


def chordality(g: Graph) -> EliminationOrdering | None:
    """A perfect elimination ordering if g is chordal, else None (Lex-BFS)."""
    order = list(reversed(lex_bfs(g)))
    peo = EliminationOrdering(tuple(order))
    return peo if is_perfect_elimination_ordering(g, order) else None


# --- blocks / cut vertices ------------------------------------------------


@dataclass(frozen=True)
class BlockDecomposition:
    """Maximal 2-connected blocks (bridges appear as K2 blocks) plus cut vertices."""

    blocks: tuple[tuple[int, ...], ...]
    cut_vertices: frozenset[int]


def blocks(g: Graph) -> BlockDecomposition:
    """Hopcroft-Tarjan block/cut-vertex decomposition of a connected graph."""
    if not is_connected(g):
        raise ValueError("block decomposition requires a connected graph")
    n = g.n
    if n == 1:
        return BlockDecomposition(((0,),), frozenset())
    disc = [-1] * n
    low = [0] * n
    parent = [-1] * n
    edge_stack: list[tuple[int, int]] = []
    found: list[tuple[int, ...]] = []
    cuts: set[int] = set()
    timer = 0
    root = 0
    root_children = 0

    disc[root] = low[root] = timer
    timer += 1
    stack = [(root, iter(g.neighbors(root)))]
    while stack:
        v, it = stack[-1]
        advanced = False
        for w in it:
            if disc[w] == -1:
                parent[w] = v
                edge_stack.append((v, w))
                disc[w] = low[w] = timer
                timer += 1
                if v == root:
                    root_children += 1
                stack.append((w, iter(g.neighbors(w))))
                advanced = True
                break
            if w != parent[v] and disc[w] < disc[v]:
                edge_stack.append((v, w))
                low[v] = min(low[v], disc[w])
        if advanced:
            continue
        stack.pop()
        if not stack:
            break
        u = stack[-1][0]
        low[u] = min(low[u], low[v])
        if low[v] >= disc[u]:
            # edges back to (u, v) form one block
            members: set[int] = set()
            while True:
                a, b = edge_stack.pop()
                members.add(a)
                members.add(b)
                if (a, b) == (u, v):
                    break
            found.append(tuple(sorted(members)))
            if u != root or root_children > 1:
                cuts.add(u)
    found.sort()
    return BlockDecomposition(tuple(found), frozenset(cuts))
