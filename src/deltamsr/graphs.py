"""Simple undirected graphs on vertices 0..n-1 with bitset adjacency.

Graph values are immutable and safe to share; every operation here is a
pure function returning new values.  Adjacency is one Python int bitmask
per vertex, which keeps complementation, degree counts and neighbourhood
intersections cheap at desk scale (fast below 64 vertices, correct for
any n).  graph6 is the interchange format; a plain edge-list text format
is accepted for hand input.  Both parsers refuse vertex counts above
``MAX_VERTICES`` before allocating anything of that size.  The structural
part is what the exact msr engine needs: chordality by simplicial
elimination and the blocks of a connected graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

__all__ = [
    "MAX_VERTICES",
    "check_vertex_count",
    "Graph",
    "from_edge_list",
    "parse_edge_list",
    "parse_graph6",
    "to_graph6",
    "complement",
    "is_connected",
    "induced_subgraph",
    "min_degree",
    "is_perfect_elimination_ordering",
    "chordality",
    "blocks",
]


# largest vertex count the parsers and the family builders accept
MAX_VERTICES = 2**16


def check_vertex_count(n: int) -> None:
    """Refuse a vertex count above MAX_VERTICES, before anything of that size exists."""
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
    check_vertex_count(n)
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
    check_vertex_count(n)
    payload = data[used:]
    nbits = n * (n - 1) // 2
    nchars = (nbits + 5) // 6
    if len(payload) != nchars:
        raise ValueError(
            f"graph6 payload has {len(payload)} characters, expected {nchars}"
        )
    # one character per 6 bits, so the cost is linear in the payload
    bits = "".join(f"{ord(c) - 63:06b}" for c in payload)
    if "1" in bits[nbits:]:
        raise ValueError("nonzero padding bits in graph6 payload")
    adj = [0] * n
    # bit order: column-major upper triangle, (0,1), (0,2), (1,2), (0,3), ...
    for j in range(1, n):
        start = j * (j - 1) // 2
        earlier = int(bits[start:start + j][::-1], 2)  # bit i: i ~ j, for i < j
        adj[j] |= earlier
        for i in _bits(earlier):
            adj[i] |= 1 << j
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


# --- chordality -----------------------------------------------------------


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


def chordality(g: Graph) -> tuple[int, ...] | None:
    """A perfect elimination ordering if g is chordal, else None.

    Deletes simplicial vertices, those whose remaining neighbours form a
    clique, until none is left.  A chordal graph always has one and stays
    chordal when it loses one (Fulkerson and Gross, Pacific J. Math. 15,
    1965), so the deletions empty g exactly when g is chordal, and their
    order is the elimination ordering.  A vertex can only become simplicial
    when a neighbour goes, so after one pass over all vertices only the
    neighbours of deleted vertices are looked at again.
    """
    left = todo = (1 << g.n) - 1
    order = []
    while todo:
        low = todo & -todo
        todo ^= low
        v = low.bit_length() - 1
        nbrs = g.adj[v] & left
        if all((nbrs & ~g.adj[u]) == 1 << u for u in _bits(nbrs)):
            order.append(v)
            left ^= low
            todo |= nbrs
    return None if left else tuple(order)


# --- blocks ---------------------------------------------------------------


def blocks(g: Graph) -> tuple[tuple[int, ...], ...]:
    """The blocks of a connected graph, each a sorted vertex tuple, in sorted order.

    A block is a maximal 2-connected subgraph or a bridge (a K2 block), and
    g has a cut vertex exactly when it has more than one block.  Iterative
    Hopcroft-Tarjan: when the DFS leaves v with ``low[v] >= disc[u]`` for
    its parent u, u and the vertices found since v, not yet in a block,
    form one block.
    """
    if not is_connected(g):
        raise ValueError("block decomposition requires a connected graph")
    if g.n == 1:
        return ((0,),)
    disc = [-1] * g.n
    low = [0] * g.n
    disc[0] = 0
    timer = 1
    unplaced = [0]  # discovered vertices not yet in a block, in discovery order
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
                found.append(tuple(_bits(members)))
    return tuple(sorted(found))
