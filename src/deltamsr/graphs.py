"""Simple undirected graphs on vertices 0..n-1 with bitset adjacency.

Graph values are immutable and safe to share; every operation here is a
pure function returning new values.  Adjacency is one Python int bitmask
per vertex, which keeps complementation, degree counts and neighbourhood
intersections cheap at desk scale (fast below 64 vertices, correct for
any n).  graph6 is the interchange format; a plain edge-list text format
is accepted for hand input.  Both parsers refuse vertex counts above
``MAX_VERTICES`` before allocating anything of that size; the family
builders also hold their edge count to ``MAX_EDGES``.  The structural
part is what the exact msr engine needs: the blocks of a connected graph,
each as the bitmask of its vertices, on which the engine counts clique
covers without building a subgraph.
"""

from __future__ import annotations

from typing import NamedTuple

__all__ = [
    "MAX_VERTICES",
    "MAX_EDGES",
    "check_vertex_count",
    "check_edge_count",
    "Graph",
    "from_edge_list",
    "parse_edge_list",
    "parse_graph6",
    "to_graph6",
    "complement",
    "is_connected",
    "min_degree",
    "blocks",
]


# largest vertex count the parsers and the family builders accept
MAX_VERTICES = 2**16


def check_vertex_count(n: int) -> None:
    """Refuse a vertex count above MAX_VERTICES, before anything of that size exists."""
    if n > MAX_VERTICES:
        raise ValueError(f"vertex count {n} exceeds the input cap of {MAX_VERTICES}")


# largest edge count the family builders produce; K_1449 is the first
# complete graph above it
MAX_EDGES = 2**20


def check_edge_count(m: int) -> None:
    """Refuse an edge count above MAX_EDGES, before any edge list is built."""
    if m > MAX_EDGES:
        raise ValueError(f"edge count {m} exceeds the cap of {MAX_EDGES}")


def _bits(mask: int):
    """Yield set bit positions of mask in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class _GraphFields(NamedTuple):
    n: int
    adj: tuple[int, ...]


class Graph(_GraphFields):
    """Simple graph; ``adj[v]`` is the neighbour bitmask of vertex v."""

    __slots__ = ()

    def __new__(cls, n: int, adj: tuple[int, ...]) -> Graph:
        if n < 1:
            raise ValueError("graph needs at least one vertex")
        if len(adj) != n:
            raise ValueError("adjacency length does not match vertex count")
        full = (1 << n) - 1
        for v, mask in enumerate(adj):
            if mask & ~full:
                raise ValueError(f"adjacency of vertex {v} has out-of-range bits")
            if mask >> v & 1:
                raise ValueError(f"loop at vertex {v}")
            for u in _bits(mask):
                if not adj[u] >> v & 1:
                    raise ValueError(f"asymmetric adjacency between {u} and {v}")
        return super().__new__(cls, n, adj)

    @classmethod
    def _make(cls, iterable) -> Graph:
        """Graph from an (n, adj) iterable, through the checks of Graph(n, adj).

        The NamedTuple's own _make, which _replace calls too, skips them.
        """
        return cls(*iterable)

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
# each graph6 payload character and the 6 bits it stands for, most significant first
_G6_BITS = {c: f"{c - 63:06b}" for c in range(63, 127)}
_G6_CHARS = {bits: chr(c) for c, bits in _G6_BITS.items()}


def _g6_encode_n(n: int) -> str:
    if n <= 62:
        return chr(n + 63)
    if n <= 258047:
        return "~" + "".join(chr((n >> s & 63) + 63) for s in (12, 6, 0))
    raise ValueError("graph too large for graph6")


def _g6_decode_n(data: str) -> tuple[int, int]:
    """Return (n, number of characters consumed).

    The 8-character size field of graph6, for n above 258,047, is not read:
    its "~~" prefix decodes as a 4-character field above the input cap.
    """
    if data[0] != "~":
        return ord(data[0]) - 63, 1
    if len(data) < 4:
        raise ValueError("truncated graph6 size field")
    return (ord(data[1]) - 63) << 12 | (ord(data[2]) - 63) << 6 | ord(data[3]) - 63, 4


def parse_graph6(text: str) -> Graph:
    """Decode a graph6 line (bit-exact, padding must be zero)."""
    data = text.strip()
    if data.startswith(_G6_HEADER):
        data = data[len(_G6_HEADER):]
    if not data:
        raise ValueError("empty graph6 string")
    if not ("?" <= min(data) and max(data) <= "~"):
        bad = next(c for c in data if not "?" <= c <= "~")
        raise ValueError(f"invalid graph6 character {bad!r}")
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
    bits = payload.translate(_G6_BITS)
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
    # column j holds the bits (0, j), (1, j), ..., (j - 1, j): the low j bits
    # of adj[j], lowest first
    bits = "".join(f"{g.adj[j] & ((1 << j) - 1):0{j}b}"[::-1] for j in range(1, g.n))
    bits += "0" * (-len(bits) % 6)
    return _g6_encode_n(g.n) + "".join(
        _G6_CHARS[bits[k:k + 6]] for k in range(0, len(bits), 6)
    )


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


def min_degree(g: Graph) -> int:
    return min(g.degree(v) for v in range(g.n))


# --- blocks ---------------------------------------------------------------


def blocks(g: Graph) -> list[int]:
    """The blocks of a connected graph, each the bitmask of its vertices.

    A block is a maximal 2-connected subgraph or a bridge (a K2 block), and
    g has a cut vertex exactly when it has more than one block.  Iterative
    Hopcroft-Tarjan: when the DFS leaves v with ``low[v] >= disc[u]`` for
    its parent u, u and the vertices found since v, not yet in a block,
    form one block.
    """
    if not is_connected(g):
        raise ValueError("block decomposition requires a connected graph")
    if g.n == 1:
        return [1]
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
                found.append(members)
    return found
