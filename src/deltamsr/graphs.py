"""Simple undirected graphs on vertices 0..n-1 with bitset adjacency.

Graph values are immutable and safe to share; every operation here is a
pure function returning new values.  Adjacency is one Python int bitmask
per vertex, which keeps complementation, degree counts and neighbourhood
intersections cheap at desk scale (fast below 64 vertices, correct for
any n).  graph6 is the interchange format; a plain edge-list text format
is accepted for hand input.  Both parsers refuse vertex counts above
``MAX_VERTICES`` before allocating anything of that size.

``Graph(n, adj)``, and ``_make`` and ``_replace`` through it, checks the
adjacency a caller supplies: at least one vertex, one mask per vertex, no
bit at or above n, no loop and no asymmetric pair.  ``parse_graph6``,
``from_edge_list`` and ``complement`` build through ``_built_graph``,
which skips those checks, because their masks meet them by construction:
graph6 sets bits in pairs (i, j) with i < j < n, ``from_edge_list`` sets
both bits of each edge after checking that its ends are distinct and
below n, and a complement mask is ``~adj & full & ~(1 << v)`` of a graph
that passed them.  The graph6 parser still refuses every malformed line
before any mask is built, and ``from_edge_list`` still refuses n < 1.
"""

import binascii
from typing import NamedTuple

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
    "min_degree",
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


class _GraphFields(NamedTuple):
    n: int
    adj: tuple[int, ...]


class Graph(_GraphFields):
    """Simple graph; ``adj[v]`` is the neighbour bitmask of vertex v."""

    __slots__ = ()

    def __new__(cls, n: int, adj: tuple[int, ...]) -> "Graph":
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
    def _make(cls, iterable) -> "Graph":
        """Graph from an (n, adj) iterable, through the checks of Graph(n, adj).

        The NamedTuple's own _make, which _replace calls too, skips them.
        """
        return cls(*iterable)

    def neighbors(self, v: int) -> list[int]:
        return list(_bits(self.adj[v]))

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in _bits(self.adj[u]) if u < v]

    @property
    def edge_count(self) -> int:
        return sum(map(int.bit_count, self.adj)) // 2


def _built_graph(n: int, adj: tuple[int, ...]) -> Graph:
    """Graph from masks that this module built valid, without Graph's checks."""
    return tuple.__new__(Graph, (n, adj))


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
    if n < 1:
        raise ValueError("graph needs at least one vertex")
    return _built_graph(n, tuple(adj))


def _plain_int(token: str) -> int:
    """int(token) if token is [+-]?[0-9]+, else ValueError.

    int() alone would also read '_' separators and non-ASCII digits.
    """
    digits = token[1:] if token[:1] in ("+", "-") else token
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(token)
    return int(token)


def parse_edge_list(text: str) -> Graph:
    """Parse the plain text format: first line n, then one 'u v' pair per line.

    Every number is a plain ASCII integer, [+-]?[0-9]+; the error names the
    first line that is not one n or two ends.  Lines end only at LF, CRLF
    or CR, and fields are split only at spaces and tabs, where splitlines()
    and split() would also break at Unicode separators such as NEL or the
    ideographic space.
    """
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = [ln.strip(" \t") for ln in text.split("\n")]
    lines = [ln for ln in lines if ln]
    if not lines:
        raise ValueError("empty edge-list input")
    try:
        n = _plain_int(lines[0])
    except ValueError:
        raise ValueError(f"bad vertex count line: {lines[0]!r}") from None
    check_vertex_count(n)
    edges = []
    for ln in lines[1:]:
        try:
            u, v = (_plain_int(f) for f in ln.replace("\t", " ").split(" ") if f)
        except ValueError:
            raise ValueError(f"bad edge line: {ln!r}") from None
        edges.append((u, v))
    return from_edge_list(n, edges)


# --- graph6 ---------------------------------------------------------------

_G6_HEADER = ">>graph6<<"
# each graph6 payload character and the 6 bits it stands for, most significant first
_G6_BITS = {c: f"{c - 63:06b}" for c in range(63, 127)}
# base64 also writes 6 bits per character, most significant first: digit k -> chr(63 + k)
_B64_DIGITS = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_B64_TO_G6 = bytes.maketrans(_B64_DIGITS, bytes(range(63, 127)))


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
        bit = 1 << j
        while earlier:
            low = earlier & -earlier
            adj[low.bit_length() - 1] |= bit
            earlier ^= low
    return _built_graph(n, tuple(adj))


def to_graph6(g: Graph) -> str:
    """Encode in canonical graph6 (no optional header)."""
    # column j holds the bits (0, j), (1, j), ..., (j - 1, j): the low j bits
    # of adj[j], lowest first
    bits = "".join(f"{g.adj[j] & ((1 << j) - 1):0{j}b}"[::-1] for j in range(1, g.n))
    nchars = -(-len(bits) // 6)
    bits += "0" * (-len(bits) % 24)  # whole 3-byte groups, so base64 writes no "="
    data = int(bits or "0", 2).to_bytes(len(bits) // 8, "big")
    payload = binascii.b2a_base64(data, newline=False).translate(_B64_TO_G6)
    return _g6_encode_n(g.n) + payload[:nchars].decode("ascii")


# --- structural predicates ------------------------------------------------


def complement(g: Graph) -> Graph:
    full = (1 << g.n) - 1
    return _built_graph(g.n, tuple(~g.adj[v] & full & ~(1 << v) for v in range(g.n)))


def is_connected(g: Graph) -> bool:
    adj = g.adj
    seen = frontier = 1
    while frontier:
        reach = 0
        while frontier:
            low = frontier & -frontier
            reach |= adj[low.bit_length() - 1]
            frontier ^= low
        frontier = reach & ~seen
        seen |= frontier
    return seen == (1 << g.n) - 1


def min_degree(g: Graph) -> int:
    return min(map(int.bit_count, g.adj))
