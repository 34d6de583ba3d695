"""Exact minimum semidefinite rank for special families, and conjecture verdicts.

The msr of a connected graph is the sum of the msr of its blocks (van der
Holst, LAA 375, 2003).  ``blocks`` finds them, each as the bitmask of its
vertices, and the engine counts clique covers on that mask without
building a subgraph.  The engine knows three kinds of block: K1 or K2
(msr |B| - 1), a cycle (|B| - 2) and a chordal block (its clique cover
number).  A graph with any other block gets no exact value.  One
simplicial elimination on a block's mask both tests chordality and counts
the clique cover.
``check_delta_conjecture`` produces the per-graph verdict; it imports
``deltamsr.construction``, the sampler's home, and with it ``orthorep``,
only for a delta-graph, so a run that meets none starts without them.
"""

from typing import NamedTuple

from .graphs import Graph, _bits, is_connected, min_degree
from .recognition import recognize_delta

__all__ = [
    "ConjectureReport",
    "blocks",
    "msr_exact",
    "clique_cover_number",
    "check_delta_conjecture",
]


class ConjectureReport(NamedTuple):
    """Delta Conjecture verdict for one graph."""

    graph_id: str
    n: int
    delta_bound: int
    certified_hi: int
    verdict: str  # holds-by-construction | holds | refuted | unresolved

    def to_json_dict(self) -> dict:
        return {
            "graph": self.graph_id,
            "n": self.n,
            "delta_bound": self.delta_bound,
            "certified_hi": self.certified_hi,
            "verdict": self.verdict,
        }


def blocks(g: Graph) -> list[int]:
    """The blocks of a connected graph, each the bitmask of its vertices.

    A block is a maximal 2-connected subgraph or a bridge (a K2 block), and
    g has a cut vertex exactly when it has more than one block.  Iterative
    Hopcroft-Tarjan: when the DFS leaves v with ``low[v] >= disc[u]`` for
    its parent u, u and the vertices found since v, not yet in a block,
    form one block.  Each vertex's neighbours are scanned lowest first,
    straight off its adjacency mask.
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
    unscanned = list(g.adj)  # per vertex on the stack, the neighbours it has yet to look at
    stack = [0]
    while stack:
        v = stack[-1]
        rest = unscanned[v]
        while rest:
            bit = rest & -rest
            rest ^= bit
            w = bit.bit_length() - 1
            if disc[w] == -1:
                unscanned[v] = rest
                disc[w] = low[w] = timer
                timer += 1
                unplaced.append(w)
                stack.append(w)
                break
            if disc[w] < low[v]:
                low[v] = disc[w]
        else:
            stack.pop()
            if not stack:
                break
            u = stack[-1]
            if low[v] < low[u]:
                low[u] = low[v]
            if low[v] >= disc[u]:
                members = 1 << u
                while True:
                    w = unplaced.pop()
                    members |= 1 << w
                    if w == v:
                        break
                found.append(members)
    return found


def clique_cover_number(g: Graph, within: int) -> int | None:
    """Fewest cliques covering the edges of g[within] if it is chordal, else None.

    Deletes simplicial vertices of g[within], those whose remaining
    neighbours form a clique, until none is left.  A chordal graph always
    has one and stays chordal when it loses one (Fulkerson and Gross,
    Pacific J. Math. 15, 1965), so the deletions empty g[within] exactly
    when it is chordal.  A vertex can only become simplicial when a
    neighbour goes, so after one pass only the neighbours of deleted
    vertices are looked at again.

    The deletions come in perfect elimination order, and the cover is
    counted along them: a deleted vertex and its remaining neighbours are
    one clique of the cover whenever some edge at the vertex is still
    uncovered.  Any clique of an optimal cover containing that edge lies
    inside the same closed neighbourhood, which makes the greedy choice
    exchange-safe.
    """
    adj = g.adj
    left = todo = within
    covered = {}  # vertex -> bitmask of the vertices it shares a counted clique with
    count = 0
    while todo:
        low = todo & -todo
        todo ^= low
        v = low.bit_length() - 1
        nbrs = adj[v] & left
        # simplicial: each remaining neighbour u is adjacent to all the others
        rest = nbrs
        while rest:
            bit = rest & -rest
            if (nbrs & ~adj[bit.bit_length() - 1]) != bit:
                break
            rest ^= bit
        if not rest:
            left ^= low
            todo |= nbrs
            if nbrs & ~covered.get(v, 0):
                count += 1
                for u in _bits(nbrs):
                    covered[u] = covered.get(u, 0) | nbrs
    return None if left else count


def msr_exact(g: Graph) -> int | None:
    """Exact msr of a connected graph as the sum over its blocks, or None.

    None means that some block is not K1, K2, a cycle or chordal.
    """
    adj = g.adj
    total = 0
    for block in blocks(g):
        size = block.bit_count()
        if size <= 2:
            total += size - 1
            continue
        # a 2-connected graph with as many edges as vertices is a cycle; the
        # degree sum inside the block counts each edge twice
        degrees = 0
        rest = block
        while rest:
            low = rest & -rest
            degrees += (adj[low.bit_length() - 1] & block).bit_count()
            rest ^= low
        if degrees == 2 * size:
            total += size - 2
            continue
        cover = clique_cover_number(g, block)
        if cover is None:
            return None
        total += cover
    return total


def check_delta_conjecture(g: Graph, seed: int, graph_id: str) -> ConjectureReport:
    """Delta Conjecture verdict: construct a certificate, or fall back to msr.

    holds-by-construction: a delta-graph certificate plus a verified
    representation pins msr <= |G| - min_degree.  holds: the exact engine
    value already satisfies the bound.  refuted: the exact engine value
    exceeds the bound, a counterexample to the conjecture, with that value
    as ``certified_hi``.  unresolved: neither route applies.  A disconnected
    g is no delta-graph, and ``msr_exact`` raises ValueError on it.
    """
    n = g.n
    delta_bound = n - min_degree(g)
    cert = recognize_delta(g)
    if cert is not None:
        # imported where it is used: a batch with no delta-graph line
        # starts without the construction layers
        from .construction import construct_verified

        _, report = construct_verified(g, cert, seed)
        return ConjectureReport(graph_id, n, delta_bound, report.bound, "holds-by-construction")
    value = msr_exact(g)
    if value is None:
        return ConjectureReport(graph_id, n, delta_bound, n - 1, "unresolved")
    verdict = "holds" if value <= delta_bound else "refuted"
    return ConjectureReport(graph_id, n, delta_bound, value, verdict)
