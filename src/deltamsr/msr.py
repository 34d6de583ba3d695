"""Exact minimum semidefinite rank for special families, and conjecture verdicts.

The msr of a connected graph is the sum of the msr of its blocks (van der
Holst, LAA 375, 2003).  The engine knows three kinds of block: K1 or K2
(msr |B| - 1), a cycle (|B| - 2) and a chordal block (its clique cover
number).  A graph with any other block gets no exact value.
``check_delta_conjecture`` produces the per-graph verdict.
"""

from __future__ import annotations

from typing import NamedTuple

from .graphs import (
    Graph,
    blocks,
    chordality,
    induced_subgraph,
    is_connected,
    is_perfect_elimination_ordering,
    min_degree,
    to_graph6,
)
from .orthorep import construct_verified
from .recognition import recognize_delta

__all__ = [
    "ConjectureReport",
    "msr_exact",
    "clique_cover_number_chordal",
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


def clique_cover_number_chordal(g: Graph, peo: tuple[int, ...]) -> int:
    """Minimum number of cliques covering all edges of a chordal graph.

    Greedy along the perfect elimination ordering: take the closed later
    neighbourhood of v whenever some edge at v is still uncovered.  Any
    clique of an optimal cover containing that edge lies inside the same
    closed neighbourhood, which makes the greedy choice exchange-safe.
    """
    order = list(peo)
    if not is_perfect_elimination_ordering(g, order):
        raise ValueError("ordering is not a perfect elimination ordering for g")
    later = 0
    later_masks = [0] * g.n
    for v in reversed(order):
        later_masks[v] = g.adj[v] & later
        later |= 1 << v
    covered_adj = [0] * g.n
    count = 0
    for v in order:
        mask = later_masks[v]
        if mask & ~covered_adj[v]:
            count += 1
            clique = mask | (1 << v)
            rest = clique
            while rest:
                low = rest & -rest
                u = low.bit_length() - 1
                covered_adj[u] |= clique & ~low
                rest ^= low
    return count


def msr_exact(g: Graph) -> int | None:
    """Exact msr of a connected graph as the sum over its blocks, or None.

    None means that some block is not K1, K2, a cycle or chordal.
    """
    parts = blocks(g)
    total = 0
    for block in parts:
        if len(block) <= 2:
            total += len(block) - 1
            continue
        part = g if len(parts) == 1 else induced_subgraph(g, block)
        # a 2-connected graph with as many edges as vertices is a cycle
        if part.edge_count == part.n:
            total += part.n - 2
            continue
        peo = chordality(part)
        if peo is None:
            return None
        total += clique_cover_number_chordal(part, peo)
    return total


def check_delta_conjecture(
    g: Graph,
    seed: int = 0,
    graph_id: str | None = None,
) -> ConjectureReport:
    """Delta Conjecture verdict: construct a certificate, or fall back to msr.

    holds-by-construction: a delta-graph certificate plus a verified
    representation pins msr <= |G| - min_degree.  holds: the exact engine
    value already satisfies the bound.  refuted: the exact engine value
    exceeds the bound, a counterexample to the conjecture, with that value
    as ``certified_hi``.  unresolved: neither route applies.
    """
    if not is_connected(g):
        raise ValueError("check_delta_conjecture needs a connected graph")
    if graph_id is None:
        graph_id = to_graph6(g)
    n = g.n
    delta_bound = n - min_degree(g)
    cert = recognize_delta(g)
    if cert is not None:
        _, report = construct_verified(g, cert, seed)
        return ConjectureReport(graph_id, n, delta_bound, report.bound, "holds-by-construction")
    value = msr_exact(g)
    if value is None:
        return ConjectureReport(graph_id, n, delta_bound, n - 1, "unresolved")
    verdict = "holds" if value <= delta_bound else "refuted"
    return ConjectureReport(graph_id, n, delta_bound, value, verdict)
