"""Exact minimum semidefinite rank for special families, and conjecture verdicts.

The exact engine applies, in order: trees (msr = n-1), cycles (msr = n-2),
connected chordal graphs (msr = clique cover number) and the block sum
(msr is the sum over the blocks of G; van der Holst, LAA 375, 2003).  All
four are theorems, so any applicable order agrees; the fixed order is for
determinism.  A pendant vertex v needs no rule of its own: its edge is a
K2 block with msr 1, and the other blocks of G are those of G - v.  A block
has no cut vertex, so the engine recurses at most one level.
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
from .orthorep import SelfCheckFailed, construct, verify_rep
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
    """Minimum number of cliques covering all vertices and edges of a chordal graph.

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
    covered_vertices = 0
    count = 0
    for v in order:
        mask = later_masks[v]
        if not mask:
            if not covered_vertices >> v & 1:
                count += 1
                covered_vertices |= 1 << v
            continue
        if mask & ~covered_adj[v]:
            count += 1
            clique = mask | (1 << v)
            covered_vertices |= clique
            rest = clique
            while rest:
                low = rest & -rest
                u = low.bit_length() - 1
                covered_adj[u] |= clique & ~low
                rest ^= low
    return count


def _is_tree(g: Graph) -> bool:
    return g.edge_count == g.n - 1


def _is_cycle(g: Graph) -> bool:
    return g.n >= 3 and all(g.degree(v) == 2 for v in range(g.n))


def msr_exact(g: Graph) -> int | None:
    """Exact msr when the tree, cycle, chordal or block-sum rule applies, else None."""
    if not is_connected(g):
        raise ValueError("msr_exact needs a connected graph")
    if _is_tree(g):
        return g.n - 1
    if _is_cycle(g):
        return g.n - 2
    peo = chordality(g)
    if peo is not None:
        return clique_cover_number_chordal(g, peo)
    parts = blocks(g)
    if len(parts) == 1:
        return None
    total = 0
    for block in parts:
        part = msr_exact(induced_subgraph(g, block))
        if part is None:
            return None
        total += part
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
        # imported where it is used: a batch that constructs nothing starts without dataclasses
        from .sampler import GenericSampler

        rep = construct(g, cert, GenericSampler(seed=seed))
        report = verify_rep(g, rep)
        if not report.all_ok:
            raise SelfCheckFailed(report.failed_pair)
        assert report.bound == delta_bound
        return ConjectureReport(graph_id, n, delta_bound, report.bound, "holds-by-construction")
    value = msr_exact(g)
    if value is None:
        return ConjectureReport(graph_id, n, delta_bound, n - 1, "unresolved")
    verdict = "holds" if value <= delta_bound else "refuted"
    return ConjectureReport(graph_id, n, delta_bound, value, verdict)
