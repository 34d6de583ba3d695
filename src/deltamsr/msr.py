"""Exact minimum semidefinite rank for special families, and bound reports.

The exact engine applies, in order: trees (msr = n-1), cycles (msr = n-2),
connected chordal graphs (msr = clique cover number), pendant-vertex
reduction (msr(G) = msr(G-v) + 1) and cut-vertex decomposition (msr is the
sum over blocks).  All five are theorems, so any applicable order agrees;
the fixed order is for determinism.  ``msr_bounds`` folds in the
delta-graph construction bound and trivial bounds, and
``check_delta_conjecture`` produces the per-graph verdict.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import (
    EliminationOrdering,
    Graph,
    blocks,
    chordality,
    find_pendant,
    induced_subgraph,
    is_connected,
    is_perfect_elimination_ordering,
    min_degree,
    to_graph6,
)
from .orthorep import GenericSampler, construct, verify_rep
from .recognition import DeltaCertificate, recognize_delta

__all__ = [
    "MsrBounds",
    "ConjectureReport",
    "msr_exact",
    "clique_cover_number_chordal",
    "msr_bounds",
    "check_delta_conjecture",
]


@dataclass(frozen=True)
class MsrBounds:
    """Integer interval for msr with the rules that produced each bound."""

    lo: int
    hi: int
    provenance: tuple[tuple[str, int], ...]

    @property
    def exact(self) -> bool:
        return self.lo == self.hi

    def m_plus_interval(self, n: int) -> tuple[int, int]:
        """Interval for the maximum psd nullity, via msr + nullity = n."""
        return n - self.hi, n - self.lo

    def to_json_dict(self) -> dict:
        return {
            "lo": self.lo,
            "hi": self.hi,
            "provenance": [[rule, value] for rule, value in self.provenance],
        }


@dataclass(frozen=True)
class ConjectureReport:
    """Delta Conjecture verdict for one graph."""

    graph_id: str
    n: int
    delta_bound: int
    certified_hi: int
    verdict: str  # holds-by-construction | holds | unresolved

    def to_json_dict(self) -> dict:
        return {
            "graph": self.graph_id,
            "n": self.n,
            "delta_bound": self.delta_bound,
            "certified_hi": self.certified_hi,
            "verdict": self.verdict,
        }


def clique_cover_number_chordal(g: Graph, peo: EliminationOrdering) -> int:
    """Minimum number of cliques covering all vertices and edges of a chordal graph.

    Greedy along the perfect elimination ordering: take the closed later
    neighbourhood of v whenever some edge at v is still uncovered.  Any
    clique of an optimal cover containing that edge lies inside the same
    closed neighbourhood, which makes the greedy choice exchange-safe.
    """
    order = list(peo.order)
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


def _msr_exact_rule(g: Graph) -> tuple[int, str] | None:
    """(value, top-level rule) or None; assumes g connected."""
    if _is_tree(g):
        return g.n - 1, "tree"
    if _is_cycle(g):
        return g.n - 2, "cycle"
    peo = chordality(g)
    if peo is not None:
        return clique_cover_number_chordal(g, peo), "chordal-cc"
    v = find_pendant(g)
    if v is not None:
        rest = [u for u in range(g.n) if u != v]
        inner = msr_exact(induced_subgraph(g, rest))
        if inner is not None:
            return inner + 1, "pendant-reduction"
    decomp = blocks(g)
    if decomp.cut_vertices:
        total = 0
        for block in decomp.blocks:
            part = msr_exact(induced_subgraph(g, block))
            if part is None:
                return None
            total += part
        return total, "cut-vertex-sum"
    return None


def msr_exact(g: Graph) -> int | None:
    """Exact msr when the recursive special-family engine applies, else None."""
    if not is_connected(g):
        raise ValueError("msr_exact needs a connected graph")
    result = _msr_exact_rule(g)
    return None if result is None else result[0]


def msr_bounds(
    g: Graph,
    cert: DeltaCertificate | None = None,
    sampler: GenericSampler | None = None,
) -> MsrBounds:
    """Tightest msr interval from the exact engine, a certificate, and trivia."""
    if not is_connected(g):
        raise ValueError("msr_bounds needs a connected graph")
    n = g.n
    lo, hi = 0, n - 1
    prov: list[tuple[str, int]] = [("trivial", 0), ("trivial", n - 1)]
    if g.edge_count > 0:
        lo = 1
        prov.append(("trivial", 1))
    exact = _msr_exact_rule(g)
    if exact is not None:
        value, rule = exact
        lo = max(lo, value)
        hi = min(hi, value)
        prov.append((rule, value))
    if cert is not None:
        if cert.is_complement_form:
            raise ValueError("msr_bounds needs the delta-form certificate")
        rep = construct(g, cert, sampler)
        report = verify_rep(g, rep)
        if not report.all_ok:
            raise RuntimeError("constructed representation failed verification")
        assert report.bound is not None
        hi = min(hi, report.bound)
        prov.append(("delta-construction", report.bound))
    if lo > hi:
        raise RuntimeError(f"inconsistent msr bounds [{lo}, {hi}] for {to_graph6(g)}")
    return MsrBounds(lo, hi, tuple(prov))


def check_delta_conjecture(
    g: Graph,
    seed: int = 0,
    graph_id: str | None = None,
) -> ConjectureReport:
    """Delta Conjecture verdict: construct a certificate, or fall back to msr.

    holds-by-construction: a delta-graph certificate plus a verified
    representation pins msr <= |G| - min_degree.  holds: the exact engine
    value already satisfies the bound.  unresolved: neither route applies.
    """
    if not is_connected(g):
        raise ValueError("check_delta_conjecture needs a connected graph")
    if graph_id is None:
        graph_id = to_graph6(g)
    n = g.n
    delta_bound = n - min_degree(g)
    cert = recognize_delta(g)
    if cert is not None:
        rep = construct(g, cert, GenericSampler(seed=seed))
        report = verify_rep(g, rep)
        if not report.all_ok:
            raise RuntimeError("constructed representation failed verification")
        assert report.bound == delta_bound
        return ConjectureReport(graph_id, n, delta_bound, report.bound, "holds-by-construction")
    value = msr_exact(g)
    if value is not None and value <= delta_bound:
        return ConjectureReport(graph_id, n, delta_bound, value, "holds")
    # an exact value above the bound would refute the conjecture; report it raw
    certified_hi = value if value is not None else n - 1
    return ConjectureReport(graph_id, n, delta_bound, certified_hi, "unresolved")
