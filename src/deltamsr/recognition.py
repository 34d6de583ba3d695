"""Recognition of delta-graphs and their complements (C-delta graphs).

A delta-graph is a connected graph with connected complement, on at least
four vertices, whose vertices can be ordered so that the first three induce
3K1 or K2+K1 and every later vertex v_m is adjacent to all prior vertices
except at most floor(m/2)-1 of them.  A C-delta graph is a graph whose
complement is a delta-graph; in complement form the first three vertices
induce K3 or P3 and v_m is adjacent to at most floor(m/2)-1 priors.

``recognize_delta`` is a complete backtracking search over orderings:
base triples are enumerated first, then positions are filled greedily by
smallest excluded-count with backtracking.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .graphs import Graph, complement, is_connected

__all__ = [
    "DELTA_BASE_KINDS",
    "CDELTA_BASE_KINDS",
    "DeltaCertificate",
    "CertificateCheck",
    "max_excluded",
    "check_certificate",
    "verify_certificate",
    "recognize_delta",
    "recognize_c_delta",
]

DELTA_BASE_KINDS = ("3K1", "K2+K1")
CDELTA_BASE_KINDS = ("K3", "P3")

# induced edge count among the first three ordered vertices, per base kind
_BASE_EDGE_COUNT = {"3K1": 0, "K2+K1": 1, "P3": 2, "K3": 3}

_TO_COMPLEMENT_KIND = {"3K1": "K3", "K2+K1": "P3", "K3": "3K1", "P3": "K2+K1"}


@dataclass(frozen=True)
class DeltaCertificate:
    """Vertex ordering witnessing the delta (or C-delta) ordering condition.

    ``excluded_counts[m-4]`` is t_m: in delta form the number of prior
    vertices *not* adjacent to v_m, in complement form the number of prior
    vertices adjacent to v_m.  Certificates written by deltamsr 0.1.0 carry a
    ``mode`` key; it only ever labelled the same bound and is ignored.
    """

    ordering: tuple[int, ...]
    base_kind: str
    excluded_counts: tuple[int, ...]

    @property
    def is_complement_form(self) -> bool:
        return self.base_kind in CDELTA_BASE_KINDS

    def to_json_dict(self) -> dict:
        return {
            "ordering": list(self.ordering),
            "base_kind": self.base_kind,
            "excluded_counts": list(self.excluded_counts),
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "DeltaCertificate":
        return cls(
            ordering=tuple(d["ordering"]),
            base_kind=d["base_kind"],
            excluded_counts=tuple(d["excluded_counts"]),
        )


def max_excluded(m: int) -> int:
    """Largest allowed excluded-count at position m (m >= 4): floor(m/2) - 1."""
    if m < 4:
        raise ValueError("positions before 4 carry no bound")
    return m // 2 - 1


def _triple_edge_count(g: Graph, a: int, b: int, c: int) -> int:
    return int(g.has_edge(a, b)) + int(g.has_edge(a, c)) + int(g.has_edge(b, c))


@dataclass(frozen=True)
class CertificateCheck:
    """Outcome of a certificate check; failed_at is the first violated position m."""

    ok: bool
    failed_at: int | None = None
    reason: str | None = None


def check_certificate(g: Graph, cert: DeltaCertificate) -> CertificateCheck:
    """Check a certificate against g, reporting the first violation."""
    n = g.n
    if sorted(cert.ordering) != list(range(n)):
        raise ValueError("certificate ordering is not a permutation of the vertices")
    if cert.base_kind not in _BASE_EDGE_COUNT:
        raise ValueError(f"unknown base kind {cert.base_kind!r}")
    if n < 4:
        return CertificateCheck(False, reason="fewer than four vertices")
    if not is_connected(g):
        return CertificateCheck(False, reason="graph is disconnected")
    if not is_connected(complement(g)):
        return CertificateCheck(False, reason="complement is disconnected")
    if len(cert.excluded_counts) != n - 3:
        return CertificateCheck(False, reason="excluded_counts has wrong length")

    a, b, c = cert.ordering[:3]
    if _triple_edge_count(g, a, b, c) != _BASE_EDGE_COUNT[cert.base_kind]:
        return CertificateCheck(
            False, reason=f"first three vertices do not induce {cert.base_kind}"
        )

    comp_form = cert.is_complement_form
    prior = (1 << a) | (1 << b) | (1 << c)
    full = (1 << n) - 1
    for m in range(4, n + 1):
        v = cert.ordering[m - 1]
        if comp_form:
            t = (g.adj[v] & prior).bit_count()
        else:
            nonadj = ~g.adj[v] & full & ~(1 << v)
            t = (nonadj & prior).bit_count()
        if t != cert.excluded_counts[m - 4]:
            return CertificateCheck(
                False, failed_at=m, reason="stored excluded-count differs from graph"
            )
        if t > max_excluded(m):
            return CertificateCheck(
                False, failed_at=m, reason="excluded-count exceeds the bound"
            )
        prior |= 1 << v
    return CertificateCheck(True)


def verify_certificate(g: Graph, cert: DeltaCertificate) -> bool:
    return check_certificate(g, cert).ok


def _counts_for_order(masks: list[int], order) -> tuple[int, ...]:
    prior = 0
    counts = []
    for i, v in enumerate(order):
        if i >= 3:
            counts.append((masks[v] & prior).bit_count())
        prior |= 1 << v
    return tuple(counts)


def _base_triples(g: Graph):
    """Canonically ordered base triples: 3K1 ascending; K2+K1 as (end, lone, end)."""
    for a, b, c in combinations(range(g.n), 3):
        e = _triple_edge_count(g, a, b, c)
        if e == 0:
            yield (a, b, c), "3K1"
        elif e == 1:
            if g.has_edge(a, b):
                u, w, lone = a, b, c
            elif g.has_edge(a, c):
                u, w, lone = a, c, b
            else:
                u, w, lone = b, c, a
            yield (u, lone, w), "K2+K1"


def recognize_delta(g: Graph) -> DeltaCertificate | None:
    """Complete search for a delta-graph certificate; None when no ordering exists.

    Exponential in the worst case (the ordering problem has no known
    polynomial algorithm); in practice the greedy smallest-count order
    with backtracking resolves desk-scale graphs immediately.
    """
    n = g.n
    if n < 4:
        return None
    gbar = complement(g)
    if not (is_connected(g) and is_connected(gbar)):
        return None
    nonadj = list(gbar.adj)  # non-neighbour masks of g

    bounds = [max_excluded(m) for m in range(4, n + 1)]

    def extend(order: list[int], used: int) -> bool:
        m = len(order) + 1
        if m > n:
            return True
        bound = bounds[m - 4]
        cands = []
        for v in range(n):
            if used >> v & 1:
                continue
            t = (nonadj[v] & used).bit_count()
            if t <= bound:
                cands.append((t, v))
        cands.sort()
        for _, v in cands:
            order.append(v)
            if extend(order, used | (1 << v)):
                return True
            order.pop()
        return False

    for triple, kind in _base_triples(g):
        order = list(triple)
        used = (1 << triple[0]) | (1 << triple[1]) | (1 << triple[2])
        if extend(order, used):
            return DeltaCertificate(
                ordering=tuple(order),
                base_kind=kind,
                excluded_counts=_counts_for_order(nonadj, order),
            )
    return None


def recognize_c_delta(g: Graph) -> DeltaCertificate | None:
    """Certificate for g being a C-delta graph (its complement a delta-graph)."""
    cert = recognize_delta(complement(g))
    if cert is None:
        return None
    # same ordering and counts; non-adjacency in the complement is adjacency here
    return DeltaCertificate(
        ordering=cert.ordering,
        base_kind=_TO_COMPLEMENT_KIND[cert.base_kind],
        excluded_counts=cert.excluded_counts,
    )
