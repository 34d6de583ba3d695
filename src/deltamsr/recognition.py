"""Recognition of delta-graphs and their complements (C-delta graphs).

A delta-graph is a connected graph with connected complement, on at least
four vertices, whose vertices can be ordered so that the first three induce
3K1 or K2+K1 and every later vertex v_m is adjacent to all prior vertices
except at most floor(m/2)-1 of them.  A C-delta graph is a graph whose
complement is a delta-graph; in complement form the first three vertices
induce K3 or P3 and v_m is adjacent to at most floor(m/2)-1 priors.

``recognize_delta`` is a complete depth-first search over the sets of
placed vertices.  Whether a prefix can be completed depends only on which
vertices it holds, not on their order or its base triple (the subset view
of Held and Karp, J. SIAM 1962), so a set once shown to have no completion
is never expanded again in the same call.  Every non-edge is counted once,
inside the base triple or in the count of its later end, so a placed set P
can be completed only if

    |E(Gbar)| - |E(Gbar[P])| <= sum of floor(m/2) - 1 over the open positions m,

and a candidate whose count breaks this is not tried.  Base triples are
tried in a fixed order, and each position takes its candidates by smallest
excluded-count, then smallest vertex; both cuts drop only sets with no
completion, so the first certificate found is the first ordering in that
order.  The search runs on an explicit stack, so its depth is not limited
by the interpreter's recursion limit.  The problem has no known polynomial
algorithm, so the search is bounded: after ``SEARCH_BUDGET`` expanded sets
it raises ``SearchBudgetExceeded``, the "undecided" outcome.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, combinations

from .graphs import Graph, complement, is_connected

__all__ = [
    "CDELTA_BASE_KINDS",
    "SEARCH_BUDGET",
    "SearchBudgetExceeded",
    "DeltaCertificate",
    "CertificateCheck",
    "max_excluded",
    "check_certificate",
    "recognize_delta",
    "recognize_c_delta",
]

CDELTA_BASE_KINDS = ("K3", "P3")

# induced edge count among the first three ordered vertices, per base kind
_BASE_EDGE_COUNT = {"3K1": 0, "K2+K1": 1, "P3": 2, "K3": 3}

_TO_COMPLEMENT_KIND = {"3K1": "K3", "K2+K1": "P3", "K3": "3K1", "P3": "K2+K1"}

# expanded vertex sets per recognize_delta call, over all base triples
SEARCH_BUDGET = 1_000_000


class SearchBudgetExceeded(RuntimeError):
    """Raised when recognize_delta expands SEARCH_BUDGET sets without an answer."""

    def __init__(self, nodes: int) -> None:
        super().__init__(f"delta-graph search undecided after {nodes} expanded vertex sets")
        self.nodes = nodes


@dataclass(frozen=True)
class DeltaCertificate:
    """Vertex ordering witnessing the delta (or C-delta) ordering condition.

    ``excluded_counts[m-4]`` is t_m: in delta form the number of prior
    vertices *not* adjacent to v_m, in complement form the number of prior
    vertices adjacent to v_m.
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

    Depth-first over the set P of placed vertices, carrying ``inside =
    |E(Gbar[P])|``.  With ``total = |E(Gbar)|`` and ``room[i]`` the sum of
    the bounds of positions i + 4 .. n, a candidate with count t at position
    m is admitted only if ``total - inside - room[m-3] <= t <= floor(m/2) -
    1``, and a base triple with ``total - inside > room[0]`` is skipped.
    A triple holds at most 3 non-edges, so when ``total - 3 > room[0]`` the
    call returns None before it looks at any triple.  Sets shown to have no
    completion are remembered for the whole call, across base triples.
    Exponential in the worst case; raises ``SearchBudgetExceeded`` once
    ``SEARCH_BUDGET`` sets have been expanded.
    """
    n = g.n
    if n < 4:
        return None
    total = n * (n - 1) // 2 - g.edge_count  # |E(Gbar)|
    bounds = [max_excluded(m) for m in range(4, n + 1)]
    # room[i]: most non-edges positions i + 4 .. n can still take
    room = list(accumulate(reversed(bounds), initial=0))[::-1]
    if total - 3 > room[0]:
        return None  # a base triple holds at most 3 non-edges, so none fits
    gbar = complement(g)
    if not (is_connected(g) and is_connected(gbar)):
        return None
    nonadj = list(gbar.adj)  # non-neighbour masks of g
    full = (1 << n) - 1
    nodes = 0

    def candidates(used: int, inside: int, m: int) -> list[tuple[int, int]]:
        """Admissible (excluded-count, vertex) pairs at position m, first to try last."""
        nonlocal nodes
        if nodes >= SEARCH_BUDGET:
            raise SearchBudgetExceeded(nodes)
        nodes += 1
        lower = total - inside - room[m - 3]
        bound = bounds[m - 4]
        cands = []
        rest = full & ~used
        while rest:
            low = rest & -rest
            v = low.bit_length() - 1
            t = (nonadj[v] & used).bit_count()
            if lower <= t <= bound:
                cands.append((t, v))
            rest ^= low
        cands.sort(reverse=True)
        return cands

    dead: set[int] = set()  # placed sets with no completion
    for triple, kind in _base_triples(g):
        inside = 3 - _BASE_EDGE_COUNT[kind]  # |E(Gbar[P])|
        if total - inside > room[0]:
            continue
        order = list(triple)
        counts: list[int] = []
        used = (1 << triple[0]) | (1 << triple[1]) | (1 << triple[2])
        stack = [candidates(used, inside, 4)]  # stack[i]: untried candidates for position i + 4
        while stack:
            cands = stack[-1]
            if not cands:
                dead.add(used)
                stack.pop()
                if stack:
                    used ^= 1 << order.pop()
                    inside -= counts.pop()
                continue
            t, v = cands.pop()
            nxt = used | (1 << v)
            if nxt in dead:
                continue
            order.append(v)
            counts.append(t)
            used = nxt
            inside += t
            if used == full:
                return DeltaCertificate(
                    ordering=tuple(order), base_kind=kind, excluded_counts=tuple(counts)
                )
            stack.append(candidates(used, inside, len(order) + 1))
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
