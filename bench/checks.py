"""Checks of the program's outputs that import nothing from the program.

``is_delta`` decides delta membership by dynamic programming over vertex
subsets, in the style of Held and Karp: whether vertex v may take position m
depends only on the set of vertices placed before it, so a set is reachable
when it is a base triple or one of its members may come last after a
reachable set.  Bundles are re-checked with this module's own rational dot
products; batch lines against the oracle and the delta bound.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from fractions import Fraction

from corpus import complement, has_edge, is_connected, min_degree, to_graph6

# what `deltamsr verify` reports when a coordinate is too long to parse
DIGIT_LIMIT_ERROR = "Exceeds the limit (4300 digits) for integer string conversion"
DEFAULT_INT_DIGITS = sys.int_info.default_max_str_digits

BATCH_VERDICTS = ("holds-by-construction", "holds", "unresolved")
BASE_EDGES = {"3K1": 0, "K2+K1": 1}


@contextmanager
def int_digits(limit: int):
    """Run with the interpreter's int/str digit limit at ``limit`` (0: none)."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def max_excluded(m: int) -> int:
    """Non-neighbours allowed among the priors of the vertex at position m >= 4."""
    return m // 2 - 1


def is_delta(adj: list[int]) -> bool:
    """Subset-DP decision: does some ordering witness that adj is a delta-graph?"""
    n = len(adj)
    if n < 4 or not is_connected(adj) or not is_connected(complement(adj)):
        return False
    nonadj = complement(adj)
    layer = set()
    for a in range(n):
        for b in range(a + 1, n):
            for c in range(b + 1, n):
                if has_edge(adj, a, b) + has_edge(adj, a, c) + has_edge(adj, b, c) <= 1:
                    layer.add(1 << a | 1 << b | 1 << c)
    for m in range(4, n + 1):
        bound = max_excluded(m)
        layer = {
            placed | 1 << v
            for placed in layer
            for v in range(n)
            if not placed >> v & 1 and (nonadj[v] & placed).bit_count() <= bound
        }
        if not layer:
            return False
    return True


def ordering_problems(adj: list[int], ordering, base_kind) -> list[str]:
    n = len(adj)
    if sorted(ordering) != list(range(n)):
        return ["certificate ordering is not a permutation of the vertices"]
    a, b, c = ordering[:3]
    edges = has_edge(adj, a, b) + has_edge(adj, a, c) + has_edge(adj, b, c)
    if BASE_EDGES.get(base_kind) != edges:
        return [f"first three vertices induce {edges} edges, not {base_kind}"]
    nonadj = complement(adj)
    placed = 1 << a | 1 << b | 1 << c
    for m in range(4, n + 1):
        v = ordering[m - 1]
        if (nonadj[v] & placed).bit_count() > max_excluded(m):
            return [f"vertex at position {m} has too many prior non-neighbours"]
        placed |= 1 << v
    return []


def parse_fraction(text: str) -> Fraction:
    num, _, den = text.partition("/")
    with int_digits(0):
        return Fraction(int(num), int(den or "1"))


def coordinate_digits(bundle: dict) -> int:
    """Longest numerator or denominator among the coordinates, in decimal digits."""
    return max(
        len(part.lstrip("-"))
        for vec in bundle["representation"]["vectors"]
        for s in vec
        for part in s.split("/")
    )


def bundle_problems(adj: list[int], bundle: dict) -> list[str]:
    """Everything wrong with a `certify --emit-gram` bundle for graph adj."""
    n = len(adj)
    expected = n - min_degree(adj)
    problems = []
    if bundle.get("graph6") != to_graph6(adj) or bundle.get("n") != n:
        problems.append("bundle names another graph")
    cert = bundle["certificate"]
    problems += ordering_problems(adj, cert["ordering"], cert["base_kind"])
    rep = bundle["representation"]
    for key, value in (("dim", bundle.get("dim")), ("bound", bundle.get("bound")),
                       ("delta_bound", bundle.get("delta_bound")), ("representation dim", rep["dim"])):
        if value != expected:
            problems.append(f"{key} is {value}, not n - delta(G) = {expected}")
    vecs = [[parse_fraction(s) for s in vec] for vec in rep["vectors"]]
    if len(vecs) != n or any(len(v) != rep["dim"] for v in vecs):
        return problems + ["representation has the wrong shape"]
    if any(x == 0 for v in vecs for x in v):
        problems.append("a coordinate is zero")
    dots = [[sum(x * y for x, y in zip(u, v)) for v in vecs] for u in vecs]
    for i in range(n):
        for j in range(i + 1, n):
            if (dots[i][j] != 0) != has_edge(adj, i, j):
                problems.append(f"inner product of {i} and {j} disagrees with the edge")
            # every coordinate is nonzero, so v is a multiple of u exactly
            # when each coordinate ratio equals the first one
            u, v = vecs[i], vecs[j]
            if all(u[0] * v[k] == u[k] * v[0] for k in range(1, len(u))):
                problems.append(f"vectors {i} and {j} are dependent")
    if "gram" in bundle:
        entries = bundle["gram"]["entries"]
        if [[parse_fraction(s) for s in row] for row in entries] != dots:
            problems.append("Gram entries differ from the inner products")
    return problems


def batch_line_problems(adj: list[int], graph6: str, report: dict, delta: bool) -> list[str]:
    """Everything wrong with one `batch` report; delta is the oracle's answer."""
    n = len(adj)
    bound = n - min_degree(adj)
    problems = []
    if report.get("graph") != graph6 or report.get("n") != n:
        problems.append("report names another graph")
    if report.get("delta_bound") != bound:
        problems.append(f"delta_bound is {report.get('delta_bound')}, not {bound}")
    verdict = report.get("verdict")
    if verdict not in BATCH_VERDICTS:
        return problems + [f"unknown verdict {verdict!r}"]
    if (verdict == "holds-by-construction") != delta:
        problems.append(f"verdict {verdict} disagrees with the subset-DP oracle")
    hi = report.get("certified_hi")
    if verdict != "unresolved" and not (isinstance(hi, int) and hi <= bound):
        problems.append(f"certified_hi {hi} exceeds delta_bound {bound}")
    return problems
