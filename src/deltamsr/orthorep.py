"""Exact orthogonal representations for certified delta-graphs.

Given a delta-graph certificate for G, build one primitive integer vector
per vertex in dimension d = max_degree(complement(G)) + 1 such that inner
products are nonzero exactly on edges.  The span of the vectors then
witnesses msr(G) <= d = |G| - min_degree(G).

Vertices are adjoined in certificate order, as in the general-position
argument of Lovasz, Saks and Schrijver: each new vector is a random integer
combination of a fraction-free integer basis of the nullspace of its prior
non-neighbours, a system of t < d rows in d columns.  Every remaining
condition (nonzero coordinates, nonzero inner product with each prior
neighbour, independence from every prior) is checked in integer arithmetic
and the combination is redrawn on failure.  Each condition fails only on a
proper subvariety, so random coefficients from a widening window make the
bounded retry loop succeed with overwhelming probability.

Dependence is decided one way throughout, on inner products already taken:
nonzero u and v are dependent iff (u.v)^2 = (u.u)(v.v), the equality case
of Cauchy-Schwarz.  verify_rep accepts rational vectors too, such as a
bundle read back from JSON: it rescales each one to a primitive integer
vector and reads every check off their gram matrix.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction
from itertools import combinations
from operator import mul

from .graphs import Graph, min_degree
from .linalg import dot, int_nullspace_basis, primitive_int_vector
from .recognition import DeltaCertificate, check_certificate

__all__ = [
    "MAX_RESAMPLES",
    "WIDEN_EVERY",
    "RetryBudgetExceeded",
    "SelfCheckFailed",
    "GenericSampler",
    "RationalVector",
    "OrthoRep",
    "RepReport",
    "construct",
    "gram",
    "verify_rep",
    "fraction_to_str",
    "fraction_from_str",
    "rep_to_json_dict",
    "rep_from_json_dict",
    "gram_to_json_dict",
]

# per-step retry budget; exceeding it signals a bug, not expected behaviour
MAX_RESAMPLES = 32
WIDEN_EVERY = 8

RationalVector = tuple[Fraction | int, ...]
IntVector = tuple[int, ...]


class RetryBudgetExceeded(RuntimeError):
    """Raised when a solve step keeps hitting nonzero-condition failures."""


class SelfCheckFailed(RuntimeError):
    """Raised when verify_rep rejects a representation that construct built."""

    def __init__(self, failed_pair: tuple[int, int] | None) -> None:
        where = "" if failed_pair is None else f", failed_pair {list(failed_pair)}"
        super().__init__(f"constructed representation failed verification{where}")


@dataclass
class GenericSampler:
    """Seeded source of nonzero integers from a growing magnitude window."""

    seed: int = 0
    magnitude: int = 10_000
    _rng: random.Random = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._rng = random.Random(self.seed)

    def nonzero(self) -> int:
        value = self._rng.randint(1, self.magnitude)
        if self._rng.random() < 0.5:
            value = -value
        return value

    def widen(self) -> None:
        self.magnitude *= 2


@dataclass(frozen=True)
class OrthoRep:
    """One rational vector per vertex, all in dimension ``dim``.

    ``construct`` fills it with primitive integer vectors; a bundle read
    back from JSON holds Fractions.
    """

    dim: int
    vectors: tuple[RationalVector, ...]


@dataclass(frozen=True)
class RepReport:
    """Verification outcome; bound is |G| - min_degree(G) when all checks pass.

    failed_pair is the first vertex pair (i, j), i < j, in row-major order
    whose inner product has the wrong zero pattern or whose vectors are
    dependent; None when no pair fails, and when ragged vectors leave no
    pair to compare.
    """

    pattern_ok: bool
    nonzero_ok: bool
    independent_ok: bool
    dimension_ok: bool
    bound: int | None
    failed_pair: tuple[int, int] | None = None

    @property
    def all_ok(self) -> bool:
        return (
            self.pattern_ok
            and self.nonzero_ok
            and self.independent_ok
            and self.dimension_ok
        )


def _solve_vector(
    priors: list[tuple[IntVector, bool]],
    d: int,
    sampler: GenericSampler,
) -> IntVector:
    """Vector with prescribed zero/nonzero inner products against the priors.

    priors pairs each earlier vector, a primitive integer vector as this
    function returns, with True (inner product must be nonzero) or False
    (must be zero).  Requires fewer than d zero constraints, which any
    valid certificate guarantees.

    The new vector x is orthogonal to every (nonzero) non-neighbour, so only
    a neighbour u can be a multiple of x: (x.u)^2 = (x.x)(u.u) is tested on
    the x.u that the nonzero condition already takes.
    """
    zero_rows = [vec for vec, adjacent in priors if not adjacent]
    t = len(zero_rows)
    if t >= d:
        raise ValueError(
            f"{t} orthogonality constraints in dimension {d} can force the "
            "zero vector; the certificate bound is violated"
        )
    basis = int_nullspace_basis(zero_rows, d)
    columns = list(zip(*basis))
    neighbours = [(vec, dot(vec, vec)) for vec, adjacent in priors if adjacent]

    for attempt in range(MAX_RESAMPLES):
        if attempt and attempt % WIDEN_EVERY == 0:
            sampler.widen()
        coeffs = [sampler.nonzero() for _ in basis]
        x = [sum(map(mul, coeffs, col)) for col in columns]
        if not all(x):
            continue
        xt = primitive_int_vector(x)
        xx = dot(xt, xt)
        if all((xu := dot(xt, u)) and xu * xu != xx * uu for u, uu in neighbours):
            return xt
    raise RetryBudgetExceeded(
        f"no admissible vector after {MAX_RESAMPLES} resamples "
        f"(dimension {d}, {len(priors)} priors, {t} orthogonality constraints)"
    )


def construct(
    g: Graph, cert: DeltaCertificate, sampler: GenericSampler | None = None
) -> OrthoRep:
    """Representation of g in dimension |g| - min_degree(g).

    That dimension is max_degree(complement(g)) + 1.  Walks the certificate
    ordering with one solve per vertex.  Vectors in the result are indexed
    by vertex id.
    """
    if cert.is_complement_form:
        raise ValueError("construction needs the delta-form certificate")
    chk = check_certificate(g, cert)
    if not chk.ok:
        raise ValueError(f"invalid certificate: {chk.reason}")
    if sampler is None:
        sampler = GenericSampler()
    d = g.n - min_degree(g)
    order = cert.ordering
    built: list[IntVector] = []
    for i in range(g.n):
        v = order[i]
        priors = [(built[j], g.has_edge(order[j], v)) for j in range(i)]
        built.append(_solve_vector(priors, d, sampler))
    by_vertex: list[IntVector | None] = [None] * g.n
    for i, v in enumerate(order):
        by_vertex[v] = built[i]
    return OrthoRep(dim=d, vectors=tuple(by_vertex))  # type: ignore[arg-type]


def gram(rep: OrthoRep) -> tuple[tuple[int, ...], ...]:
    """Symmetric matrix of pairwise inner products, one dot per unordered pair."""
    vecs = rep.vectors
    rows = [[0] * len(vecs) for _ in vecs]
    for i, u in enumerate(vecs):
        for j in range(i, len(vecs)):
            rows[i][j] = rows[j][i] = dot(u, vecs[j])
    return tuple(map(tuple, rows))


def verify_rep(g: Graph, rep: OrthoRep) -> RepReport:
    """Re-check every contract of a representation against its graph.

    Each vector is first scaled to a primitive integer vector, which keeps
    every zero coordinate, every zero/nonzero inner product and every
    pairwise dependence, so rational input verifies as it would unscaled.
    The zero pattern and the dependences are read off one gram matrix m of
    the scaled vectors: (i, j) is dependent iff m[i][i] != 0 and m[i][j]^2 =
    m[i][i] m[j][j], so a zero vector is dependent on every nonzero vector
    before it and on nothing else.
    """
    if len(rep.vectors) != g.n:
        raise ValueError("representation size does not match the graph")
    vecs = tuple(primitive_int_vector(v) for v in rep.vectors)
    dimension_ok = rep.dim == g.n - min_degree(g) and all(
        len(v) == rep.dim for v in vecs
    )
    nonzero_ok = all(all(vec) for vec in vecs)
    # ragged vectors make inner products meaningless; report the dimension
    # failure instead of comparing patterns
    comparable = len({len(v) for v in vecs}) == 1
    pattern_pair = dependent_pair = None
    if comparable:
        m = gram(OrthoRep(rep.dim, vecs))
        for i, j in combinations(range(g.n), 2):
            if pattern_pair is None and (m[i][j] != 0) != g.has_edge(i, j):
                pattern_pair = (i, j)
            if dependent_pair is None and m[i][i] and m[i][j] ** 2 == m[i][i] * m[j][j]:
                dependent_pair = (i, j)
    failed = [p for p in (pattern_pair, dependent_pair) if p is not None]
    pattern_ok = comparable and pattern_pair is None
    independent_ok = comparable and dependent_pair is None
    all_ok = pattern_ok and nonzero_ok and independent_ok and dimension_ok
    bound = g.n - min_degree(g) if all_ok else None
    return RepReport(
        pattern_ok, nonzero_ok, independent_ok, dimension_ok, bound, min(failed, default=None)
    )


# --- serialization ----------------------------------------------------------


# Integers are written and read through Decimal, whose conversions are not
# bounded by the interpreter's int/str digit limit; the strict pattern keeps
# exponents such as "1e999999999" from ever reaching the int conversion.
_FRACTION_TEXT = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def fraction_to_str(x: Fraction) -> str:
    return f"{Decimal(x.numerator)}/{Decimal(x.denominator)}"


def fraction_from_str(s: str) -> Fraction:
    """Inverse of fraction_to_str; also accepts a bare integer."""
    match = _FRACTION_TEXT.fullmatch(s)
    if match is None:
        raise ValueError(f"not a fraction p/q: {s[:40]!r}")
    num, den = match.group(1), match.group(2) or "1"
    denominator = int(Decimal(den))
    if denominator == 0:
        raise ValueError("fraction with zero denominator")
    return Fraction(int(Decimal(num)), denominator)


def rep_to_json_dict(rep: OrthoRep) -> dict:
    return {
        "dim": rep.dim,
        "vectors": [[fraction_to_str(c) for c in vec] for vec in rep.vectors],
    }


def rep_from_json_dict(d: dict) -> OrthoRep:
    if type(d["dim"]) is not int:
        raise TypeError("representation dim must be an integer")
    return OrthoRep(
        dim=d["dim"],
        vectors=tuple(tuple(fraction_from_str(s) for s in vec) for vec in d["vectors"]),
    )


def gram_to_json_dict(m: tuple[tuple[int, ...], ...]) -> dict:
    return {
        "n": len(m),
        "entries": [[fraction_to_str(x) for x in row] for row in m],
    }
