"""Exact orthogonal representations for certified delta-graphs.

Given a delta-graph certificate for G, build one rational vector per vertex
in dimension d = max_degree(complement(G)) + 1 such that inner products are
nonzero exactly on edges.  The span of the vectors then witnesses
msr(G) <= d = |G| - min_degree(G).

Vertices are adjoined in certificate order, as in the general-position
argument of Lovasz, Saks and Schrijver: each new vector is a random integer
combination of a basis of the nullspace of its prior non-neighbours, a
system of t < d rows in d columns.  Every remaining condition (nonzero
coordinates, nonzero inner product with each prior neighbour, independence
from every prior) is checked in exact arithmetic and the combination is
redrawn on failure.  Each condition fails only on a proper subvariety, so
random coefficients from a widening window make the bounded retry loop
succeed with overwhelming probability.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction

from .graphs import Graph, complement, max_degree, min_degree
from .linalg import dot, nullspace_basis, primitive_int_vector, rank_bareiss
from .recognition import DeltaCertificate, check_certificate

__all__ = [
    "MAX_RESAMPLES",
    "WIDEN_EVERY",
    "RetryBudgetExceeded",
    "GenericSampler",
    "RationalVector",
    "OrthoRep",
    "GramMatrix",
    "RepReport",
    "construct",
    "gram",
    "rank",
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

RationalVector = tuple[Fraction, ...]


class RetryBudgetExceeded(RuntimeError):
    """Raised when a solve step keeps hitting nonzero-condition failures."""


@dataclass
class GenericSampler:
    """Seeded source of nonzero rationals from a growing magnitude window."""

    seed: int = 0
    magnitude: int = 10_000
    _rng: random.Random = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._rng = random.Random(self.seed)

    def nonzero(self) -> Fraction:
        value = self._rng.randint(1, self.magnitude)
        if self._rng.random() < 0.5:
            value = -value
        return Fraction(value)

    def widen(self) -> None:
        self.magnitude *= 2


@dataclass(frozen=True)
class OrthoRep:
    """One rational vector per vertex, all in dimension ``dim``."""

    dim: int
    vectors: tuple[RationalVector, ...]


@dataclass(frozen=True)
class GramMatrix:
    """Exact symmetric matrix of pairwise inner products."""

    entries: tuple[tuple[Fraction, ...], ...]

    @property
    def n(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class RepReport:
    """Verification outcome; bound is |G| - min_degree(G) when all checks pass."""

    pattern_ok: bool
    nonzero_ok: bool
    independent_ok: bool
    dimension_ok: bool
    bound: int | None

    @property
    def all_ok(self) -> bool:
        return (
            self.pattern_ok
            and self.nonzero_ok
            and self.independent_ok
            and self.dimension_ok
        )


def _is_multiple(u: RationalVector, v: RationalVector) -> bool:
    """True when v = lambda * u for some rational lambda (u nonzero)."""
    i = next(k for k, x in enumerate(u) if x != 0)
    lam = v[i] / u[i]
    return all(x * lam == y for x, y in zip(u, v))


def _solve_vector(
    priors: list[tuple[RationalVector, bool]],
    d: int,
    sampler: GenericSampler,
) -> RationalVector:
    """Vector with prescribed zero/nonzero inner products against the priors.

    priors pairs each earlier vector with True (inner product must be
    nonzero) or False (must be zero).  Requires fewer than d zero
    constraints, which any valid certificate guarantees.
    """
    zero_rows = [list(vec) for vec, adjacent in priors if not adjacent]
    t = len(zero_rows)
    if t >= d:
        raise ValueError(
            f"{t} orthogonality constraints in dimension {d} can force the "
            "zero vector; the certificate bound is violated"
        )
    basis = [primitive_int_vector(b) for b in nullspace_basis(zero_rows, d)]
    neighbours = [vec for vec, adjacent in priors if adjacent]

    for attempt in range(MAX_RESAMPLES):
        if attempt and attempt % WIDEN_EVERY == 0:
            sampler.widen()
        coeffs = [int(sampler.nonzero()) for _ in basis]
        x = [sum(c * b[j] for c, b in zip(coeffs, basis)) for j in range(d)]
        if any(c == 0 for c in x):
            continue
        xt = tuple(Fraction(c) for c in primitive_int_vector(x))
        if any(dot(xt, vec) == 0 for vec in neighbours):
            continue
        if any(_is_multiple(vec, xt) for vec, _ in priors):
            continue
        return xt
    raise RetryBudgetExceeded(
        f"no admissible vector after {MAX_RESAMPLES} resamples "
        f"(dimension {d}, {len(priors)} priors, {t} orthogonality constraints)"
    )


def construct(
    g: Graph, cert: DeltaCertificate, sampler: GenericSampler | None = None
) -> OrthoRep:
    """Representation of g in dimension max_degree(complement(g)) + 1.

    Walks the certificate ordering with one solve per vertex.  Vectors in
    the result are indexed by vertex id.
    """
    if cert.is_complement_form:
        raise ValueError("construction needs the delta-form certificate")
    chk = check_certificate(g, cert)
    if not chk.ok:
        raise ValueError(f"invalid certificate: {chk.reason}")
    if sampler is None:
        sampler = GenericSampler()
    d = max_degree(complement(g)) + 1
    order = cert.ordering
    built: list[RationalVector] = []
    for i in range(g.n):
        v = order[i]
        priors = [(built[j], g.has_edge(order[j], v)) for j in range(i)]
        built.append(_solve_vector(priors, d, sampler))
    by_vertex: list[RationalVector | None] = [None] * g.n
    for i, v in enumerate(order):
        by_vertex[v] = built[i]
    return OrthoRep(dim=d, vectors=tuple(by_vertex))  # type: ignore[arg-type]


def gram(rep: OrthoRep) -> GramMatrix:
    return GramMatrix(
        tuple(tuple(dot(u, v) for v in rep.vectors) for u in rep.vectors)
    )


def rank(m: GramMatrix) -> int:
    return rank_bareiss(m.entries)


def verify_rep(g: Graph, rep: OrthoRep) -> RepReport:
    """Re-check every contract of a representation against its graph."""
    if len(rep.vectors) != g.n:
        raise ValueError("representation size does not match the graph")
    dimension_ok = rep.dim == max_degree(complement(g)) + 1 and all(
        len(v) == rep.dim for v in rep.vectors
    )
    nonzero_ok = all(all(c != 0 for c in vec) for vec in rep.vectors)
    # ragged vectors make inner products meaningless; report the dimension
    # failure instead of comparing patterns
    comparable = len({len(v) for v in rep.vectors}) == 1
    pattern_ok = comparable
    independent_ok = comparable
    if comparable:
        for i in range(g.n):
            for j in range(i + 1, g.n):
                if (dot(rep.vectors[i], rep.vectors[j]) != 0) != g.has_edge(i, j):
                    pattern_ok = False
                if any(c != 0 for c in rep.vectors[i]) and _is_multiple(
                    rep.vectors[i], rep.vectors[j]
                ):
                    independent_ok = False
    all_ok = pattern_ok and nonzero_ok and independent_ok and dimension_ok
    bound = g.n - min_degree(g) if all_ok else None
    return RepReport(pattern_ok, nonzero_ok, independent_ok, dimension_ok, bound)


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
    return OrthoRep(
        dim=int(d["dim"]),
        vectors=tuple(tuple(fraction_from_str(s) for s in vec) for vec in d["vectors"]),
    )


def gram_to_json_dict(m: GramMatrix) -> dict:
    return {
        "n": m.n,
        "entries": [[fraction_to_str(x) for x in row] for row in m.entries],
    }
