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
neighbour, independence from every prior) is checked in integer arithmetic.
Each condition fails only on a proper subvariety, so by Schwartz-Zippel a
draw from the sampler's window fails with probability at most the
subvariety's degree over the window's width, a bound that halves each time
the window doubles.  The window starts small (16), which keeps every
vector, and so every later layer, short.

A failed step is redrawn, up to MAX_RESAMPLES times with the window doubled
every WIDEN_EVERY draws, when its nullspace basis has two or more vectors.
A basis of one vector is drawn once: x is then +-that vector, every
condition is sign-invariant, and no redraw can change the outcome.  Such a
step can only be mended by different earlier vectors, so construct widens
the window and starts over from the first vertex, on the same sampler
stream, up to MAX_RESTARTS times before RetryBudgetExceeded escapes.

Dependence is decided one way throughout, on inner products already taken.
Two nonzero primitive integer vectors u and v are dependent iff v = +-u,
that is iff u.u = v.v and |u.v| = u.u: the equality case of Cauchy-Schwarz
for equal norms, tested without multiplying big integers.  verify_rep
accepts rational vectors too, such as a bundle with "p/q" coordinates read
back from JSON: it rescales each one to a primitive integer vector and
reads every check off their norms and pairwise inner products.

The records here are NamedTuples.  The sampler, the package's one
dataclass, lives in ``deltamsr.sampler``; ``construct_verified``, the one
construct-and-check step of the CLI and the conjecture verdicts, imports
it where it is used.
"""

from __future__ import annotations

import re
from itertools import combinations
from math import gcd
from operator import mul
from typing import TYPE_CHECKING, NamedTuple

from .graphs import Graph, min_degree
from .linalg import dot, int_nullspace_basis, primitive_int_vector, primitive_part
from .recognition import DeltaCertificate, check_certificate

if TYPE_CHECKING:
    from fractions import Fraction

    from .sampler import GenericSampler

__all__ = [
    "MAX_RESAMPLES",
    "MAX_RESTARTS",
    "WIDEN_EVERY",
    "RetryBudgetExceeded",
    "SelfCheckFailed",
    "RationalVector",
    "OrthoRep",
    "RepReport",
    "construct",
    "construct_verified",
    "gram",
    "verify_rep",
    "fraction_to_str",
    "fraction_from_str",
    "rep_to_json_dict",
    "rep_from_json_dict",
    "gram_to_json_dict",
    "gram_mismatch",
]

# per-step redraw budget, and the restarts of a whole construction that
# follow a step out of draws; exhausting both signals a bug
MAX_RESAMPLES = 32
WIDEN_EVERY = 8
MAX_RESTARTS = 8

RationalVector = tuple["Fraction | int", ...]
IntVector = tuple[int, ...]


class RetryBudgetExceeded(RuntimeError):
    """Raised when a solve step finds no admissible vector in its draws.

    construct raises it only after MAX_RESTARTS widened restarts failed too.
    """


class SelfCheckFailed(RuntimeError):
    """Raised when verify_rep rejects a representation that construct built.

    ``failed_pair`` is the report's first failing vertex pair, or None.
    """

    def __init__(self, failed_pair: tuple[int, int] | None) -> None:
        self.failed_pair = failed_pair
        where = "" if failed_pair is None else f", failed_pair {list(failed_pair)}"
        super().__init__(f"constructed representation failed verification{where}")


class OrthoRep(NamedTuple):
    """One rational vector per vertex, all in dimension ``dim``.

    ``construct`` fills it with primitive integer vectors.  A bundle read
    back from JSON holds ints, and a Fraction only where a coordinate was
    written as "p/q" with q other than 1.
    """

    dim: int
    vectors: tuple[RationalVector, ...]


class RepReport(NamedTuple):
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
    a neighbour u can be a multiple of x.  Both are primitive, so that means
    u = +-x: x.x = u.u and |x.u| = x.x, tested on the x.u that the nonzero
    condition already takes.
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

    # a one-vector basis gives x = +-basis[0] on every draw
    draws = min(MAX_RESAMPLES, 1) if len(basis) == 1 else MAX_RESAMPLES
    for attempt in range(draws):
        if attempt and attempt % WIDEN_EVERY == 0:
            sampler.widen()
        coeffs = [sampler.nonzero() for _ in basis]
        x = [sum(map(mul, coeffs, col)) for col in columns]
        if not all(x):
            continue
        xt = primitive_part(x)
        xx = dot(xt, xt)
        if all((xu := dot(xt, u)) and (xx != uu or abs(xu) != xx) for u, uu in neighbours):
            return xt
    raise RetryBudgetExceeded(
        f"no admissible vector after {draws} resamples "
        f"(dimension {d}, {len(priors)} priors, {t} orthogonality constraints)"
    )


def construct(g: Graph, cert: DeltaCertificate, sampler: GenericSampler) -> OrthoRep:
    """Representation of g in dimension |g| - min_degree(g).

    That dimension is max_degree(complement(g)) + 1.  Walks the certificate
    ordering with one solve per vertex, drawing every coefficient from
    sampler.  When a solve runs out of draws, widens the sampler's window
    and walks the ordering again, up to MAX_RESTARTS times.  Vectors in the
    result are indexed by vertex id.
    """
    chk = check_certificate(g, cert)
    if not chk.ok:
        raise ValueError(f"invalid certificate: {chk.reason}")
    d = g.n - min_degree(g)
    order = cert.ordering
    for restart in range(MAX_RESTARTS + 1):
        if restart:
            sampler.widen()
        vectors: list[IntVector] = [()] * g.n
        try:
            for i, v in enumerate(order):
                priors = [(vectors[u], g.has_edge(u, v)) for u in order[:i]]
                vectors[v] = _solve_vector(priors, d, sampler)
        except RetryBudgetExceeded as exc:
            failure = exc
            continue
        return OrthoRep(dim=d, vectors=tuple(vectors))
    raise RetryBudgetExceeded(f"{failure}, then {MAX_RESTARTS} widened restarts")


def construct_verified(g: Graph, cert: DeltaCertificate, seed: int) -> tuple[OrthoRep, RepReport]:
    """construct with a GenericSampler(seed), checked by verify_rep.

    Raises SelfCheckFailed, naming the first failing pair, when the check
    rejects what construct built.
    """
    # imported where it is used: a process that builds no representation
    # starts without dataclasses
    from .sampler import GenericSampler

    rep = construct(g, cert, GenericSampler(seed=seed))
    report = verify_rep(g, rep)
    if not report.all_ok:
        raise SelfCheckFailed(report.failed_pair)
    return rep, report


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
    The zero pattern and the dependences are read off the scaled vectors'
    norms and one inner product per pair.  A zero vector is dependent on
    every nonzero vector before it and on nothing else; nonzero primitive
    u, v are dependent iff u.u = v.v = |u.v|, the equality case of
    Cauchy-Schwarz for equal norms.
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
        adj = g.adj
        norms = [dot(v, v) for v in vecs]
        for i, j in combinations(range(g.n), 2):
            uv = dot(vecs[i], vecs[j])
            if pattern_pair is None and (uv != 0) != adj[i] >> j & 1:
                pattern_pair = (i, j)
            uu, vv = norms[i], norms[j]
            if dependent_pair is None and uu and (not vv or uu == vv == abs(uv)):
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


# A coordinate or Gram entry is written as "p" when it is an integer and
# as "p/q" otherwise.  Integers are converted by str() and int() within the
# interpreter's int/str digit limit, and past it through Decimal, whose
# conversions the limit does not bound.  "p/1", as 0.13.0 and earlier
# wrote every integer, is read as an int too; fractions and decimal are
# imported only for other "p/q" text and past the limit.  The strict
# pattern runs before any conversion, so no exponent such as "1e999999999"
# reaches one, nor any text that int() alone accepts ("1_000", " 12",
# non-ASCII digits).
_FRACTION_TEXT = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def fraction_to_str(x: Fraction | int) -> str:
    """Text "p" for an integral value, else "p/q" in lowest terms."""
    try:
        return str(x)
    except ValueError:  # past the interpreter's int/str digit limit
        from decimal import Decimal

        text = str(Decimal(x.numerator))
        return text if x.denominator == 1 else f"{text}/{Decimal(x.denominator)}"


def _int(digits: str) -> int:
    """Integer value of decimal digits that _FRACTION_TEXT matched, at any length."""
    try:
        return int(digits)
    except ValueError:  # past the interpreter's int/str digit limit
        from decimal import Decimal

        return int(Decimal(digits))


def fraction_from_str(s: str) -> Fraction | int:
    """Inverse of fraction_to_str: an int for "p" and "p/1" text, else a Fraction.

    Raises ValueError on any other text and on a zero denominator.
    """
    match = _FRACTION_TEXT.fullmatch(s)
    if match is None:
        raise ValueError(f"not an integer p or a fraction p/q: {s[:40]!r}")
    num, den = match.groups()
    denominator = 1 if den is None else _int(den)
    if denominator == 0:
        raise ValueError("fraction with zero denominator")
    if denominator == 1:
        return _int(num)
    from fractions import Fraction

    return Fraction(_int(num), denominator)


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


def gram_mismatch(rep: OrthoRep, m: dict) -> tuple[int, int] | None:
    """First entry (i, j), in row-major order, of a Gram matrix that rep contradicts.

    m is a Gram matrix as gram_to_json_dict writes it; entry (i, j) must
    equal the inner product of rep's vectors i and j.  Returns None when
    every entry does.  Vectors of different lengths have no inner product,
    so their entries never agree.  Raises TypeError when m's n is not an
    integer, as rep_from_json_dict does for dim, and ValueError when m is
    not n x n for rep's n vectors, as verify_rep does for a representation
    of the wrong size.

    Compared in integers: each vector v is s * p for its primitive integer
    vector p and a rational s = a / b, so entry num / den agrees iff
    num * b_i * b_j == den * a_i * a_j * (p_i . p_j).  An integer entry,
    "p" or "p/1", is read as an int, so only other "p/q" text makes a
    Fraction.
    """
    n = len(rep.vectors)
    entries = m["entries"]
    if type(m["n"]) is not int:
        raise TypeError("gram n must be an integer")
    if m["n"] != n or len(entries) != n or any(len(row) != n for row in entries):
        raise ValueError(f"gram is not {n} x {n}")
    prims = [primitive_int_vector(v) for v in rep.vectors]
    # s = v[k] / p[k] at any nonzero p[k]; a zero vector's scale does not matter
    scales = []
    for v, p in zip(rep.vectors, prims):
        x, y = next(((x, y) for x, y in zip(v, p) if y), (1, 1))
        a, b = x.numerator, x.denominator * y
        g = gcd(a, b)
        scales.append((a // g, b // g))
    for i, (row, p, (ai, bi)) in enumerate(zip(entries, prims, scales)):
        for j, (text, q, (aj, bj)) in enumerate(zip(row, prims, scales)):
            entry = fraction_from_str(text)
            num, den = entry.numerator, entry.denominator
            if len(p) != len(q) or num * bi * bj != den * ai * aj * dot(p, q):
                return (i, j)
    return None
