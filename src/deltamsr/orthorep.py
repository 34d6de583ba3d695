"""Exact orthogonal representations for certified delta-graphs.

Given a delta-graph certificate for G, build one primitive integer vector
per vertex in dimension d = max_degree(complement(G)) + 1 such that inner
products are nonzero exactly on edges.  The span of the vectors then
witnesses msr(G) <= d = |G| - min_degree(G).

Every vector is an integer vector, with no tolerances and no other number
type, and a primitive one has coprime entries: ``primitive_part`` divides
out the gcd, which changes no zero coordinate, no zero/nonzero inner
product and no linear (in)dependence.

Vertices are adjoined one at a time, as in the general-position argument
of Lovasz, Saks and Schrijver: each new vector is a random integer
combination of an integer basis of the nullspace of its prior
non-neighbours, a system of t < d rows in d columns, since in dimension
d = |G| - min_degree(G) every vertex has fewer than d non-neighbours.  The
basis entries are minors of those rows, so coordinate bits add up along
directed paths of the complement, and the ordering sets them.  The first
walk takes, of the certificate ordering and a greedy one, whichever
predicts fewer bits (``_first_ordering``); the certificate ordering wins
ties, and every restart walks it, as the paper's guarantee covers it
alone.  ``int_nullspace_basis`` takes that basis by fraction-free
Gauss-Jordan elimination (Bareiss): each row update is divided exactly by
the previous pivot entry, so rows stay integral with no gcd per row, and
each basis vector is made primitive by one gcd.  A vertex's adjacency
mask splits its placed priors into those rows and its prior neighbours, and
each neighbour comes with the norm that its own step returned, so no norm
is taken twice.  Every remaining condition (nonzero coordinates, nonzero
inner product with each prior neighbour, independence from every prior) is
checked in integer arithmetic.
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
the window and starts over from the first vertex of the certificate
ordering, on the same sampler stream, up to MAX_RESTARTS times before
RetryBudgetExceeded escapes.
``construct_verified`` raises SelfCheckFailed when verify_rep rejects what
construct built.  Both classes are defined in the package, with
recognition's SearchBudgetExceeded, so a caller catches them without
loading this module; they are imported here from there.

Dependence is decided one way throughout, on inner products already taken.
Two nonzero primitive integer vectors u and v are dependent iff v = +-u,
that is iff u.u = v.v and |u.v| = u.u: the equality case of Cauchy-Schwarz
for equal norms, tested without multiplying big integers.  verify_rep
divides each vector by the gcd of its coordinates first, since a bundle
edited by hand may hold a vector such as (2, 4), and reads every check off
their norms and pairwise inner products.  Coordinates are integers
everywhere: construct builds nothing else, and a bundle is read back only
from integer text.

The records here are NamedTuples.  The sampler, the package's one
dataclass, lives in ``deltamsr.sampler``; ``construct_verified``, the one
construct-and-check step of the CLI and the conjecture verdicts, imports
it where it is used, as ``construct`` imports ``check_certificate``, so
reading and verifying a bundle loads neither the sampler nor recognition.
"""

from __future__ import annotations

import re
import sys
from heapq import heapify, heappop, heappush
from itertools import combinations
from math import gcd
from operator import mul
from typing import TYPE_CHECKING, NamedTuple

from . import RetryBudgetExceeded, SelfCheckFailed
from .graphs import Graph, min_degree

if TYPE_CHECKING:
    from .recognition import DeltaCertificate
    from .sampler import GenericSampler

__all__ = [
    "MAX_RESAMPLES",
    "MAX_RESTARTS",
    "WIDEN_EVERY",
    "RetryBudgetExceeded",
    "SelfCheckFailed",
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
    "dot",
    "primitive_part",
    "int_nullspace_basis",
]

# per-step redraw budget, and the restarts of a whole construction that
# follow a step out of draws; exhausting both signals a bug
MAX_RESAMPLES = 32
WIDEN_EVERY = 8
MAX_RESTARTS = 8

IntVector = tuple[int, ...]


def dot(u, v):
    if len(u) != len(v):
        raise ValueError("inner product of vectors of different lengths")
    return sum(map(mul, u, v), 0)


def primitive_part(ints) -> tuple[int, ...]:
    """An integer vector divided by the gcd of its entries; zero stays zero."""
    g = gcd(*ints)
    if g > 1:
        return tuple([x // g for x in ints])
    return tuple(ints)


def int_nullspace_basis(rows, ncols: int) -> tuple[tuple[int, ...], ...]:
    """Basis of {x : row . x = 0 for every row} over integer rows.

    One vector per free column: the primitive multiple, positive in its
    free column, of the vector the reduced row echelon form gives (1 in the
    free column, minus the reduced rows' entries in the pivot columns).
    Fraction-free Gauss-Jordan elimination (Bareiss) takes every row but the
    pivot row to (pv*x - f*y) // prev, where pv is the pivot entry, f the
    row's entry in the pivot column and prev the previous pivot entry
    (1 at the first), a division that is always exact.  Each pivot row then
    is its reduced row times the last pivot entry D, so the vector for free
    column c is |D| at c and -sign(D) * row[c] at each pivot column, and one
    gcd per vector makes it primitive.  With no rows, or only zero rows,
    every column is free and D = 1: the identity.
    """
    mat = list(rows)  # a row is replaced, never changed in place
    pivots: list[int] = []
    prev = 1
    for c in range(ncols):
        r = len(pivots)
        for p in range(r, len(mat)):
            if mat[p][c]:
                break
        else:
            continue
        prow = mat[p]
        mat[p] = mat[r]
        mat[r] = prow
        pv = prow[c]
        for i, row in enumerate(mat):
            if i != r:
                f = row[c]
                mat[i] = [(pv * x - f * y) // prev for x, y in zip(row, prow)]
        prev = pv
        pivots.append(c)
    sign = 1 if prev > 0 else -1
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        vec = [0] * ncols
        vec[fc] = sign * prev
        for pc, row in zip(pivots, mat):
            vec[pc] = -sign * row[fc]
        basis.append(primitive_part(vec))
    return tuple(basis)


class OrthoRep(NamedTuple):
    """One integer vector per vertex, all in dimension ``dim``.

    ``construct`` fills it with primitive integer vectors.  A bundle read
    back from JSON holds the ints it was written with, primitive or not.
    """

    dim: int
    vectors: tuple[IntVector, ...]


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
    zero_rows: list[IntVector],
    neighbours: list[tuple[IntVector, int]],
    d: int,
    sampler: GenericSampler,
) -> tuple[IntVector, int]:
    """Vector orthogonal to zero_rows with a nonzero inner product with each neighbour.

    zero_rows are the earlier vectors the new one must be orthogonal to,
    and neighbours pair each earlier vector it must not be orthogonal to
    with that vector's norm u.u, carried from the step that made it.  Every
    earlier vector is a primitive integer vector, as this function returns.
    Returns the new vector x and its norm x.x, so that later steps need not
    take it again.  Requires fewer than d zero rows, which holds along any
    ordering in d = |G| - min_degree(G), where every vertex has fewer than
    d non-neighbours.

    The new vector x is orthogonal to every (nonzero) zero row, so only a
    neighbour u can be a multiple of x.  Both are primitive, so that means
    u = +-x: x.x = u.u and |x.u| = x.x, tested on the x.u that the nonzero
    condition already takes.
    """
    t = len(zero_rows)
    if t >= d:
        raise ValueError(
            f"{t} orthogonality constraints in dimension {d} can force the "
            "zero vector; the certificate bound is violated"
        )
    basis = int_nullspace_basis(zero_rows, d)
    columns = list(zip(*basis))
    nonzero = sampler.nonzero

    # a one-vector basis gives x = +-basis[0] on every draw
    draws = min(MAX_RESAMPLES, 1) if len(basis) == 1 else MAX_RESAMPLES
    for attempt in range(draws):
        if attempt and attempt % WIDEN_EVERY == 0:
            sampler.widen()
        coeffs = [nonzero() for _ in basis]
        x = [sum(map(mul, coeffs, col)) for col in columns]
        if not all(x):
            continue
        xt = primitive_part(x)
        xx = sum(map(mul, xt, xt))
        # every vector here has length d, so no inner product needs dot's length check
        if all(
            (xu := sum(map(mul, xt, u))) and (xx != uu or abs(xu) != xx) for u, uu in neighbours
        ):
            return xt, xx
    raise RetryBudgetExceeded(
        f"no admissible vector after {draws} resamples "
        f"(dimension {d}, {t + len(neighbours)} priors, {t} orthogonality constraints)"
    )


def _first_ordering(g: Graph, cert_order: tuple[int, ...]) -> tuple[int, ...]:
    """The ordering construct walks first: the greedy one if it predicts fewer bits.

    A step's coordinates are minors of its prior non-neighbours' vectors,
    so their bits add up along directed paths of the complement.  The
    predicted bits of v under an ordering are p(v) = 4 + the sum of p(u)
    over the complement neighbours u placed before v.  The greedy ordering
    places next the unplaced vertex with the least p, ties broken by the
    highest complement degree, then the lowest label; a heap with lazy
    deletion finds it, as p only grows.  Returns the greedy ordering when
    its largest p is below the certificate ordering's, else cert_order, as
    soon as a greedy p reaches that largest.  In O((n + E) log n) for E
    complement edges, with no linear algebra.
    """
    n = g.n
    full = (1 << n) - 1
    nbrs = []
    for v, mask in enumerate(g.adj):
        mask ^= full ^ (1 << v)
        vs = []
        while mask:
            low = mask & -mask
            vs.append(low.bit_length() - 1)
            mask ^= low
        nbrs.append(vs)

    p = [4] * n
    cert_max = 0
    for v in cert_order:
        pv = p[v]
        cert_max = max(cert_max, pv)
        for w in nbrs[v]:
            p[w] += pv

    p = [4] * n
    ties = [-len(vs) for vs in nbrs]
    heap = [(4, tie, v) for v, tie in enumerate(ties)]
    heapify(heap)
    greedy: list[int] = []
    while heap:
        pv, _, v = heappop(heap)
        if pv != p[v]:
            continue  # a stale entry: v is placed (p[v] = 0), or its p has grown since
        if pv >= cert_max:
            return cert_order
        p[v] = 0
        greedy.append(v)
        for w in nbrs[v]:
            if p[w]:
                p[w] += pv
                heappush(heap, (p[w], ties[w], w))
    return tuple(greedy)


def construct(g: Graph, cert: DeltaCertificate, sampler: GenericSampler) -> OrthoRep:
    """Representation of g in dimension |g| - min_degree(g).

    That dimension is max_degree(complement(g)) + 1.  Walks an ordering
    with one solve per vertex, drawing every coefficient from sampler: first
    the greedy ordering if it predicts fewer coordinate bits than the
    certificate ordering, else the certificate ordering (_first_ordering).
    A vertex's placed priors split on its adjacency mask into the rows its
    vector must be orthogonal to and its neighbours, each with the norm its
    own step returned.  When a solve runs out of draws, widens the sampler's
    window and walks the certificate ordering, up to MAX_RESTARTS times, so
    a greedy walk that fails costs one walk.  Vectors in the result are
    indexed by vertex id.
    """
    # imported where it is used: verify reads bundles without recognition
    from .recognition import check_certificate

    chk = check_certificate(g, cert)
    if not chk.ok:
        raise ValueError(f"invalid certificate: {chk.reason}")
    d = g.n - min_degree(g)
    order = _first_ordering(g, cert.ordering)
    adj = g.adj
    for restart in range(MAX_RESTARTS + 1):
        if restart:
            sampler.widen()
            order = cert.ordering
        vectors: list[IntVector] = [()] * g.n
        norms = [0] * g.n
        try:
            for i, v in enumerate(order):
                placed = order[:i]
                mask = adj[v]
                zero_rows = [vectors[u] for u in placed if not mask >> u & 1]
                neighbours = [(vectors[u], norms[u]) for u in placed if mask >> u & 1]
                vectors[v], norms[v] = _solve_vector(zero_rows, neighbours, d, sampler)
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

    Each vector is first divided by the gcd of its coordinates, which keeps
    every zero coordinate, every zero/nonzero inner product and every
    pairwise dependence, so a non-primitive vector such as (2, 4) verifies
    as its primitive part (1, 2) would.  The zero pattern and the
    dependences are read off the divided vectors' norms and one inner
    product per pair.  A zero vector is dependent on every nonzero vector
    before it and on nothing else; nonzero primitive u, v are dependent iff
    u.u = v.v = |u.v|, the equality case of Cauchy-Schwarz for equal norms.
    """
    if len(rep.vectors) != g.n:
        raise ValueError("representation size does not match the graph")
    vecs = tuple(map(primitive_part, rep.vectors))
    delta_bound = g.n - min_degree(g)
    dimension_ok = rep.dim == delta_bound and all(
        len(v) == rep.dim for v in vecs
    )
    nonzero_ok = all(all(vec) for vec in vecs)
    # ragged vectors make inner products meaningless; report the dimension
    # failure instead of comparing patterns
    comparable = len({len(v) for v in vecs}) == 1
    pattern_pair = dependent_pair = None
    if comparable:
        adj = g.adj
        norms = [sum(map(mul, v, v)) for v in vecs]
        for i, j in combinations(range(g.n), 2):
            uv = sum(map(mul, vecs[i], vecs[j]))
            if pattern_pair is None and (uv != 0) != adj[i] >> j & 1:
                pattern_pair = (i, j)
            uu, vv = norms[i], norms[j]
            if dependent_pair is None and uu and (not vv or uu == vv == abs(uv)):
                dependent_pair = (i, j)
    failed = [p for p in (pattern_pair, dependent_pair) if p is not None]
    pattern_ok = comparable and pattern_pair is None
    independent_ok = comparable and dependent_pair is None
    all_ok = pattern_ok and nonzero_ok and independent_ok and dimension_ok
    bound = delta_bound if all_ok else None
    return RepReport(
        pattern_ok, nonzero_ok, independent_ok, dimension_ok, bound, min(failed, default=None)
    )


# --- serialization ----------------------------------------------------------


# A coordinate or Gram entry is an integer, written as "p" by str() within
# the interpreter's int/str digit limit and past it through Decimal, whose
# conversions the limit does not bound.  It is read by int(), and past the
# limit by int() on chunks within it, joined by powers of ten in a balanced
# tree of products.  "p/1", as 0.13.0 and earlier wrote every integer, is
# read too; any other "p/q" text is refused, as no version of construct
# made a coordinate that is not an integer.  The strict pattern runs before
# any conversion, so no exponent such as "1e999999999" reaches one, nor any
# text that int() alone accepts ("1_000", " 12", non-ASCII digits).
_INT_TEXT = re.compile(r"(-?[0-9]+)(?:/1)?")


def fraction_to_str(x: int) -> str:
    """Decimal text "p" of an integer coordinate or Gram entry, at any length.

    Integers are the only values written or read; the name is kept from
    releases whose reader also took "p/q" text.
    """
    try:
        return str(x)
    except ValueError:  # past the interpreter's int/str digit limit
        from decimal import Decimal

        return str(Decimal(x))


def fraction_from_str(s: str) -> int:
    """Inverse of fraction_to_str: the int that "p" or legacy "p/1" text names.

    Integers are the only values read.  Raises ValueError, naming the text,
    on anything else, "p/q" text with q other than 1 included.
    """
    match = _INT_TEXT.fullmatch(s)
    if match is None:
        # a long "p/q" is named by both ends, so that its "/q" shows
        shown = s if len(s) <= 40 else f"{s[:20]}...{s[-17:]}"
        raise ValueError(f"not an integer p or p/1: {shown!r}")
    digits = match[1]
    try:
        return int(digits)
    except ValueError:  # past the interpreter's int/str digit limit
        magnitude = _int_from_long_digits(digits.lstrip("-"), sys.get_int_max_str_digits())
        return -magnitude if digits[0] == "-" else magnitude


def _int_from_long_digits(digits: str, width: int) -> int:
    """int of a run of decimal digits longer than width, in chunks of width digits.

    Pairs of neighbouring chunks are joined level by level, the scale
    10**width squared at each, so most of the work is the few products at
    the top, in Karatsuba multiplication, instead of int()'s quadratic
    reading of the whole run that the digit limit exists to stop.
    """
    # least significant chunk first; only the most significant may be short
    parts = [int(digits[max(end - width, 0):end]) for end in range(len(digits), 0, -width)]
    scale = 10**width
    while len(parts) > 1:
        if len(parts) % 2:
            parts.append(0)
        parts = [low + high * scale for low, high in zip(parts[::2], parts[1::2])]
        if len(parts) > 1:
            scale *= scale
    return parts[0]


def rep_to_json_dict(rep: OrthoRep) -> dict:
    return {
        "dim": rep.dim,
        "vectors": [[fraction_to_str(c) for c in vec] for vec in rep.vectors],
    }


def _rows(value, name: str) -> list:
    """value, a JSON list of lists; TypeError naming it otherwise.

    A string or a dict is iterable too, and would otherwise be read as its
    characters or its keys.
    """
    if type(value) is not list or any(type(row) is not list for row in value):
        raise TypeError(f"{name} must be a list of lists")
    return value


def rep_from_json_dict(d: dict) -> OrthoRep:
    if type(d["dim"]) is not int:
        raise TypeError("representation dim must be an integer")
    vectors = _rows(d["vectors"], "representation vectors")
    return OrthoRep(
        dim=d["dim"],
        vectors=tuple(tuple(fraction_from_str(s) for s in vec) for vec in vectors),
    )


def gram_to_json_dict(m: tuple[tuple[int, ...], ...]) -> dict:
    return {
        "n": len(m),
        "entries": [[fraction_to_str(x) for x in row] for row in m],
    }


def gram_mismatch(rep: OrthoRep, m: dict) -> tuple[int, int] | None:
    """First entry (i, j), in row-major order, of a Gram matrix that rep contradicts.

    m is a Gram matrix as gram_to_json_dict writes it; entry (i, j) must
    equal the inner product of rep's vectors i and j as they are written,
    with no rescaling.  Returns None when every entry does.  Vectors of
    different lengths have no inner product, so their entries never agree.
    Every entry is read before any is compared, so text that is not an
    integer raises ValueError wherever it stands.  Raises TypeError when
    m's n is not an integer or its entries are not a list of lists, as
    rep_from_json_dict does for dim and vectors, and ValueError when m is
    not n x n for rep's n vectors, as verify_rep does for a representation
    of the wrong size.
    """
    vecs = rep.vectors
    n = len(vecs)
    entries = _rows(m["entries"], "gram entries")
    if type(m["n"]) is not int:
        raise TypeError("gram n must be an integer")
    if m["n"] != n or len(entries) != n or any(len(row) != n for row in entries):
        raise ValueError(f"gram is not {n} x {n}")
    values = [[fraction_from_str(text) for text in row] for row in entries]
    for i, (row, u) in enumerate(zip(values, vecs)):
        for j, (entry, v) in enumerate(zip(row, vecs)):
            if len(u) != len(v) or entry != dot(u, v):
                return (i, j)
    return None
