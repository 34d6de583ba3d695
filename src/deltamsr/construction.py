"""Construction of exact orthogonal representations for certified delta-graphs.

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

The coefficients come from ``GenericSampler``, a seeded source of nonzero
integers drawn uniformly from a window [-magnitude, -1] and [1, magnitude].
Each condition fails only on a proper subvariety, so by Schwartz-Zippel a
draw fails with probability at most the subvariety's degree over the
window's width, a bound that halves each time the window doubles.  The
window starts small, at 8 (3 bits a coefficient), which keeps every
vector, and so every later layer, short, and it grows only where a step
fails: a failed step is redrawn, up to MAX_RESAMPLES times with the window
doubled every WIDEN_EVERY draws, when its nullspace basis has two or more
vectors.  A basis of one vector is drawn once: x is then +-that vector,
every condition is sign-invariant, and no redraw can change the outcome.
Such a step can only be mended by different earlier vectors, so construct
doubles the window once more and starts over from the first vertex of the
certificate ordering, on the same sampler stream, up to MAX_RESTARTS
times before RetryBudgetExceeded escapes.
``construct_verified`` raises SelfCheckFailed when verify_rep rejects what
construct built.  Both classes are defined in the package, with
recognition's SearchBudgetExceeded, so a caller catches them without
loading this module; they are imported here from there.

The sampler is a plain class, so that the code paths that build a
representation start without importing ``dataclasses`` and, with it,
``inspect``.  A subclass may still declare counter fields of its own
(``@dataclass class Counting(GenericSampler)``) and take ``seed=`` and
``magnitude=``: the first subclass declared makes ``GenericSampler`` a
dataclass too, keeping its own ``__init__``, so that ``dataclasses`` finds
the two fields to inherit.  A process that never declares a subclass
never imports it.

Only the code paths that build a representation (``certify`` and a
``batch`` line that is a delta-graph) load this module, and with it
recognition; ``orthorep`` holds the records, the checks and the bundle
format that reading and verifying a bundle runs.
"""

import random
from heapq import heapify, heappop, heappush
from operator import mul

from . import RetryBudgetExceeded, SelfCheckFailed
from .graphs import Graph, min_degree
from .orthorep import IntVector, OrthoRep, RepReport, primitive_part, verify_rep
from .recognition import DeltaCertificate, check_certificate

__all__ = [
    "GenericSampler",
    "MAX_RESAMPLES",
    "MAX_RESTARTS",
    "WIDEN_EVERY",
    "RetryBudgetExceeded",
    "SelfCheckFailed",
    "construct",
    "construct_verified",
    "int_nullspace_basis",
]


# per-step redraw budget, and the restarts of a whole construction that
# follow a step out of draws; exhausting both signals a bug.  Nine restarts
# widen the sampler's start window of 8 to at most 4,096
MAX_RESAMPLES = 32
WIDEN_EVERY = 8
MAX_RESTARTS = 9


class GenericSampler:
    """Seeded source of nonzero integers from a growing magnitude window.

    nonzero() draws uniformly from [-magnitude, -1] and [1, magnitude], and
    widen() doubles magnitude.  A draw reads the stream of
    ``random.Random(seed)`` exactly as ``randint(1, magnitude)`` does, in
    one frame: getrandbits of magnitude's bit length, redrawn while it is
    not below magnitude, plus one; then one ``random()`` below 0.5 negates
    it.
    """

    # the fields a dataclass subclass inherits, with their defaults, which
    # __init__ takes too: the start window is set here alone
    seed: int = 0
    magnitude: int = 8

    def __init__(self, seed: int = seed, magnitude: int = magnitude) -> None:
        self.seed = seed
        self.magnitude = magnitude
        self.__post_init__()

    def __post_init__(self) -> None:
        self._rng = random.Random(self.seed)

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if "__dataclass_fields__" not in GenericSampler.__dict__:
            from dataclasses import dataclass

            # adds the field records only: the __init__ above is kept, and
            # eq and repr stay object's
            dataclass(GenericSampler, eq=False, repr=False)

    def nonzero(self) -> int:
        m = self.magnitude
        rng = self._rng
        k = m.bit_length()
        r = rng.getrandbits(k)
        while r >= m:
            r = rng.getrandbits(k)
        return -r - 1 if rng.random() < 0.5 else r + 1

    def widen(self) -> None:
        self.magnitude *= 2


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
    draws = 1 if len(basis) == 1 else MAX_RESAMPLES
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
    over the complement neighbours u placed before v; every p is a multiple
    of that base term, so neither the choice nor the greedy ordering depends
    on it or on the sampler's start window.  The greedy ordering
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
    chk = check_certificate(g, cert)
    if not chk.ok:
        at = "" if chk.failed_at is None else f" at position {chk.failed_at}"
        raise ValueError(f"invalid certificate: {chk.reason}{at}")
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
    rep = construct(g, cert, GenericSampler(seed=seed))
    report = verify_rep(g, rep)
    if not report.all_ok:
        raise SelfCheckFailed(report.failed_pair)
    return rep, report
