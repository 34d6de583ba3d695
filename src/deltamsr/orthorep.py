"""Exact orthogonal representations for certified delta-graphs.

A representation of G holds one integer vector per vertex in dimension
d = max_degree(complement(G)) + 1, and its inner products are nonzero
exactly on edges.  The span of the vectors then witnesses
msr(G) <= d = |G| - min_degree(G).

Every vector is an integer vector, with no tolerances and no other number
type, and a primitive one has coprime entries: ``primitive_part`` divides
out the gcd, which changes no zero coordinate, no zero/nonzero inner
product and no linear (in)dependence.

Dependence is decided one way throughout, on inner products already taken.
Two nonzero primitive integer vectors u and v are dependent iff v = +-u,
that is iff u.u = v.v and |u.v| = u.u: the equality case of Cauchy-Schwarz
for equal norms, tested without multiplying big integers.  verify_rep
divides each vector by the gcd of its coordinates first, since a bundle
edited by hand may hold a vector such as (2, 4), and reads every check off
their norms and pairwise inner products.  Coordinates are integers
everywhere: construct builds nothing else, and a bundle is read back only
from integer text.

The records here are NamedTuples.  This module holds the bundle format
and what reading and verifying a bundle runs, and nothing more: the
records, ``dot``, ``primitive_part``, ``gram``, ``verify_rep``, the
serialization, ``bundle_to_json_dict`` (the bundle ``certify`` prints) and
``verify_bundle`` (the report ``verify`` prints).  A bundle's keys are
decided here alone.  The construction, with the sampler and recognition it
calls, lives in ``deltamsr.construction``, which ``verify`` never loads.
"""

import sys
from itertools import combinations
from math import gcd
from operator import mul
from typing import NamedTuple

from .graphs import Graph, min_degree, parse_graph6, to_graph6

__all__ = [
    "OrthoRep",
    "RepReport",
    "gram",
    "verify_rep",
    "fraction_to_str",
    "fraction_from_str",
    "rep_to_json_dict",
    "rep_from_json_dict",
    "gram_to_json_dict",
    "gram_mismatch",
    "bundle_to_json_dict",
    "verify_bundle",
    "dot",
    "primitive_part",
]

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
# made a coordinate that is not an integer.  The text must be -?[0-9]+,
# optionally followed by "/1", before any conversion, so no exponent such
# as "1e999999999" reaches one, nor any text that int() alone accepts
# ("+1", "1_000", " 12", non-ASCII digits).


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
    on anything else, "p/q" text with q other than 1 included, and TypeError
    when s is not a string.
    """
    if not isinstance(s, str):
        raise TypeError(f"integer text must be a string, not {type(s).__name__}")
    digits = s[:-2] if s.endswith("/1") else s
    magnitude = digits[1:] if digits.startswith("-") else digits
    if not (magnitude.isascii() and magnitude.isdigit()):
        # a long "p/q" is named by both ends, so that its "/q" shows
        shown = s if len(s) <= 40 else f"{s[:20]}...{s[-17:]}"
        raise ValueError(f"not an integer p or p/1: {shown!r}")
    try:
        return int(digits)
    except ValueError:  # past the interpreter's int/str digit limit
        value = _int_from_long_digits(magnitude, sys.get_int_max_str_digits())
        return -value if digits[0] == "-" else value


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


def _member(obj, key: str, name: str):
    """obj[key] of a JSON object, such as name; ValueError naming a missing key.

    TypeError when obj is not a JSON object, which a list or a string
    would otherwise answer with an error about its indices.
    """
    if type(obj) is not dict:
        raise TypeError(f"{name} is a JSON object")
    if key not in obj:
        raise ValueError(f"missing key {key!r}")
    return obj[key]


def rep_from_json_dict(d: dict) -> OrthoRep:
    dim = _member(d, "dim", "a representation")
    if type(dim) is not int:
        raise TypeError("representation dim must be an integer")
    vectors = _rows(_member(d, "vectors", "a representation"), "representation vectors")
    return OrthoRep(
        dim=dim,
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
    entries = _rows(_member(m, "entries", "a Gram matrix"), "gram entries")
    size = _member(m, "n", "a Gram matrix")
    if type(size) is not int:
        raise TypeError("gram n must be an integer")
    if size != n or len(entries) != n or any(len(row) != n for row in entries):
        raise ValueError(f"gram is not {n} x {n}")
    values = [[fraction_from_str(text) for text in row] for row in entries]
    for i, (row, u) in enumerate(zip(values, vecs)):
        for j, (entry, v) in enumerate(zip(row, vecs)):
            if len(u) != len(v) or entry != dot(u, v):
                return (i, j)
    return None


# --- bundles ----------------------------------------------------------------


# the keys, in a bundle and in verify's report, of the four check flags that
# lead a RepReport, in the order of its fields
_CHECKS = ("pattern", "nonzero", "independent", "dimension")


def bundle_to_json_dict(
    g: Graph, cert, rep: OrthoRep, report: RepReport, seed: int, gram=None
) -> dict:
    """The bundle that ``certify`` prints: g, its certificate, rep and rep's report.

    cert is a ``recognition.DeltaCertificate``, report is ``verify_rep(g,
    rep)`` and seed the construction seed.  gram, a Gram matrix as
    ``gram(rep)`` returns it, is bundled when it is given.
    """
    bundle = {
        "graph6": to_graph6(g),
        "n": g.n,
        "certificate": cert.to_json_dict(),
        "dim": rep.dim,
        "bound": report.bound,
        "delta_bound": g.n - min_degree(g),
        "seed": seed,
        "representation": rep_to_json_dict(rep),
        "checks": dict(zip(_CHECKS, report)),
    }
    if gram is not None:
        bundle["gram"] = gram_to_json_dict(gram)
    return bundle


def verify_bundle(data) -> dict:
    """The report that ``verify`` prints on a bundle read from JSON.

    Re-checks the bundle's representation against its graph with
    verify_rep, and its Gram matrix, if it has one, with gram_mismatch;
    nothing else in the bundle is read, so bundles that earlier versions
    wrote, with more keys in their certificate, verify alike.  The report
    holds ``bound`` (None unless every check passes) and ``checks``, plus
    ``failed_pair`` when a check of verify_rep fails and ``gram_entry``
    when a Gram entry differs.  Raises ValueError or TypeError, with a
    message that names what is wrong, on a bundle that cannot be read.
    """
    graph6 = _member(data, "graph6", "a bundle")
    if not isinstance(graph6, str):
        raise TypeError("graph6 must be a string")
    g = parse_graph6(graph6)
    rep = rep_from_json_dict(_member(data, "representation", "a bundle"))
    report = verify_rep(g, rep)
    result = {"bound": report.bound, "checks": dict(zip(_CHECKS, report))}
    if not report.all_ok:
        result["failed_pair"] = report.failed_pair
    if "gram" in data:
        gram_entry = gram_mismatch(rep, data["gram"])
        result["checks"]["gram"] = gram_entry is None
        if gram_entry:
            result["bound"] = None
            result["gram_entry"] = gram_entry
    return result
