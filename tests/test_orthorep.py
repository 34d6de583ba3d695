import json
import random
from fractions import Fraction

import pytest

from deltamsr import (
    GenericSampler,
    OrthoRep,
    complement,
    construct,
    gram,
    is_connected,
    recognize_c_delta,
    recognize_delta,
    to_graph6,
    verify_rep,
)
from deltamsr.families import cartesian_product, complete, cycle, mobius_ladder, path
from deltamsr.linalg import dot
from deltamsr.orthorep import (
    _solve_vector,
    fraction_from_str,
    gram_to_json_dict,
    rep_from_json_dict,
    rep_to_json_dict,
)

import helpers

PRISM = complement(cycle(6))


def fr(x):
    return Fraction(x)


def base_triple(kind, d, sampler):
    """The first three vectors as construct solves them for a base of this kind.

    A K2+K1 base is ordered (end, lone vertex, end), so v1 ~ v3.
    """
    v1 = _solve_vector([], d, sampler)
    v2 = _solve_vector([(v1, False)], d, sampler)
    v3 = _solve_vector([(v1, kind == "K2+K1"), (v2, False)], d, sampler)
    return v1, v2, v3


def test_sampler_is_deterministic_and_nonzero():
    a = GenericSampler(seed=11)
    b = GenericSampler(seed=11)
    va = [a.nonzero() for _ in range(50)]
    vb = [b.nonzero() for _ in range(50)]
    assert va == vb
    assert all(type(v) is int for v in va)
    assert all(v != 0 for v in va)
    a.widen()
    assert a.magnitude == 2 * b.magnitude


def test_seed_triple_3k1():
    v1, v2, v3 = base_triple("3K1", 3, GenericSampler(seed=1))
    assert dot(v1, v2) == 0 and dot(v1, v3) == 0 and dot(v2, v3) == 0
    assert all(c != 0 for v in (v1, v2, v3) for c in v)
    # mutually orthogonal nonzero vectors span R^3
    rep = OrthoRep(3, (v1, v2, v3))
    assert helpers.rank(gram(rep)) == 3


def test_seed_triple_k2k1_pattern():
    v1, v2, v3 = base_triple("K2+K1", 3, GenericSampler(seed=2))
    assert dot(v1, v2) == 0 and dot(v2, v3) == 0
    assert dot(v1, v3) != 0
    assert all(c != 0 for v in (v1, v2, v3) for c in v)


def test_seed_triple_rejects():
    # a 3K1 base needs three mutually orthogonal vectors, impossible in d = 2
    s = GenericSampler()
    v1 = _solve_vector([], 2, s)
    v2 = _solve_vector([(v1, False)], 2, s)
    with pytest.raises(ValueError):
        _solve_vector([(v1, False), (v2, False)], 2, s)


def test_extend_all_adjacent():
    s = GenericSampler(seed=3)
    triple = base_triple("3K1", 3, s)
    v4 = _solve_vector([(u, True) for u in triple], 3, s)
    assert all(dot(v4, u) != 0 for u in triple)
    assert all(c != 0 for c in v4)


def test_extend_rejects_too_many_orthogonality_constraints():
    s = GenericSampler(seed=4)
    triple = base_triple("3K1", 3, s)
    with pytest.raises(ValueError):
        _solve_vector([(u, False) for u in triple], 3, s)


def test_extend_k2k1_case():
    s = GenericSampler(seed=5)
    triple = base_triple("K2+K1", 3, s)
    v4 = _solve_vector(list(zip(triple, [True, True, False])), 3, s)
    assert dot(v4, triple[0]) != 0
    assert dot(v4, triple[1]) != 0
    assert dot(v4, triple[2]) == 0


class ScriptedSampler(GenericSampler):
    """Sampler that hands out a fixed sequence of coefficients."""

    def __init__(self, values):
        super().__init__()
        self.values = iter(values)

    def nonzero(self):
        return next(self.values)


def test_extend_redraws_a_multiple_of_a_neighbour():
    # with no zero rows the basis is e1, e2, so x is the drawn pair itself:
    # 2u and -u are dependent on the neighbour u = (1, 2), (3, 1) is not
    s = ScriptedSampler([2, 4, -1, -2, 3, 1])
    assert _solve_vector([((1, 2), True)], 2, s) == (3, 1)


def test_construct_prism():
    cert = recognize_delta(PRISM)
    rep = construct(PRISM, cert, GenericSampler(seed=0))
    assert rep.dim == 3
    report = verify_rep(PRISM, rep)
    assert report.all_ok and report.bound == 3


def test_construct_complement_of_c8():
    g = complement(cycle(8))
    cert = recognize_delta(g)
    assert cert is not None
    rep = construct(g, cert, GenericSampler(seed=0))
    assert rep.dim == 3  # max degree of C8 is 2
    assert verify_rep(g, rep).all_ok


def test_construct_p4():
    cert = recognize_delta(path(4))
    rep = construct(path(4), cert, GenericSampler(seed=0))
    assert rep.dim == 3
    report = verify_rep(path(4), rep)
    assert report.all_ok and report.bound == 3  # msr(P4) = 3 exactly


def test_construct_rejects_complement_form_certificate():
    cert = recognize_c_delta(cycle(6))
    with pytest.raises(ValueError):
        construct(cycle(6), cert, GenericSampler())


def test_construct_rejects_invalid_certificate():
    cert = recognize_delta(PRISM)
    with pytest.raises(ValueError):
        construct(cycle(6), cert, GenericSampler())


def test_construct_is_deterministic_per_seed():
    cert = recognize_delta(PRISM)
    r1 = construct(PRISM, cert, GenericSampler(seed=9))
    r2 = construct(PRISM, cert, GenericSampler(seed=9))
    r3 = construct(PRISM, cert, GenericSampler(seed=10))
    assert r1 == r2
    assert r1 != r3  # different seed, different generic vectors


def test_gram_identity_and_diagonal():
    basis = tuple(
        tuple(Fraction(int(i == j)) for j in range(3)) for i in range(3)
    )
    assert gram(OrthoRep(3, basis)) == basis
    sg = gram(construct(PRISM, recognize_delta(PRISM), GenericSampler(seed=6)))
    for i in range(6):
        assert sg[i][i] > 0
        for j in range(6):
            assert sg[i][j] == sg[j][i]
            if i != j:
                assert (sg[i][j] != 0) == PRISM.has_edge(i, j)


def test_gram_matches_all_pairs_reference():
    for g in (PRISM, complement(mobius_ladder(12))):
        rep = construct(g, recognize_delta(g), GenericSampler(seed=0))
        reference = tuple(
            tuple(sum(a * b for a, b in zip(u, v)) for v in rep.vectors) for u in rep.vectors
        )
        assert gram(rep) == reference


def test_rank_examples():
    eye = tuple(tuple(fr(int(i == j)) for j in range(3)) for i in range(3))
    ones = tuple(tuple(fr(1) for _ in range(4)) for _ in range(4))
    assert helpers.rank(eye) == 3
    assert helpers.rank(ones) == 1


def test_two_rank_routes_agree():
    cert = recognize_delta(PRISM)
    rep = construct(PRISM, cert, GenericSampler(seed=1))
    gram_rank = helpers.rank(gram(rep))
    vector_rank = helpers.rank(rep.vectors)
    assert gram_rank == vector_rank <= rep.dim


def test_verify_rep_detects_zeroed_coordinate():
    cert = recognize_delta(PRISM)
    rep = construct(PRISM, cert, GenericSampler(seed=2))
    vecs = list(rep.vectors)
    vecs[0] = (fr(0),) + vecs[0][1:]
    assert not verify_rep(PRISM, OrthoRep(rep.dim, tuple(vecs))).nonzero_ok


def test_verify_rep_detects_dependence():
    cert = recognize_delta(PRISM)
    rep = construct(PRISM, cert, GenericSampler(seed=2))
    vecs = list(rep.vectors)
    vecs[1] = tuple(2 * c for c in vecs[0])
    assert not verify_rep(PRISM, OrthoRep(rep.dim, tuple(vecs))).independent_ok


def test_verify_rep_rejects_size_mismatch():
    cert = recognize_delta(PRISM)
    rep = construct(PRISM, cert, GenericSampler(seed=2))
    with pytest.raises(ValueError):
        verify_rep(cycle(4), rep)


def test_verify_rep_handles_ragged_vectors():
    cert = recognize_delta(PRISM)
    rep = construct(PRISM, cert, GenericSampler(seed=2))
    vecs = list(rep.vectors)
    vecs[3] = vecs[3][:2]
    report = verify_rep(PRISM, OrthoRep(rep.dim, tuple(vecs)))
    assert not report.dimension_ok and not report.all_ok


def test_construct_handles_noncanonical_base_arrangement():
    # base triple listed with the adjacent pair in positions 2 and 3
    from deltamsr import DeltaCertificate

    cert = DeltaCertificate((0, 2, 3, 1), "K2+K1", (1,))
    rep = construct(path(4), cert, GenericSampler(seed=0))
    assert verify_rep(path(4), rep).all_ok


def test_zero_pattern_is_exact():
    cert = recognize_delta(PRISM)
    rep = construct(PRISM, cert, GenericSampler(seed=3))
    for i in range(6):
        for j in range(i + 1, 6):
            value = dot(rep.vectors[i], rep.vectors[j])
            if PRISM.has_edge(i, j):
                assert value != 0
            else:
                assert value == 0


def test_relabelling_permutes_the_gram_pattern():
    from deltamsr import from_edge_list

    cert = recognize_delta(PRISM)
    rep = construct(PRISM, cert, GenericSampler(seed=4))
    perm = [2, 0, 1, 5, 3, 4]  # relabel vertices, reorder vectors the same way
    relabelled = from_edge_list(
        6, [(perm.index(u), perm.index(v)) for u, v in PRISM.edges()]
    )
    shuffled = OrthoRep(rep.dim, tuple(rep.vectors[perm[i]] for i in range(6)))
    assert verify_rep(relabelled, shuffled).pattern_ok


def test_rep_json_roundtrip():
    cert = recognize_delta(PRISM)
    rep = construct(PRISM, cert, GenericSampler(seed=5))
    payload = json.dumps(rep_to_json_dict(rep))
    assert rep_from_json_dict(json.loads(payload)) == rep


def test_gram_exports():
    gm = gram(construct(PRISM, recognize_delta(PRISM), GenericSampler(seed=7)))
    d = json.loads(json.dumps(gram_to_json_dict(gm)))
    assert d["n"] == 6
    for i in range(6):
        for j in range(6):
            assert fraction_from_str(d["entries"][i][j]) == gm[i][j]
            if i != j and not PRISM.has_edge(i, j):
                assert d["entries"][i][j] == "0/1"


def test_construction_holds_for_all_small_delta_graphs():
    for g in helpers.atlas_graphs(min_n=4, max_n=6):
        if not (is_connected(g) and is_connected(complement(g))):
            continue
        cert = recognize_delta(g)
        if cert is None:
            continue
        rep = construct(g, cert, GenericSampler(seed=0))
        report = verify_rep(g, rep)
        assert report.all_ok, to_graph6(g)
        assert helpers.rank(gram(rep)) <= rep.dim


def test_coordinates_stay_small_on_long_orderings():
    # coordinate size depends on d, not on n: the complements of ML24 (n = 24,
    # d = 4) and K4 x P4 (n = 16, d = 6) stayed within 337 bits over 20 seeds
    for g in (complement(mobius_ladder(24)), complement(cartesian_product(complete(4), path(4)))):
        cert = recognize_delta(g)
        for seed in range(5):
            rep = construct(g, cert, GenericSampler(seed=seed))
            assert verify_rep(g, rep).all_ok
            for vec in rep.vectors:
                for x in vec:
                    assert abs(x.numerator).bit_length() <= 1024
                    assert x.denominator.bit_length() <= 1024


# construct's vectors, by vertex, as 0.3.0 built them at seeds 0 and 1
PINNED_VECTORS = {
    ("PRISM", 0): [
        (6312, -6891, -8377),
        (60563949, 10456880, 37032504),
        (19580194304, 216758373471, -93228105494),
        (-145491825847499, 30427621948416, 40188348808960),
        (330924462537920768, 634780836172638137, 717420193254017569),
        (-186908256452377302835, 3650255241249760584532, -3143568554635251966516),
    ],
    ("PRISM", 1): [
        (1101, -517, 4059),
        (4327433, 4259769, -631240),
        (-2004174155, 670752115, -9213104857),
        (-109540311529, 38226755, 23831651260),
        (40061327964995, 410666627922221, 183480021811075),
        (80079773364210037, 1791026082003585, -21493439268193988),
    ],
    ("ML12_COMPLEMENT", 0): [
        (6312, -6891, -8377, 4970),
        (6866689, 1543021, 2823831, -1821801),
        (1907354637, 10670834706, 28187758345, 59918728214),
        (-3212831533473032448, -4540621065036191050, 3606111732911011974, -785530359613255011),
        (9862, -5082, 1209, -5410),
        (-28438187, -42120602, 88659380, 7539499),
        (
            -3375095812184504391817,
            -488651920721229259900,
            -1418340226394989529662,
            1218283361027721046519,
        ),
        (-20082506683, 44873812615, 130467091, -37485255251),
        (2142392409733517119, 941186230341728563, -453114158976366807, -22651888867657719),
        (-1650, 5181, 3351, -7816),
        (-76336280625, -106627076788, 75866702846, -22038216552),
        (
            -63018329566076719358466,
            17041706727690389135215,
            -18308553156247062790021,
            72803892855474663808732,
        ),
    ],
    ("ML12_COMPLEMENT", 1): [
        (1101, -517, 4059, 3869),
        (22303678, -3787440, 170655, -7032087),
        (25684835943, 390314365, 97333250792, 83616488822),
        (-12398136665936343551, -12729420946885491131, 605987822613765003, 3162412355829902056),
        (1675, -502, -8871, 6246),
        (14182281, 1267305, 2522885, -118255),
        (
            -259842522272294699455,
            -2047316921114760335808,
            2363525390403599762820,
            -2679226102569849073869,
        ),
        (-16610097774, 101671316163, -36555728242, -108328964046),
        (19351620452575678046, 4297405200654298364, -8505386290473706233, 3936261447864900959),
        (6916, -8645, 7175, -9059),
        (-417890176343, -421859510393, 8572509699, 90336103858),
        (
            1889636030576378791350,
            99110432792902858433,
            -10195509290354026015303,
            10171704066589901608852,
        ),
    ],
}


def test_construct_pinned_vectors():
    graphs = {"PRISM": PRISM, "ML12_COMPLEMENT": complement(mobius_ladder(12))}
    for (name, seed), expected in PINNED_VECTORS.items():
        g = graphs[name]
        rep = construct(g, recognize_delta(g), GenericSampler(seed=seed))
        assert [list(v) for v in rep.vectors] == [list(v) for v in expected], (name, seed)
        assert all(type(x) is int for v in rep.vectors for x in v)


def tampered_prism_reps():
    """A valid prism representation and four broken ones, by name."""
    vecs = list(construct(PRISM, recognize_delta(PRISM), GenericSampler(seed=2)).vectors)
    zeroed, dependent, zero_last, zero_first, ragged = (list(vecs) for _ in range(5))
    zeroed[1] = (0,) + zeroed[1][1:]
    dependent[4] = tuple(-3 * c for c in vecs[2])
    zero_last[4] = (0, 0, 0)
    zero_first[0] = (0, 0, 0)
    ragged[3] = ragged[3][:2]
    return {
        "valid": vecs,
        "zeroed": zeroed,
        "dependent": dependent,
        "zero_last": zero_last,
        "zero_first": zero_first,
        "ragged": ragged,
    }


def test_verify_rep_first_failing_pair():
    # prism = complement of C6: i ~ j unless j = i +- 1 (mod 6)
    reports = {
        name: verify_rep(PRISM, OrthoRep(3, tuple(vecs)))
        for name, vecs in tampered_prism_reps().items()
    }
    assert reports["valid"].all_ok and reports["valid"].failed_pair is None
    # v1 . v0 is no longer 0
    assert reports["zeroed"].failed_pair == (0, 1)
    # v4 = -3 v2 is dependent on v2 at (2, 4), but v4 . v1 = 0 on the edge
    # 1 ~ 4 comes first in row-major order
    dep = reports["dependent"]
    assert not dep.pattern_ok and not dep.independent_ok and dep.failed_pair == (1, 4)
    # a zero vector after a nonzero one is dependent on the first of them
    last = reports["zero_last"]
    assert not last.independent_ok and not last.nonzero_ok and last.failed_pair == (0, 4)
    # a zero vector in first place is dependent on nothing, but is
    # orthogonal to its neighbour 2
    first = reports["zero_first"]
    assert first.independent_ok and not first.pattern_ok and first.failed_pair == (0, 2)
    ragged = reports["ragged"]
    assert not ragged.dimension_ok and not ragged.pattern_ok and ragged.failed_pair is None


def test_verify_rep_ignores_rational_scaling():
    for name, vecs in tampered_prism_reps().items():
        scaled = tuple(
            tuple(Fraction(c, k + 2) for c in vec) for k, vec in enumerate(vecs)
        )
        for dim in (3, 4):
            expected = verify_rep(PRISM, OrthoRep(dim, tuple(vecs)))
            assert verify_rep(PRISM, OrthoRep(dim, scaled)) == expected, (name, dim)


def tamper(vecs, rng):
    """vecs broken by one to three seeded tamperings, applied in turn."""
    vecs = [list(vec) for vec in vecs]
    n, d = len(vecs), len(vecs[0])
    for _ in range(rng.randint(1, 3)):
        a, b = rng.sample(range(n), 2)
        kind = rng.choice(("zero", "multiple", "coordinate", "swap", "small", "rescale", "ragged"))
        if kind == "zero":
            for k in rng.sample(range(n), rng.randint(1, 2)):
                vecs[k] = [0] * len(vecs[k])
        elif kind == "multiple":
            k = rng.choice((-3, -2, -1, 1, 2, 3))
            vecs[a] = [k * x for x in vecs[b]]
        elif kind == "coordinate":
            vecs[a][rng.randrange(len(vecs[a]))] = 0
        elif kind == "swap":
            vecs[a], vecs[b] = vecs[b], vecs[a]
        elif kind == "small":
            for k in rng.sample(range(n), rng.randint(1, n)):
                vecs[k] = [rng.randint(-1, 1) for _ in range(d)]
        elif kind == "rescale":
            vecs = [
                [x * Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9)) for x in vec]
                for vec in vecs
            ]
        else:
            vecs[a] = vecs[a][:-1] if rng.random() < 0.5 else vecs[a] + [1]
    return vecs


def test_verify_rep_agrees_with_oracle_on_tampered_reps():
    rng = random.Random(9)
    failures = set()
    for g in (PRISM, complement(mobius_ladder(12))):
        vecs = construct(g, recognize_delta(g), GenericSampler(seed=2)).vectors
        d = len(vecs[0])
        for trial in range(300):
            broken = vecs if trial == 0 else tamper(vecs, rng)
            for dim in (d, d + 1):
                report = verify_rep(g, OrthoRep(dim, tuple(map(tuple, broken))))
                got = (
                    report.pattern_ok,
                    report.nonzero_ok,
                    report.independent_ok,
                    report.dimension_ok,
                    report.failed_pair,
                )
                assert got == helpers.rep_checks(g, dim, broken), (trial, dim, broken)
                failures.update(i for i, ok in enumerate(got[:4]) if not ok)
    # every check was seen to fail
    assert failures == {0, 1, 2, 3}
