import json
from fractions import Fraction

import pytest

from deltamsr import (
    GenericSampler,
    OrthoRep,
    complement,
    construct,
    gram,
    is_connected,
    rank,
    recognize_c_delta,
    recognize_delta,
    to_graph6,
    verify_rep,
)
from deltamsr.families import cartesian_product, complete, cycle, mobius_ladder, path
from deltamsr.linalg import dot, rank_bareiss
from deltamsr.orthorep import (
    GramMatrix,
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
    assert all(v != 0 for v in va)
    a.widen()
    assert a.magnitude == 2 * b.magnitude


def test_seed_triple_3k1():
    v1, v2, v3 = base_triple("3K1", 3, GenericSampler(seed=1))
    assert dot(v1, v2) == 0 and dot(v1, v3) == 0 and dot(v2, v3) == 0
    assert all(c != 0 for v in (v1, v2, v3) for c in v)
    # mutually orthogonal nonzero vectors span R^3
    rep = OrthoRep(3, (v1, v2, v3))
    assert rank(gram(rep)) == 3


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
    gm = gram(OrthoRep(3, basis))
    assert gm.entries == basis
    sg = gram(construct(PRISM, recognize_delta(PRISM), GenericSampler(seed=6)))
    for i in range(6):
        assert sg.entries[i][i] > 0
        for j in range(6):
            assert sg.entries[i][j] == sg.entries[j][i]
            if i != j:
                assert (sg.entries[i][j] != 0) == PRISM.has_edge(i, j)


def test_rank_examples():
    eye = GramMatrix(tuple(tuple(fr(int(i == j)) for j in range(3)) for i in range(3)))
    ones = GramMatrix(tuple(tuple(fr(1) for _ in range(4)) for _ in range(4)))
    assert rank(eye) == 3
    assert rank(ones) == 1


def test_two_rank_routes_agree():
    cert = recognize_delta(PRISM)
    rep = construct(PRISM, cert, GenericSampler(seed=1))
    gram_rank = rank(gram(rep))
    vector_rank = rank_bareiss([list(v) for v in rep.vectors])
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
            assert fraction_from_str(d["entries"][i][j]) == gm.entries[i][j]
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
        assert rank(gram(rep)) <= rep.dim


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
