import itertools
import json
import math
import random
import sys
from dataclasses import dataclass
from fractions import Fraction

import pytest

from deltamsr import (
    DeltaCertificate,
    GenericSampler,
    OrthoRep,
    complement,
    construct,
    gram,
    is_connected,
    recognize_delta,
    to_graph6,
    verify_rep,
)
from deltamsr.families import cartesian_product, complete, cycle, mobius_ladder, path
from deltamsr.linalg import dot, primitive_int_vector, primitive_part
from deltamsr.orthorep import (
    MAX_RESAMPLES,
    MAX_RESTARTS,
    WIDEN_EVERY,
    RetryBudgetExceeded,
    _solve_vector,
    fraction_from_str,
    fraction_to_str,
    gram_mismatch,
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
    v1, n1 = _solve_vector([], [], d, sampler)
    v2, n2 = _solve_vector([v1], [], d, sampler)
    if kind == "K2+K1":
        v3, n3 = _solve_vector([v2], [(v1, n1)], d, sampler)
    else:
        v3, n3 = _solve_vector([v1, v2], [], d, sampler)
    assert [n1, n2, n3] == [dot(v, v) for v in (v1, v2, v3)]
    return v1, v2, v3


def test_sampler_draws_the_randint_stream():
    # each draw is random.Random(seed).randint(1, m), negated when the next
    # random() is below 0.5, at every window the widenings reach
    for seed in range(50):
        rng = random.Random(seed)
        sampler = GenericSampler(seed=seed)
        counting = CountingSampler(seed=seed)
        m = 16
        for k in range(500):
            if k and k % 50 == 0:
                sampler.widen()
                counting.widen()
                m *= 2
            value = rng.randint(1, m)
            if rng.random() < 0.5:
                value = -value
            assert sampler.nonzero() == counting.nonzero() == value, (seed, k)
        assert sampler.magnitude == counting.magnitude == m
        assert (counting.draws, counting.widenings) == (500, 9)
    # windows that are not powers of two, down to one
    for magnitude in (1, 2, 3, 10, 1000):
        rng = random.Random(magnitude)
        sampler = GenericSampler(seed=magnitude, magnitude=magnitude)
        for _ in range(200):
            value = rng.randint(1, magnitude)
            assert sampler.nonzero() == (-value if rng.random() < 0.5 else value)


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


@dataclass
class CountingSampler(GenericSampler):
    """A dataclass subclass with counters, as a tracing harness declares one."""

    draws: int = 0
    widenings: int = 0

    def nonzero(self):
        self.draws += 1
        return super().nonzero()

    def widen(self) -> None:
        self.widenings += 1
        super().widen()


def test_dataclass_subclass_of_the_sampler_takes_seed_and_draws_the_same():
    counting = CountingSampler(seed=11)
    assert counting.seed == 11 and counting.draws == 0
    plain = GenericSampler(seed=11)
    assert [counting.nonzero() for _ in range(20)] == [plain.nonzero() for _ in range(20)]
    assert counting.draws == 20
    cert = recognize_delta(PRISM)
    counting = CountingSampler(seed=3)
    rep = construct(PRISM, cert, counting)
    assert rep == construct(PRISM, cert, GenericSampler(seed=3))
    assert counting.draws >= PRISM.n


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
    v1, _ = _solve_vector([], [], 2, s)
    v2, _ = _solve_vector([v1], [], 2, s)
    with pytest.raises(ValueError):
        _solve_vector([v1, v2], [], 2, s)


def test_extend_all_adjacent():
    s = GenericSampler(seed=3)
    triple = base_triple("3K1", 3, s)
    v4, n4 = _solve_vector([], [(u, dot(u, u)) for u in triple], 3, s)
    assert n4 == dot(v4, v4)
    assert all(dot(v4, u) != 0 for u in triple)
    assert all(c != 0 for c in v4)


def test_extend_rejects_too_many_orthogonality_constraints():
    s = GenericSampler(seed=4)
    triple = base_triple("3K1", 3, s)
    with pytest.raises(ValueError):
        _solve_vector(list(triple), [], 3, s)


def test_extend_k2k1_case():
    s = GenericSampler(seed=5)
    triple = base_triple("K2+K1", 3, s)
    v4, _ = _solve_vector([triple[2]], [(u, dot(u, u)) for u in triple[:2]], 3, s)
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
    assert _solve_vector([], [((1, 2), 5)], 2, s) == ((3, 1), 10)


def test_extend_keeps_an_independent_vector_that_meets_one_equality():
    # x = (2, 1) has the norm of u = (1, 2), and x = (1, 1) has x.x = x.u
    # for u = (3, -1); neither is a multiple of its neighbour
    assert _solve_vector([], [((1, 2), 5)], 2, ScriptedSampler([2, 1])) == ((2, 1), 5)
    assert _solve_vector([], [((3, -1), 10)], 2, ScriptedSampler([1, 1])) == ((1, 1), 2)


def test_a_one_vector_step_draws_once():
    # the nullspace of (1, 1) is the line of (1, -1), which is the neighbour
    # itself: no draw can help, so the step gives up after one
    s = CountingSampler(seed=1)
    with pytest.raises(RetryBudgetExceeded, match="^no admissible vector after 1 resamples"):
        _solve_vector([(1, 1)], [((1, -1), 2)], 2, s)
    assert s.draws == 1 and s.widenings == 0
    # a two-vector basis (e2, e3) always leaves a zero coordinate: every draw
    # is made, two coefficients each, widening every WIDEN_EVERY draws
    s = CountingSampler(seed=1)
    with pytest.raises(RetryBudgetExceeded, match=f"^no admissible vector after {MAX_RESAMPLES} "):
        _solve_vector([(1, 0, 0)], [], 3, s)
    assert s.draws == 2 * MAX_RESAMPLES
    assert s.widenings == (MAX_RESAMPLES - 1) // WIDEN_EVERY


def test_exhausted_restarts_name_the_failing_step():
    # with every coefficient 1, v1 = (1, 1, 1, 1), v2 = (-3, 1, 1, 1), and v3,
    # a neighbour of v1 orthogonal to v2, is +-v1 on every draw of every restart
    g = complement(mobius_ladder(12))
    with pytest.raises(RetryBudgetExceeded) as failure:
        construct(g, recognize_delta(g), ScriptedSampler(itertools.repeat(1)))
    assert str(failure.value) == (
        f"no admissible vector after {MAX_RESAMPLES} resamples "
        "(dimension 4, 2 priors, 1 orthogonality constraints), "
        f"then {MAX_RESTARTS} widened restarts"
    )


def test_construct_matches_the_prior_list_oracle():
    # construct against the step-by-step oracle that solves each vertex
    # from the list of all its priors: the same vectors, draws and widenings
    cases = []
    for g in helpers.atlas_graphs(min_n=4):
        cert = recognize_delta(g)
        if cert is not None:
            cases += [(g, cert, seed, 16) for seed in range(5)]
    assert len(cases) == 5 * 218
    for family in helpers.certify_verify_families():
        g = complement(family)
        cases.append((g, recognize_delta(g), 0, 16))
    # a window of 2 makes steps redraw, widen and restart
    for n in range(32, 49):
        g = complement(cycle(n))
        cases.append((g, recognize_delta(g), 0, 2))
    restarts = widened_steps = 0
    for g, cert, seed, magnitude in cases:
        counting = CountingSampler(seed=seed, magnitude=magnitude)
        oracle = helpers.RandintSampler(seed=seed, magnitude=magnitude)
        vectors, restarted = helpers.construct_from_priors(g, cert, oracle)
        assert construct(g, cert, counting).vectors == vectors, (to_graph6(g), seed)
        assert (counting.draws, counting.widenings) == (oracle.draws, oracle.widenings)
        restarts += restarted
        widened_steps += counting.widenings > restarted
    assert restarts > 0 and widened_steps > 0


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
    # C6's clockwise order read in C6 itself: base P3, later vertices adjacent
    # to 1, 1 and 2 priors; construction takes only the delta form
    cert = DeltaCertificate((0, 1, 2, 3, 4, 5), "P3", (1, 1, 2))
    with pytest.raises(ValueError, match="unknown base kind 'P3'"):
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


@dataclass
class RestartCountingSampler(GenericSampler):
    """Counts the widenings that construct makes before starting over."""

    restarts: int = 0

    def widen(self) -> None:
        if sys._getframe(1).f_code.co_name == "construct":
            self.restarts += 1
        super().widen()


def test_construct_recovers_from_a_tiny_window_by_widening_and_restarting():
    # a window of 2 makes one-vector steps fail often on these long orderings
    # in dimension 3 and 4; construct widens and starts over until it succeeds
    cases = [(complement(cycle(n)), (0,)) for n in range(32, 81)]
    cases += [(complement(mobius_ladder(k)), range(4)) for k in (32, 48, 64, 80)]
    restarted = 0
    for g, seeds in cases:
        cert = recognize_delta(g)
        for seed in seeds:
            sampler = RestartCountingSampler(seed=seed, magnitude=2)
            rep = construct(g, cert, sampler)
            assert verify_rep(g, rep).all_ok, (to_graph6(g), seed)
            restarted += sampler.restarts > 0
    assert restarted > 0


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


def test_rep_from_json_dict_reads_ints_and_fractions():
    rep = rep_from_json_dict({"dim": 2, "vectors": [["3", "-12"], ["3/4", "-6/1"], ["0/5", "7"]]})
    assert rep == OrthoRep(2, ((3, -12), (Fraction(3, 4), -6), (Fraction(0), 7)))
    assert [[type(x) for x in vec] for vec in rep.vectors] == [
        [int, int], [Fraction, int], [Fraction, int]
    ]
    assert [fraction_to_str(x) for vec in rep.vectors for x in vec] == [
        "3", "-12", "3/4", "-6", "0", "7"
    ]


def test_gram_exports():
    gm = gram(construct(PRISM, recognize_delta(PRISM), GenericSampler(seed=7)))
    d = json.loads(json.dumps(gram_to_json_dict(gm)))
    assert d["n"] == 6
    for i in range(6):
        for j in range(6):
            assert fraction_from_str(d["entries"][i][j]) == gm[i][j]
            if i != j and not PRISM.has_edge(i, j):
                assert d["entries"][i][j] == "0"


def test_primitive_part_divides_out_the_gcd_alone():
    # integral vectors skip primitive_int_vector's scaling step and get the same answer
    rng = random.Random(18)
    cases = [(0, 0, 0), (6, -4, 10), (-3,), (2**70, -(2**71), 0)]
    cases += [
        tuple(rng.randint(-99, 99) * rng.choice((1, 6, 2**64)) for _ in range(rng.randint(1, 8)))
        for _ in range(300)
    ]
    for ints in cases:
        p = primitive_part(ints)
        g = math.gcd(*ints)
        assert p == primitive_int_vector(ints) == tuple(x // (g or 1) for x in ints)
        assert math.gcd(*p) == (1 if any(ints) else 0)
    assert primitive_int_vector((Fraction(1, 2), Fraction(-1, 3), 0)) == (3, -2, 0)


def test_gram_mismatch_compares_rescaled_vectors_exactly():
    rep = construct(PRISM, recognize_delta(PRISM), GenericSampler(seed=7))
    m = gram_to_json_dict(gram(rep))
    assert gram_mismatch(rep, m) is None
    # v0 / 2 and 3 v5 / 7 as Fractions: entries in row and column 0 halve,
    # those in row and column 5 scale by 3/7
    scaled = list(rep.vectors)
    scaled[0] = tuple(Fraction(x, 2) for x in scaled[0])
    scaled[5] = tuple(Fraction(3 * x, 7) for x in scaled[5])
    scaled = OrthoRep(rep.dim, tuple(scaled))
    assert gram_mismatch(scaled, m) == (0, 0)
    assert gram_mismatch(scaled, gram_to_json_dict(gram(scaled))) is None
    # a zero vector's row and column are all 0; v1 is orthogonal to v0 anyway
    zero = OrthoRep(rep.dim, rep.vectors[:1] + ((0, 0, 0),) + rep.vectors[2:])
    assert gram_mismatch(zero, gram_to_json_dict(gram(zero))) is None
    assert gram_mismatch(zero, m) == (1, 1)
    # a vector of another length has no inner product with the rest
    ragged = OrthoRep(rep.dim, rep.vectors[:2] + (rep.vectors[2][:2],) + rep.vectors[3:])
    assert gram_mismatch(ragged, m) == (0, 2)
    with pytest.raises(ValueError, match="gram is not 6 x 6"):
        gram_mismatch(rep, {"n": 5, "entries": m["entries"][:5]})


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


# construct's vectors, by vertex, as 0.13.0 builds them at seeds 0 and 1
PINNED_VECTORS = {
    ("PRISM", 0): [
        (13, -14, -16),
        (166, 65, 78),
        (-65, 1162, -830),
        (3154, 260, 117),
        (299, -7885, 9462),
        (-258628, -127790, -98319),
    ],
    ("PRISM", 1): [
        (5, -3, 16),
        (32, 16, -7),
        (-46, 1, -208),
        (-935, 46, 207),
        (299, 1870, 935),
        (32725, -109, -10247),
    ],
    ("ML12_COMPLEMENT", 0): [
        (13, -14, -16, 10),
        (380, 156, 91, -130),
        (-104, 38, 342, -19),
        (20235, 5543, 5653, 2080),
        (3, -11, -4, 11),
        (268, 39, 3, -33),
        (-425562, -4989148, -1935449, -9528295),
        (-260, 1045, -1140, -304),
        (-43605, -14856, -10241, 24630),
        (7, -16, -9, -1),
        (-526, -241, 29, -87),
        (86370, -274118, 578837, 430093),
    ],
    ("ML12_COMPLEMENT", 1): [
        (5, -3, 16, 16),
        (171, -35, 5, -65),
        (170, 57, 513, 456),
        (-11856, 51695, -9223, 8334),
        (4, -1, 1, 13),
        (-23, 4, 5, 7),
        (315837, 1448363, -130358, 303227),
        (625, -684, -1710, 1881),
        (36936, -273733, 65021, -52702),
        (7, 4, 8, -6),
        (-22, -55, 46, -1),
        (743, 6545, 8028, -7033),
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
