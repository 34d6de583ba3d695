import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltamsr import (
    DeltaCertificate,
    SearchBudgetExceeded,
    check_certificate,
    complement,
    from_edge_list,
    is_connected,
    max_excluded,
    parse_graph6,
    recognize_delta,
    to_graph6,
)
from deltamsr import recognition
from deltamsr.families import (
    cartesian_product,
    complete,
    cycle,
    mobius_ladder,
    path,
    robertson_cage,
)

import helpers
from helpers import brute_force_recognize

PRISM = complement(cycle(6))
P4 = path(4)

# Worked example: C6 labelled clockwise is a C-delta graph.  Its complement,
# the prism, takes the clockwise order: the first three vertices induce K2+K1
# there (P3 in C6), and later vertices miss 1, 1 and 2 priors (see them in C6).
C6_CERT = DeltaCertificate((0, 1, 2, 3, 4, 5), "K2+K1")
PRISM_CERT = DeltaCertificate((0, 1, 2, 3, 4, 5), "K2+K1")


@st.composite
def graphs(draw, min_n=4, max_n=7):
    n = draw(st.integers(min_n, max_n))
    nbits = n * (n - 1) // 2
    bits = draw(st.integers(0, 2**nbits - 1))
    edges = []
    k = 0
    for j in range(1, n):
        for i in range(j):
            if bits >> k & 1:
                edges.append((i, j))
            k += 1
    return from_edge_list(n, edges)


# --- bounds -------------------------------------------------------------------


@pytest.mark.parametrize("m,expected", [(4, 1), (6, 2), (7, 2)])
def test_max_excluded(m, expected):
    assert max_excluded(m) == expected


def test_max_excluded_rejects():
    with pytest.raises(ValueError):
        max_excluded(3)


def test_modes_coincide_for_all_positions():
    # the two readings of the bound that deltamsr 0.1.0 offered as modes:
    # floor(m/2) - 1, and for odd m the largest integer below floor((m-1)/2)
    for m in range(4, 40):
        relaxed = (m - 1) // 2 - 1 if m % 2 else m // 2 - 1
        assert max_excluded(m) == m // 2 - 1 == relaxed


# --- certificate verification --------------------------------------------------


def test_c6_clockwise_certificate():
    assert check_certificate(complement(cycle(6)), C6_CERT).ok
    assert [cycle(6).adj[u] >> v & 1 for u, v in ((0, 1), (0, 2), (1, 2))] == [1, 0, 1]


def test_prism_certificate_from_complementing_c6():
    assert check_certificate(PRISM, PRISM_CERT).ok


def test_k4_certificates_always_fail():
    for cert in (
        DeltaCertificate((0, 1, 2, 3), "3K1"),
        DeltaCertificate((3, 2, 1, 0), "3K1"),
    ):
        chk = check_certificate(complete(4), cert)
        assert not chk.ok
        assert chk.reason == "complement is disconnected"
        chk = check_certificate(complement(complete(4)), cert)
        assert not chk.ok
        assert chk.reason == "graph is disconnected"
    # the complement-form base kinds are gone: a C-delta graph is certified
    # by its complement's certificate
    with pytest.raises(ValueError, match="unknown base kind 'K3'"):
        check_certificate(complete(4), DeltaCertificate((0, 1, 2, 3), "K3"))


def test_check_certificate_reports_first_violation():
    # v4 = 4 misses none of its priors, v5 = 3 both of its non-neighbours 2
    # and 4, and v6 = 5 both of its own, 4 and 0: position 6 allows that, so
    # position 5 alone fails
    bad = DeltaCertificate((0, 1, 2, 4, 3, 5), "K2+K1")
    chk = check_certificate(PRISM, bad)
    assert not chk.ok and chk.failed_at == 5


@pytest.mark.parametrize(
    "g, cert, failed_at, reason",
    [
        (path(3), DeltaCertificate((0, 1, 2), "K2+K1"), None, "fewer than four vertices"),
        # 0, 2 and 4 induce a triangle in the prism
        (
            PRISM,
            DeltaCertificate((0, 2, 4, 1, 3, 5), "K2+K1"),
            None,
            "first three vertices do not induce K2+K1",
        ),
        # every later count is taken from the graph: (1, 2, 2) at positions
        # 4, 5 and 6, the first over its bound at 5
        (
            PRISM,
            DeltaCertificate((0, 1, 2, 4, 3, 5), "K2+K1"),
            5,
            "excluded-count exceeds the bound",
        ),
        # v5 = 4 misses priors 1 and 2 of C5, one more than floor(5/2) - 1
        (
            cycle(5),
            DeltaCertificate((0, 1, 3, 2, 4), "K2+K1"),
            5,
            "excluded-count exceeds the bound",
        ),
    ],
)
def test_check_certificate_names_each_rejection(g, cert, failed_at, reason):
    assert check_certificate(g, cert) == (False, failed_at, reason)


def test_check_certificate_rejects_non_permutation():
    with pytest.raises(ValueError, match="permutation"):
        check_certificate(PRISM, DeltaCertificate((0, 0, 2, 3, 4, 5), "K2+K1"))


def test_certificate_json_roundtrip():
    d = PRISM_CERT.to_json_dict()
    assert json.loads(json.dumps(d)) == {
        "ordering": [0, 1, 2, 3, 4, 5],
        "base_kind": "K2+K1",
    }


# --- recognition ----------------------------------------------------------------


def test_recognize_prism_is_delta():
    cert = recognize_delta(PRISM)
    assert cert is not None and cert.base_kind in ("3K1", "K2+K1")
    assert check_certificate(PRISM, cert).ok


def test_recognize_p4():
    cert = recognize_delta(P4)
    assert cert is not None
    # a valid order by hand: a,c,d,b in the path a-b-c-d
    assert check_certificate(P4, DeltaCertificate((0, 2, 3, 1), "K2+K1")).ok


def test_recognize_c4_absent():
    assert recognize_delta(cycle(4)) is None  # complement 2K2 is disconnected


def test_recognize_c_delta_examples():
    assert recognize_delta(complement(cycle(6))) is not None
    assert recognize_delta(complement(robertson_cage())) is not None
    assert recognize_delta(complement(complete(4))) is None


def test_small_graphs_are_never_delta():
    assert recognize_delta(complete(3)) is None
    assert brute_force_recognize(complete(3)) is None


def test_brute_force_examples():
    assert brute_force_recognize(P4) is not None
    assert brute_force_recognize(PRISM) is not None
    # C5 is self-complementary and connected; the oracle is the ground truth
    assert (brute_force_recognize(cycle(5)) is None) == (
        recognize_delta(cycle(5)) is None
    )


def test_brute_force_caps_vertex_count():
    with pytest.raises(ValueError):
        brute_force_recognize(path(10))


def test_recognize_agrees_with_oracle_small_atlas():
    for g in helpers.atlas_graphs(min_n=4, max_n=6):
        if not (is_connected(g) and is_connected(complement(g))):
            continue
        fast = recognize_delta(g)
        slow = brute_force_recognize(g)
        assert (fast is None) == (slow is None), to_graph6(g)
        if fast is not None:
            assert check_certificate(g, fast).ok
            assert check_certificate(g, slow).ok


def test_c_delta_matches_delta_of_complement():
    # the complement's certificate read in g: the base triple has 3 - e edges
    # where the complement's has e, and v_m is adjacent to at most
    # floor(m/2) - 1 of its priors
    for g in helpers.atlas_graphs(min_n=4, max_n=6):
        gbar = complement(g)
        cert = recognize_delta(gbar)
        if cert is None:
            continue
        assert check_certificate(gbar, cert).ok
        order = cert.ordering
        a, b, c = order[:3]
        base_edges = (g.adj[a] >> b & 1) + (g.adj[a] >> c & 1) + (g.adj[b] >> c & 1)
        assert base_edges == {"3K1": 3, "K2+K1": 2}[cert.base_kind]
        for m in range(4, g.n + 1):
            assert sum(g.adj[u] >> order[m - 1] & 1 for u in order[:m - 1]) <= max_excluded(m)


def test_strict_certificate_valid_in_relaxed_mode():
    # deltamsr 0.1.0 wrote a "mode" key; writing now drops it
    cert = recognize_delta(PRISM)
    assert "mode" not in cert.to_json_dict()


@given(graphs())
@settings(max_examples=60, deadline=None)
def test_recognized_certificates_verify(g):
    cert = recognize_delta(g)
    if cert is not None:
        assert check_certificate(g, cert).ok
        assert g.n >= 4


@given(graphs(min_n=4, max_n=6))
@settings(max_examples=40, deadline=None)
def test_search_matches_oracle(g):
    assert (recognize_delta(g) is None) == (brute_force_recognize(g) is None)


# --- search order, depth and budget ----------------------------------------------


@pytest.mark.parametrize(
    "g,ordering,base_kind",
    [
        (
            complement(cycle(12)),
            (0, 1, 2, 4, 6, 8, 10, 3, 5, 7, 9, 11),
            "K2+K1",
        ),
        (
            complement(mobius_ladder(16)),
            (0, 1, 2, 4, 6, 11, 13, 7, 9, 14, 3, 5, 8, 10, 12, 15),
            "K2+K1",
        ),
        (
            complement(cartesian_product(complete(4), path(4))),
            (0, 1, 2, 7, 4, 9, 11, 14, 12, 3, 5, 6, 8, 15, 10, 13),
            "K2+K1",
        ),
        (
            complement(robertson_cage()),
            (0, 1, 2, 4, 6, 10, 7, 14, 16, 8, 12, 17, 3, 5, 9, 11, 13, 15, 18),
            "K2+K1",
        ),
    ],
    ids=["C12", "ML16", "K4xP4", "Robertson"],
)
def test_recognize_pinned_orderings(g, ordering, base_kind):
    # the first ordering in (base triple, excluded-count, vertex) order
    cert = recognize_delta(g)
    assert cert.ordering == ordering and cert.base_kind == base_kind
    assert check_certificate(g, cert).ok


def test_recognize_deep_ordering():
    # one search level per vertex: far beyond the interpreter's recursion limit
    g = complement(cycle(1200))
    cert = recognize_delta(g)
    assert cert is not None and check_certificate(g, cert).ok


def test_recognize_budget_exceeded(monkeypatch):
    g = parse_graph6("Exe_")  # its search expands 4 vertex sets
    assert recognize_delta(g) is None
    monkeypatch.setattr(recognition, "SEARCH_BUDGET", 3)
    with pytest.raises(SearchBudgetExceeded) as info:
        recognize_delta(g)
    assert info.value.nodes == 3 and "3 expanded" in str(info.value)


def test_non_edge_count_rejects_before_any_expansion(monkeypatch):
    # every base triple leaves more non-edges than positions 4..n can take
    monkeypatch.setattr(recognition, "SEARCH_BUDGET", 0)
    assert recognize_delta(cycle(6)) is None
    assert recognize_delta(parse_graph6("MZd[`jK}F{h\\z@gt?")) is None  # connected G(14, 0.5)


def test_no_base_triple_is_tried_when_none_fits_the_non_edge_count(monkeypatch):
    # P_40 has 741 non-edges; a base triple holds at most 3 and positions
    # 4..40 take at most 361 more, so no triple can start an ordering
    g = path(40)
    room = sum(max_excluded(m) for m in range(4, g.n + 1))
    assert (complement(g).edge_count, room) == (741, 361)

    def no_triples(g):
        raise AssertionError("base triples were enumerated")

    monkeypatch.setattr(recognition, "_base_triples", no_triples)
    assert recognize_delta(g) is None


# delta-graphs in which vertex m misses exactly floor(m/2) - 1 of its priors;
# a search without the non-edge count runs out of its 1,000,000 sets on each
TIGHT_DELTA_GRAPHS = [
    "Wue}~rEufIJEHaYeesWP|rqMBcye^bHlmIkyLgfuRnXu[vm",
    "[IjTJPh|uZQOrZuYBi~E|Kl`to\\u^Bmjoqnn~fCNXoW|s~kMDqAHrPMF_|iTXl`v",
    "_LsKMssd`RhsNXCL]sO^}SAnUnnLadFUj`ToVLUj}nAqx@]ZcRsyMSb^qtDf]AlUW}DNrx^mrZh^UhMfXhjo",
]


@pytest.mark.parametrize("text", TIGHT_DELTA_GRAPHS, ids=["n24", "n28", "n32"])
def test_recognize_tight_delta_graphs(text):
    g = parse_graph6(text)
    room = sum(max_excluded(m) for m in range(4, g.n + 1))
    assert complement(g).edge_count >= 2 + room
    cert = recognize_delta(g)
    assert cert is not None and check_certificate(g, cert).ok


def test_search_returns_the_first_certificate_in_order():
    rng = random.Random(2026)
    samples = helpers.atlas_graphs(4, 7)
    for n in (8, 9, 10):
        samples += [helpers.random_delta_graph(n, rng) for _ in range(6)]
        count = 6
        while count:
            g = from_edge_list(
                n, [(i, j) for j in range(n) for i in range(j) if rng.random() < 0.5]
            )
            if is_connected(g) and is_connected(complement(g)):
                samples.append(g)
                count -= 1
    for g in samples:
        assert recognize_delta(g) == helpers.first_delta_certificate(g), to_graph6(g)


def test_recognize_random_delta_graphs():
    rng = random.Random(2016)
    for n in range(16, 41):
        g = helpers.random_delta_graph(n, rng)
        cert = recognize_delta(g)
        assert cert is not None and check_certificate(g, cert).ok, to_graph6(g)


def test_recognize_agrees_with_oracle_on_random_8_and_9():
    rng = random.Random(1003)
    samples = [helpers.random_delta_graph(n, rng) for n in (8, 8, 8, 9, 9, 9)]
    for n, count in ((8, 10), (9, 2)):
        while count:
            g = from_edge_list(
                n, [(i, j) for j in range(n) for i in range(j) if rng.random() < 0.5]
            )
            if is_connected(g) and is_connected(complement(g)):
                samples.append(g)
                count -= 1
    for g in samples:
        fast = recognize_delta(g)
        assert (fast is None) == (brute_force_recognize(g) is None), to_graph6(g)
        if fast is not None:
            assert check_certificate(g, fast).ok
