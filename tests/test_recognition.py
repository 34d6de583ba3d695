import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltamsr import (
    DeltaCertificate,
    check_certificate,
    complement,
    from_edge_list,
    max_excluded,
    recognize_c_delta,
    recognize_delta,
    to_graph6,
    verify_certificate,
)
from deltamsr.families import complete, cycle, path, robertson_cage

import helpers
from helpers import brute_force_recognize

PRISM = complement(cycle(6))
P4 = path(4)

# Worked example: C6 labelled clockwise is a C-delta graph, first three
# vertices induce P3, later vertices see 1, 1 and 2 priors.
C6_CERT = DeltaCertificate((0, 1, 2, 3, 4, 5), "P3", (1, 1, 2))
PRISM_CERT = DeltaCertificate((0, 1, 2, 3, 4, 5), "K2+K1", (1, 1, 2))


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
    assert verify_certificate(cycle(6), C6_CERT)


def test_prism_certificate_from_complementing_c6():
    assert verify_certificate(PRISM, PRISM_CERT)


def test_k4_certificates_always_fail():
    for cert in (
        DeltaCertificate((0, 1, 2, 3), "K3", (1,)),
        DeltaCertificate((3, 2, 1, 0), "K3", (1,)),
    ):
        chk = check_certificate(complete(4), cert)
        assert not chk.ok
        assert chk.reason == "complement is disconnected"


def test_check_certificate_reports_first_violation():
    bad = DeltaCertificate((0, 1, 2, 3, 4, 5), "P3", (1, 2, 2))
    chk = check_certificate(cycle(6), bad)
    assert not chk.ok and chk.failed_at == 5


def test_check_certificate_rejects_non_permutation():
    with pytest.raises(ValueError):
        check_certificate(cycle(6), DeltaCertificate((0, 0, 2, 3, 4, 5), "P3", (1, 1, 2)))


def test_certificate_json_roundtrip():
    d = PRISM_CERT.to_json_dict()
    assert DeltaCertificate.from_json_dict(json.loads(json.dumps(d))) == PRISM_CERT


# --- recognition ----------------------------------------------------------------


def test_recognize_prism_is_delta():
    cert = recognize_delta(PRISM)
    assert cert is not None and not cert.is_complement_form
    assert verify_certificate(PRISM, cert)


def test_recognize_p4():
    cert = recognize_delta(P4)
    assert cert is not None
    # a valid order by hand: a,c,d,b in the path a-b-c-d
    assert verify_certificate(P4, DeltaCertificate((0, 2, 3, 1), "K2+K1", (1,)))


def test_recognize_c4_absent():
    assert recognize_delta(cycle(4)) is None  # complement 2K2 is disconnected


def test_recognize_c_delta_examples():
    assert recognize_c_delta(cycle(6)) is not None
    assert recognize_c_delta(robertson_cage()) is not None
    assert recognize_c_delta(complete(4)) is None


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
    from deltamsr import is_connected

    for g in helpers.atlas_graphs(min_n=4, max_n=6):
        if not (is_connected(g) and is_connected(complement(g))):
            continue
        fast = recognize_delta(g)
        slow = brute_force_recognize(g)
        assert (fast is None) == (slow is None), to_graph6(g)
        if fast is not None:
            assert verify_certificate(g, fast)
            assert verify_certificate(g, slow)


def test_c_delta_matches_delta_of_complement():
    for g in helpers.atlas_graphs(min_n=4, max_n=6):
        cd = recognize_c_delta(g)
        d = recognize_delta(complement(g))
        assert (cd is None) == (d is None)
        if cd is not None:
            assert verify_certificate(g, cd)


def test_strict_certificate_valid_in_relaxed_mode():
    # deltamsr 0.1.0 wrote a "mode" key; reading ignores it, writing drops it
    cert = recognize_delta(PRISM)
    assert "mode" not in cert.to_json_dict()
    for mode in ("strict", "relaxed"):
        old = dict(cert.to_json_dict(), mode=mode)
        loaded = DeltaCertificate.from_json_dict(json.loads(json.dumps(old)))
        assert loaded == cert
        assert verify_certificate(PRISM, loaded)


@given(graphs())
@settings(max_examples=60, deadline=None)
def test_recognized_certificates_verify(g):
    cert = recognize_delta(g)
    if cert is not None:
        assert verify_certificate(g, cert)
        assert g.n >= 4


@given(graphs(min_n=4, max_n=6))
@settings(max_examples=40, deadline=None)
def test_search_matches_oracle(g):
    assert (recognize_delta(g) is None) == (brute_force_recognize(g) is None)
