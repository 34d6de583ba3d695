"""Tests of the benchmark's own oracle, checks and corpus.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q bench
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from itertools import permutations

import pytest

import checks
import corpus
from deltamsr import families
from deltamsr.cli import main as deltamsr_main


def permutation_scan(adj: list[int]) -> bool:
    """Delta membership by trying every vertex ordering."""
    n = len(adj)
    if n < 4 or not corpus.is_connected(adj) or not corpus.is_connected(corpus.complement(adj)):
        return False
    nonadj = corpus.complement(adj)
    for perm in permutations(range(n)):
        a, b, c = perm[:3]
        if corpus.has_edge(adj, a, b) + corpus.has_edge(adj, a, c) + corpus.has_edge(adj, b, c) > 1:
            continue
        placed = 1 << a | 1 << b | 1 << c
        for m in range(4, n + 1):
            v = perm[m - 1]
            if (nonadj[v] & placed).bit_count() > m // 2 - 1:
                break
            placed |= 1 << v
        else:
            return True
    return False


def cli(*argv: str, stdin: str = "") -> str:
    out = io.StringIO()
    old_stdin, sys.stdin = sys.stdin, io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out):
            assert deltamsr_main(list(argv)) == 0
    finally:
        sys.stdin = old_stdin
    return out.getvalue()


def atlas() -> list[list[int]]:
    return [corpus.from_graph6(line) for line in corpus.ATLAS_PATH.read_text().split()]


PRISM = corpus.complement(corpus.cycle(6))


@pytest.fixture()
def prism_bundle() -> dict:
    return json.loads(cli("certify", "--emit-gram", "--seed", "3", corpus.to_graph6(PRISM)))


def test_oracle_agrees_with_permutation_scan_on_atlas():
    graphs = [adj for adj in atlas() if len(adj) >= 4]
    verdicts = [checks.is_delta(adj) for adj in graphs]
    assert verdicts == [permutation_scan(adj) for adj in graphs]
    assert 0 < sum(verdicts) < len(graphs)


def test_oracle_on_family_complements():
    for m in corpus.certify_verify_corpus(0):
        if len(m.family) <= 12:
            assert checks.is_delta(m.delta_graph), m.name
    assert not checks.is_delta(corpus.cycle(5))  # self-complementary, not delta
    assert not checks.is_delta(corpus.complete(6))  # complement disconnected


def test_graph6_matches_the_atlas_file():
    lines = corpus.ATLAS_PATH.read_text().split()
    assert [corpus.to_graph6(corpus.from_graph6(line)) for line in lines] == lines
    assert len(corpus.atlas_corpus()) == 996


def test_family_builders_match_the_program():
    program = {
        "cycle": lambda n: families.cycle(int(n)),
        "mobius": lambda k: families.mobius_ladder(int(k)),
        "robertson": families.robertson_cage,
    }
    for m in corpus.certify_verify_corpus(0):
        kind, *args = m.gen_args
        if kind in program:
            assert corpus.to_graph6(m.family) == cli("gen", kind, *args).strip(), m.name
    assert corpus.robertson_is_cage(corpus.robertson())
    assert not corpus.robertson_is_cage(corpus.cycle(19))


def test_random_corpus_is_seeded_and_non_delta():
    a, b = corpus.random_corpus(1), corpus.random_corpus(1)
    assert a == b
    assert sorted(map(corpus.to_graph6, a)) == sorted(map(corpus.to_graph6, corpus.random_corpus(2)))
    assert sorted(len(adj) for adj in a) == sorted(corpus.RANDOM_SIZES * corpus.RANDOM_PER_SIZE)
    assert all(corpus.is_connected(adj) and not checks.is_delta(adj) for adj in a)


def test_program_bundle_passes(prism_bundle):
    assert checks.bundle_problems(PRISM, prism_bundle) == []
    assert checks.coordinate_digits(prism_bundle) > 0


def test_zero_coordinate_is_caught(prism_bundle):
    prism_bundle["representation"]["vectors"][2][0] = "0/1"
    assert "a coordinate is zero" in checks.bundle_problems(PRISM, prism_bundle)


def test_dependent_vectors_are_caught(prism_bundle):
    vecs = prism_bundle["representation"]["vectors"]
    vecs[4] = [f"{-2 * int(s.split('/')[0])}/1" for s in vecs[1]]
    problems = checks.bundle_problems(PRISM, prism_bundle)
    assert "vectors 1 and 4 are dependent" in problems


def test_edge_pattern_is_checked_against_own_adjacency(prism_bundle):
    other = list(PRISM)
    u, v = 0, next(w for w in range(6) if corpus.has_edge(PRISM, 0, w))
    other[u] &= ~(1 << v)
    other[v] &= ~(1 << u)
    problems = checks.bundle_problems(other, prism_bundle)
    assert f"inner product of {u} and {v} disagrees with the edge" in problems
    assert "bundle names another graph" in problems


def test_gram_entries_are_recomputed(prism_bundle):
    entry = checks.parse_fraction(prism_bundle["gram"]["entries"][0][1])
    prism_bundle["gram"]["entries"][0][1] = f"{entry.numerator + 1}/{entry.denominator}"
    assert "Gram entries differ from the inner products" in checks.bundle_problems(PRISM, prism_bundle)


def test_dimension_and_bound_must_be_n_minus_delta(prism_bundle):
    prism_bundle["bound"] = 4
    assert "bound is 4, not n - delta(G) = 3" in checks.bundle_problems(PRISM, prism_bundle)


def test_ordering_must_satisfy_the_delta_condition():
    path5 = corpus.path(5)
    # 0, 2, 4 induce 3K1; vertex 1 then misses 4 (allowed: 1); vertex 3 misses 0 and 1 (allowed: 1)
    assert checks.ordering_problems(path5, [0, 2, 4, 1, 3], "3K1") == [
        "vertex at position 5 has too many prior non-neighbours"
    ]
    assert checks.ordering_problems(path5, [0, 1, 3, 2, 4], "3K1") == [
        "first three vertices induce 1 edges, not 3K1"
    ]


def test_batch_lines_are_checked_against_the_oracle():
    graphs = [adj for adj in corpus.atlas_corpus() if len(adj) == 6][:40]
    lines = [corpus.to_graph6(adj) for adj in graphs]
    reports = [json.loads(r) for r in cli("batch", stdin="\n".join(lines)).splitlines()]
    for adj, g6, report in zip(graphs, lines, reports):
        delta = checks.is_delta(adj)
        assert checks.batch_line_problems(adj, g6, report, delta) == []
        flipped = checks.batch_line_problems(adj, g6, report, not delta)
        assert any("disagrees with the subset-DP oracle" in p for p in flipped)
        too_high = dict(report, certified_hi=report["delta_bound"] + 1)
        if report["verdict"] != "unresolved":
            assert checks.batch_line_problems(adj, g6, too_high, delta)


def test_int_digits_restores_the_limit():
    before = sys.get_int_max_str_digits()
    with checks.int_digits(checks.DEFAULT_INT_DIGITS):
        with pytest.raises(ValueError, match="Exceeds the limit"):
            int("7" * (checks.DEFAULT_INT_DIGITS + 1))
    assert sys.get_int_max_str_digits() == before
    assert checks.parse_fraction("7" * 5000 + "/1").numerator % 10 == 7
