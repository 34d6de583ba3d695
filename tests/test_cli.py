import contextlib
import copy
import functools
import gc
import io
import json
import os
import re
import selectors
import signal
import subprocess
import sys
import types
from fractions import Fraction
from operator import mul
from pathlib import Path

import pytest

import helpers
import deltamsr.batch
import deltamsr.cli
import deltamsr.construction
import deltamsr.msr
from deltamsr import (
    GenericSampler,
    OrthoRep,
    complement,
    construct,
    families,
    from_edge_list,
    gram,
    graphs,
    parse_graph6,
    recognition,
    recognize_delta,
    to_graph6,
)
from deltamsr.cli import main
from deltamsr.msr import check_delta_conjecture
from deltamsr.orthorep import gram_to_json_dict, rep_from_json_dict, rep_to_json_dict
from deltamsr.families import complete, cycle, path
from helpers import subprocess_env

C6 = to_graph6(cycle(6))
K4 = to_graph6(complete(4))
P4 = to_graph6(path(4))
PRISM = to_graph6(complement(cycle(6)))
# a delta-graph on 24 vertices in which vertex m misses exactly
# floor(m/2) - 1 of its priors; its search expands 379 vertex sets
TIGHT24 = "Wue}~rEufIJEHaYeesWP|rqMBcye^bHlmIkyLgfuRnXu[vm"


def run_cli(argv, stdin_text=""):
    out = io.StringIO()
    old_stdout, old_stdin = sys.stdout, sys.stdin
    sys.stdout, sys.stdin = out, io.StringIO(stdin_text)
    try:
        code = main(argv)
    finally:
        sys.stdout, sys.stdin = old_stdout, old_stdin
    return code, out.getvalue()


# --- recognize ----------------------------------------------------------------


def test_recognize_c6_c_delta():
    code, out = run_cli(["recognize", "--c-delta", C6])
    assert code == 0
    cert = json.loads(out)
    assert cert["base_kind"] in ("K3", "P3")
    assert sorted(cert["ordering"]) == list(range(6))


def test_recognize_c_delta_prints_the_complement_certificate_as_g_induces_it():
    kinds = set()
    for g in helpers.atlas_graphs(min_n=4, max_n=7):
        line = to_graph6(g)
        code, out = run_cli(["recognize", "--c-delta", line])
        code_bar, out_bar = run_cli(["recognize", to_graph6(complement(g))])
        assert code == code_bar, line
        if code != 0:
            assert out == out_bar, line
            continue
        cert, expected = json.loads(out), json.loads(out_bar)
        expected["base_kind"] = {"3K1": "K3", "K2+K1": "P3"}[expected["base_kind"]]
        assert cert == expected, line
        kinds.add(cert["base_kind"])
    assert kinds == {"K3", "P3"}


def test_recognize_k4_absent():
    code, out = run_cli(["recognize", K4])
    assert code == 1 and out.strip() == "absent"


def test_recognize_malformed_input():
    code, _ = run_cli(["recognize", "not-a-graph\x01"])
    assert code == 2


def test_recognize_reads_stdin():
    code, out = run_cli(["recognize", "--c-delta"], stdin_text=C6 + "\n")
    assert code == 0


def test_recognize_reads_a_graph6_file(tmp_path):
    path = tmp_path / "c6.g6"
    path.write_text(C6 + "\n")
    assert run_cli(["recognize", "--c-delta", str(path)]) == run_cli(["recognize", "--c-delta", C6])


def test_search_budget_exit_code(monkeypatch, capsys):
    monkeypatch.setattr(recognition, "SEARCH_BUDGET", 100)
    tight_complement = to_graph6(complement(parse_graph6(TIGHT24)))
    for argv in (
        ["recognize", TIGHT24],
        ["certify", TIGHT24],
        ["recognize", "--c-delta", tight_complement],
    ):
        assert main(argv) == 4
        err = json.loads(capsys.readouterr().err)
        assert "after 100 expanded vertex sets" in err["error"]


def test_recognize_edgelist_vertex_cap(capsys):
    # an edge list is told from graph6 by its first character, a digit
    assert main(["recognize", f"{10**18}\n0 1\n"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "exceeds the input cap of 65536" in json.loads(captured.err)["error"]


def test_recognize_edgelist_format(tmp_path):
    # no flag names the format: an edge list literal, file or stdin reads as
    # its graph6 does, leading blank lines and spaces included
    text = "6\n0 1\n1 2\n2 3\n3 4\n4 5\n5 0\n"
    path = tmp_path / "c6.txt"
    path.write_text(text)
    expected = run_cli(["recognize", "--c-delta", C6])
    assert expected[0] == 0
    for argv, stdin_text in (
        ([text], ""),
        ([f"\n  {text}"], ""),
        ([str(path)], ""),
        ([], text),
        (["-"], text),
    ):
        assert run_cli(["recognize", "--c-delta", *argv], stdin_text) == expected, argv
    assert run_cli(["certify", "--seed", "3", text]) == run_cli(["certify", "--seed", "3", C6])


def test_graph_format_is_read_off_the_first_non_blank_character(capsys):
    # ">".."~" (graph6 and its header) or nothing at all is graph6; anything
    # else, a digit, a sign or another character, is an edge list
    for text, same_as in ((">>graph6<<" + C6, C6), ("+6\n0 1\n", "6\n0 1\n")):
        assert run_cli(["recognize", "--", text]) == run_cli(["recognize", same_as]), text
    for text, message in (
        ("", "empty graph6 string"),
        ("  \n", "empty graph6 string"),
        ("~", "graph6"),
        ("-1\n", "graph needs at least one vertex"),
        ("/x", "bad vertex count line"),
        ("\x7f", "bad vertex count line"),
        ("4\n0\u30001\n", "bad edge line"),
        ("4\n0 1\x852 3\n", "bad edge line"),
    ):
        assert main(["recognize", "--", text]) == 2, text
        assert message in json.loads(capsys.readouterr().err)["error"], text


# --- certify / verify -----------------------------------------------------------


def test_certify_prism_bundle():
    code, out = run_cli(["certify", "--seed", "7", PRISM])
    assert code == 0
    bundle = json.loads(out)
    assert bundle["dim"] == 3
    assert bundle["bound"] == 3 == bundle["delta_bound"]
    assert all(bundle["checks"].values())
    assert len(bundle["representation"]["vectors"]) == 6
    assert "gram" not in bundle


def test_certify_emit_gram():
    code, out = run_cli(["certify", "--seed", "7", "--emit-gram", PRISM])
    bundle = json.loads(out)
    assert code == 0 and len(bundle["gram"]["entries"]) == 6


def test_certify_deterministic_under_seed():
    r1 = run_cli(["certify", "--seed", "7", PRISM])
    r2 = run_cli(["certify", "--seed", "7", PRISM])
    r3 = run_cli(["certify", "--seed", "8", PRISM])
    assert r1 == r2
    assert r1 != r3


def test_certify_env_seed(monkeypatch):
    # GRAPH_SEED is not read: certify prints what --seed 0 prints
    monkeypatch.setenv("GRAPH_SEED", "7")
    env_out = run_cli(["certify", PRISM])
    assert env_out == run_cli(["certify", "--seed", "0", PRISM])
    assert env_out != run_cli(["certify", "--seed", "7", PRISM])


def test_non_integer_env_seed_is_an_error_only_where_a_seed_is_taken():
    # a seed is taken from --seed alone, so GRAPH_SEED=abc breaks no command
    env = subprocess_env(GRAPH_SEED="abc")

    def run(*argv):
        return subprocess.run(
            [sys.executable, "-m", "deltamsr", *argv],
            input="",
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )

    gen = run("gen", "cycle", "6")
    assert gen.returncode == 0 and gen.stdout.strip() == C6, gen.stderr
    recognize = run("recognize", "--c-delta", C6)
    assert recognize.returncode == 0, recognize.stderr
    batch = run("batch")
    assert batch.returncode == 0 and batch.stdout == batch.stderr == "", batch.stderr
    certify = run("certify", PRISM)
    assert certify.returncode == 0, certify.stderr
    assert (0, certify.stdout) == run_cli(["certify", "--seed", "0", PRISM])
    for argv in (("certify", "--seed", "abc", PRISM), ("batch", "--seed", "abc")):
        proc = run(*argv)
        assert proc.returncode == 2 and "invalid int value: 'abc'" in proc.stderr, argv
        assert "Traceback" not in proc.stderr


def test_certify_rejects_non_delta_graph():
    code, _ = run_cli(["certify", to_graph6(cycle(4))])
    assert code == 1


def duplicating_construct(real):
    """construct, but with vertex 3's vector replaced by vertex 0's."""

    def build(g, cert, sampler):
        rep = real(g, cert, sampler)
        vectors = list(rep.vectors)
        vectors[3] = vectors[0]
        return OrthoRep(rep.dim, tuple(vectors))

    return build


def test_certify_self_check_failure_is_an_internal_failure(monkeypatch, capsys):
    real = deltamsr.construction.construct
    monkeypatch.setattr(deltamsr.construction, "construct", duplicating_construct(real))
    assert main(["certify", PRISM]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err)
    assert error["failed_pair"] == [0, 3]
    assert "failed verification" in error["error"]


def test_batch_reports_self_check_failure_inline(monkeypatch):
    real = deltamsr.construction.construct
    monkeypatch.setattr(deltamsr.construction, "construct", duplicating_construct(real))
    code, out = run_cli(["batch"], stdin_text=f"{PRISM}\n{C6}\n")
    lines = [json.loads(l) for l in out.splitlines()]
    assert code == 0 and len(lines) == 2
    assert lines[0]["graph"] == PRISM
    assert "failed verification, failed_pair [0, 3]" in lines[0]["error"]
    assert lines[1]["graph"] == C6 and lines[1]["verdict"] == "holds"


def test_retry_budget_exhausted_is_an_internal_failure(monkeypatch, capsys):
    monkeypatch.setattr(deltamsr.construction, "MAX_RESAMPLES", 0)
    assert main(["certify", PRISM]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"].startswith("no admissible vector after 0 resamples")
    code, out = run_cli(["batch"], stdin_text=f"{PRISM}\n{C6}\n")
    lines = [json.loads(l) for l in out.splitlines()]
    assert code == 0 and len(lines) == 2
    assert lines[0]["graph"] == PRISM
    assert lines[0]["error"].startswith("no admissible vector after 0 resamples")
    assert lines[1]["graph"] == C6 and lines[1]["verdict"] == "holds"


def test_restarts_recover_a_tiny_window_until_their_budget_runs_out(monkeypatch, capsys):
    # with coefficients of +-1, co-C12 at seed 0 still fails after one
    # widened restart, and succeeds within the default MAX_RESTARTS
    co_c12 = to_graph6(complement(cycle(12)))
    tiny = functools.partial(GenericSampler, magnitude=1)
    monkeypatch.setattr(deltamsr.construction, "GenericSampler", tiny)
    code, out = run_cli(["certify", co_c12])
    assert code == 0 and all(json.loads(out)["checks"].values())
    monkeypatch.setattr(deltamsr.construction, "MAX_RESTARTS", 1)
    assert main(["certify", co_c12]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err)["error"]
    assert error.startswith("no admissible vector after ")
    assert error.endswith(", then 1 widened restarts")
    code, out = run_cli(["batch"], stdin_text=f"{co_c12}\n{C6}\n")
    lines = [json.loads(l) for l in out.splitlines()]
    assert code == 0 and len(lines) == 2
    assert lines[0] == {"graph": co_c12, "error": error}
    assert lines[1]["graph"] == C6 and lines[1]["verdict"] == "holds"


def test_certify_then_verify_roundtrip():
    _, out = run_cli(["certify", "--seed", "3", PRISM])
    code, report = run_cli(["verify"], stdin_text=out)
    assert code == 0
    assert all(json.loads(report)["checks"].values())
    assert "failed_pair" not in json.loads(report)


def test_verify_detects_tampering():
    _, out = run_cli(["certify", "--seed", "3", PRISM])
    bundle = json.loads(out)
    bundle["representation"]["vectors"][0][0] = "0/1"
    code, report = run_cli(["verify"], stdin_text=json.dumps(bundle))
    assert code == 1
    assert not json.loads(report)["checks"]["nonzero"]


def test_verify_names_the_first_failing_pair():
    # v3 := v0: dependent at (0, 3); the first pattern failure, v1 . v3 = 0
    # on the prism edge 1 ~ 3, comes later in row-major order
    _, out = run_cli(["certify", "--seed", "3", PRISM])
    bundle = json.loads(out)
    vectors = bundle["representation"]["vectors"]
    vectors[3] = vectors[0]
    code, report = run_cli(["verify"], stdin_text=json.dumps(bundle))
    assert code == 1
    result = json.loads(report)
    assert result["failed_pair"] == [0, 3]
    assert not result["checks"]["independent"] and not result["checks"]["pattern"]


def test_verify_refuses_a_representation_above_the_delta_bound():
    import helpers

    # valid vectors in dimension 4 = n - delta + 1 pass every check but the dimension
    _, out = run_cli(["certify", "--seed", "3", PRISM])
    bundle = json.loads(out)
    g = parse_graph6(PRISM)
    order = recognize_delta(g).ordering
    vectors = helpers.vectors_from_priors(g, order, 4, GenericSampler(seed=0))
    bundle["representation"] = rep_to_json_dict(OrthoRep(4, vectors))
    code, report = run_cli(["verify"], stdin_text=json.dumps(bundle))
    assert code == 1
    assert json.loads(report) == {
        "bound": None,
        "checks": {"pattern": True, "nonzero": True, "independent": True, "dimension": False},
        "failed_pair": None,
    }


def test_verify_checks_the_bundled_gram(capsys):
    _, out = run_cli(["certify", "--seed", "3", "--emit-gram", PRISM])
    code, report = run_cli(["verify"], stdin_text=out)
    assert code == 0
    checks = ("pattern", "nonzero", "independent", "dimension", "gram")
    assert json.loads(report) == {"bound": 3, "checks": dict.fromkeys(checks, True)}

    def tampered(*edits):
        bundle = json.loads(out)
        for i, j, text in edits:
            bundle["gram"]["entries"][i][j] = text
        return bundle

    # both copies of entry (2, 4) raised by one; entry (3, 1) alone set to 0,
    # though 1 ~ 3 is a prism edge.  The first differing entry in row-major
    # order is named
    bumped = str(int(json.loads(out)["gram"]["entries"][2][4]) + 1)
    changed = tampered((2, 4, bumped), (4, 2, bumped))
    asymmetric = tampered((3, 1, "0"))
    for bundle, entry in ((changed, [2, 4]), (asymmetric, [3, 1])):
        code, report = run_cli(["verify"], stdin_text=json.dumps(bundle))
        result = json.loads(report)
        assert code == 1
        assert result["gram_entry"] == entry and result["bound"] is None
        assert not result["checks"].pop("gram") and all(result["checks"].values())
        assert "failed_pair" not in result
    wrong_n = json.loads(out)
    wrong_n["gram"]["n"] = 7
    assert main(["verify", json.dumps(wrong_n)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "gram is not 6 x 6" in json.loads(captured.err)["error"]
    # 6.0 and true compare equal to 6 and 1, but neither is an integer count
    for n in (6.0, True, "6"):
        not_int = json.loads(out)
        not_int["gram"]["n"] = n
        assert main(["verify", json.dumps(not_int)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "bad bundle: gram n must be an integer" == json.loads(captured.err)["error"]


def test_verify_malformed_bundles_are_input_errors(capsys):
    _, out = run_cli(["certify", "--seed", "3", PRISM])
    short = json.loads(out)
    del short["representation"]["vectors"][-1]
    not_text = json.loads(out)
    not_text["graph6"] = 5

    def with_dim(dim):
        bundle = json.loads(out)
        bundle["representation"]["dim"] = dim
        return bundle

    def k1_with_vectors(vectors):
        return {"graph6": "@", "representation": {"dim": 1, "vectors": vectors}}

    # vectors and Gram rows that are iterable but not lists: a string would
    # be read as its characters and a dict as its keys
    dict_vectors = json.loads(out)
    vectors = dict_vectors["representation"]["vectors"]
    vectors[:] = [dict.fromkeys(vec, 0) for vec in vectors]
    _, gram_out = run_cli(["certify", "--seed", "3", "--emit-gram", PRISM])
    text_rows = json.loads(gram_out)
    text_rows["gram"]["entries"] = ["1" * 6] * 6

    def without(path, key, text=out):
        """The bundle text with key deleted from the object that path leads to."""
        bundle = json.loads(text)
        obj = bundle
        for step in path:
            obj = obj[step]
        del obj[key]
        return bundle

    def with_value(key, value, text=out):
        bundle = json.loads(text)
        bundle[key] = value
        return bundle

    for bundle, message in (
        (short, "representation size does not match the graph"),
        (not_text, "graph6 must be a string"),
        (with_dim(3.9), "representation dim must be an integer"),
        (with_dim("3"), "representation dim must be an integer"),
        (k1_with_vectors("5"), "representation vectors must be a list of lists"),
        (k1_with_vectors(["5"]), "representation vectors must be a list of lists"),
        (k1_with_vectors({"5": 0}), "representation vectors must be a list of lists"),
        (dict_vectors, "representation vectors must be a list of lists"),
        (text_rows, "gram entries must be a list of lists"),
        # a bundle that is not a JSON object, and each key verify reads,
        # missing, are named instead of echoing the interpreter's error
        ([], "a bundle is a JSON object"),
        ("EUxo", "a bundle is a JSON object"),
        (5, "a bundle is a JSON object"),
        ({}, "missing key 'graph6'"),
        (without((), "graph6"), "missing key 'graph6'"),
        (without((), "representation"), "missing key 'representation'"),
        (without(("representation",), "dim"), "missing key 'dim'"),
        (without(("representation",), "vectors"), "missing key 'vectors'"),
        (without(("gram",), "n", gram_out), "missing key 'n'"),
        (without(("gram",), "entries", gram_out), "missing key 'entries'"),
        (with_value("representation", []), "a representation is a JSON object"),
        (with_value("gram", [], gram_out), "a Gram matrix is a JSON object"),
    ):
        assert main(["verify", json.dumps(bundle)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {"error": f"bad bundle: {message}"}


# Prism bundles of 0.30.0 carried each position's count of prior
# non-neighbours, which later versions recompute from the graph and the
# ordering instead of writing them.
PRISM_BUNDLE_0_30 = {
    "bound": 3,
    "certificate": {
        "base_kind": "K2+K1",
        "excluded_counts": [1, 1, 2],
        "ordering": [0, 1, 2, 3, 4, 5],
    },
    "checks": {"dimension": True, "independent": True, "nonzero": True, "pattern": True},
    "delta_bound": 3,
    "dim": 3,
    "graph6": "EUxo",
    "n": 6,
    "representation": {
        "dim": 3,
        "vectors": [
            ["6", "7", "2"],
            ["-3", "2", "2"],
            ["-2", "1", "-4"],
            ["-23", "14", "15"],
            ["-7", "-4", "-7"],
            ["41", "-28", "-25"],
        ],
    },
    "seed": 7,
}


def test_verify_reads_bundles_that_carry_the_excluded_counts():
    # the bundle `certify --seed 7` printed for the prism in 0.30.0, byte for
    # byte, verifies with the report 0.30.0 gave it; certify now prints the
    # same bundle less the counts
    text = json.dumps(PRISM_BUNDLE_0_30, indent=2, sort_keys=True) + "\n"
    checks = ("pattern", "nonzero", "independent", "dimension")
    expected = {"bound": 3, "checks": dict.fromkeys(checks, True)}
    code, report = run_cli(["verify"], stdin_text=text)
    assert (code, json.loads(report)) == (0, expected)
    proc = subprocess.run(
        [sys.executable, "-m", "deltamsr", "verify"],
        input=text,
        capture_output=True,
        text=True,
        env=subprocess_env(),
        timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, report, "")
    now = copy.deepcopy(PRISM_BUNDLE_0_30)
    del now["certificate"]["excluded_counts"]
    printed = json.dumps(now, indent=2, sort_keys=True) + "\n"
    assert run_cli(["certify", "--seed", "7", PRISM]) == (0, printed)


# What bench/checks.py and bench/tracing.py read of a certify bundle, and
# how the tracer writes its own copy of one: a change here breaks the
# benchmark.
BUNDLE_KEYS = {
    "graph6", "n", "certificate", "dim", "bound", "delta_bound", "seed", "representation", "checks",
}


@pytest.mark.parametrize("emit_gram", [False, True], ids=["plain", "gram"])
def test_certify_bundle_holds_what_the_benchmark_reads(emit_gram):
    decimal = re.compile(r"-?[0-9]+")
    for graph, seed in ((PRISM, 7), (to_graph6(complement(cycle(9))), 0), (TIGHT24, 3)):
        argv = ["certify", "--seed", str(seed), *(["--emit-gram"] if emit_gram else []), graph]
        code, out = run_cli(argv)
        assert code == 0, graph
        bundle = json.loads(out)
        assert out == json.dumps(bundle, indent=2, sort_keys=True) + "\n", graph
        assert set(bundle) == BUNDLE_KEYS | ({"gram"} if emit_gram else set()), graph
        assert set(bundle["certificate"]) == {"ordering", "base_kind"}, graph
        g = parse_graph6(graph)
        expected = g.n - min(v.bit_count() for v in g.adj)
        rep = bundle["representation"]
        assert set(rep) == {"dim", "vectors"}, graph
        assert bundle["dim"] == bundle["bound"] == bundle["delta_bound"] == rep["dim"] == expected
        assert (bundle["graph6"], bundle["n"], bundle["seed"]) == (graph, g.n, seed)
        checks = ("pattern", "nonzero", "independent", "dimension")
        assert bundle["checks"] == dict.fromkeys(checks, True), graph
        texts = [x for vec in rep["vectors"] for x in vec]
        assert len(rep["vectors"]) == g.n and len(texts) == g.n * expected, graph
        if emit_gram:
            assert set(bundle["gram"]) == {"n", "entries"} and bundle["gram"]["n"] == g.n
            texts += [x for row in bundle["gram"]["entries"] for x in row]
        assert all(type(x) is str and decimal.fullmatch(x) for x in texts), graph


def test_verify_reads_long_coordinates_in_a_fresh_process():
    # scaling a vector by 10**5000 keeps the pattern; the coordinates are
    # then longer than the interpreter's default int/str digit limit, written
    # bare and as "p/1".  Written as "p/7" they are not integers: exit 2,
    # naming the text by both ends
    assert sys.get_int_max_str_digits() == sys.int_info.default_max_str_digits
    _, out = run_cli(["certify", "--seed", "3", PRISM])
    for suffix in ("", "/1", "/7"):
        bundle = json.loads(out)
        vectors = bundle["representation"]["vectors"]
        vectors[0] = [x + "0" * 5000 + suffix for x in vectors[0]]
        proc = subprocess.run(
            [sys.executable, "-m", "deltamsr", "verify"],
            input=json.dumps(bundle),
            capture_output=True,
            text=True,
            env=subprocess_env(),
            timeout=60,
        )
        if suffix == "/7":
            assert proc.returncode == 2 and proc.stdout == "", proc.stderr
            first = vectors[0][0]
            named = f"{first[:20]}...{first[-17:]}"
            assert named.endswith("0/7")
            error = json.loads(proc.stderr)["error"]
            assert error == f"bad bundle: not an integer p or p/1: {named!r}"
            continue
        assert proc.returncode == 0, (suffix, proc.stderr)
        assert all(json.loads(proc.stdout)["checks"].values()), suffix


def test_verify_writes_and_reads_integers_past_the_digit_limit():
    # v0 scaled by 10**5000: a coordinate and the Gram entries of row and
    # column 0 are longer than the default int/str digit limit, so neither
    # str() nor int() alone could convert them
    assert sys.get_int_max_str_digits() == sys.int_info.default_max_str_digits
    g = parse_graph6(PRISM)
    rep = construct(g, recognize_delta(g), GenericSampler(seed=3))
    scaled = OrthoRep(rep.dim, (tuple(10**5000 * x for x in rep.vectors[0]),) + rep.vectors[1:])
    bundle = json.loads(run_cli(["certify", "--seed", "3", PRISM])[1])
    bundle["representation"] = rep_to_json_dict(scaled)
    bundle["gram"] = gram_to_json_dict(gram(scaled))
    first = bundle["representation"]["vectors"][0][0]
    assert first == str(rep.vectors[0][0]) + "0" * 5000
    proc = subprocess.run(
        [sys.executable, "-m", "deltamsr", "verify"],
        input=json.dumps(bundle),
        capture_output=True,
        text=True,
        env=subprocess_env(),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    checks = ("pattern", "nonzero", "independent", "dimension", "gram")
    assert json.loads(proc.stdout) == {"bound": 3, "checks": dict.fromkeys(checks, True)}


def test_verify_reads_integer_and_p_1_bundles_alike_and_refuses_p_q(capsys):
    # the same bundle with integer text and with "p/1" text as earlier
    # versions wrote it, intact and with v3 := v0, gives the same report.
    # With every vector divided by more than its largest coordinate and the
    # Gram matrix rescaled to match, all "p/q" text, it is an input error
    # that names the first coordinate
    _, out = run_cli(["certify", "--seed", "3", "--emit-gram", PRISM])
    integer = json.loads(out)
    p_1 = json.loads(out)
    p_1["representation"]["vectors"] = [
        [x + "/1" for x in vec] for vec in integer["representation"]["vectors"]
    ]
    p_1["gram"]["entries"] = [[x + "/1" for x in row] for row in integer["gram"]["entries"]]
    rep = rep_from_json_dict(integer["representation"])
    divided = [[Fraction(x, 2 + max(map(abs, vec))) for x in vec] for vec in rep.vectors]
    p_q = json.loads(out)
    p_q["representation"]["vectors"] = [[str(x) for x in vec] for vec in divided]
    p_q["gram"]["entries"] = [[str(sum(map(mul, u, v))) for v in divided] for u in divided]
    assert all("/" in x for vec in p_q["representation"]["vectors"] for x in vec)

    def verified(bundle, tamper):
        if tamper:
            vectors = bundle["representation"]["vectors"]
            vectors[3] = vectors[0]
        return run_cli(["verify"], stdin_text=json.dumps(bundle))

    for tamper in (False, True):
        reports = {verified(copy.deepcopy(b), tamper) for b in (integer, p_1)}
        assert len(reports) == 1, reports
        code, report = reports.pop()
        assert code == (1 if tamper else 0)
        assert ("failed_pair" in json.loads(report)) == tamper
        capsys.readouterr()
        assert verified(copy.deepcopy(p_q), tamper) == (2, "")
        first = p_q["representation"]["vectors"][0][0]
        assert repr(first) in json.loads(capsys.readouterr().err)["error"]


def test_verify_rejects_non_decimal_coordinates(capsys):
    # int() alone accepts "1_000", " 12" and the Arabic-Indic digits, so the
    # strict pattern runs first.  A fraction "p/q" with q other than 1 is
    # refused too, even where its value is an integer ("6/3")
    _, out = run_cli(["certify", "--seed", "3", "--emit-gram", PRISM])
    bad_texts = ("1e999999999", "1/0", "0x10/1", "1_000", " 12", "\u0661\u0662")
    for bad in bad_texts + ("3/4", "0/5", "6/3"):
        for section, key in (("representation", "vectors"), ("gram", "entries")):
            bundle = json.loads(out)
            bundle[section][key][0][0] = bad
            capsys.readouterr()
            code, report = run_cli(["verify"], stdin_text=json.dumps(bundle))
            assert code == 2 and report == "", (bad, section)
            assert repr(bad) in json.loads(capsys.readouterr().err)["error"], (bad, section)


def test_verify_rejects_garbage():
    code, _ = run_cli(["verify"], stdin_text="{}")
    assert code == 2


@pytest.mark.parametrize("as_file", [False, True], ids=["literal", "file"])
def test_verify_deeply_nested_bundle_is_an_input_error(as_file, tmp_path, capsys):
    text = "[" * 100_000 + "]" * 100_000
    if as_file:
        path = tmp_path / "deep.json"
        path.write_text(text)
        text = str(path)
    assert main(["verify", text]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"].startswith("bad bundle")


# --- batch ------------------------------------------------------------------------


def test_batch_empty_input():
    code, out = run_cli(["batch"], stdin_text="")
    assert code == 0 and out == ""


def test_batch_stream_order_and_verdicts():
    code, out = run_cli(["batch"], stdin_text=f"{C6}\n{K4}\n{P4}\n")
    assert code == 0
    lines = [json.loads(l) for l in out.splitlines()]
    assert [l["graph"] for l in lines] == [C6, K4, P4]
    assert lines[0]["verdict"] == "holds"
    assert lines[1]["verdict"] in ("holds", "unresolved")
    for l in lines:
        if l["verdict"] != "unresolved":
            assert l["certified_hi"] <= l["delta_bound"]


def test_batch_reports_bad_lines_inline():
    code, out = run_cli(["batch"], stdin_text=f"{C6}\nbroken\x01\n{P4}\n")
    assert code == 0
    lines = [json.loads(l) for l in out.splitlines()]
    assert len(lines) == 3
    assert "error" in lines[1]
    assert lines[2]["verdict"]


def test_batch_reports_search_budget_inline(monkeypatch):
    monkeypatch.setattr(recognition, "SEARCH_BUDGET", 100)
    code, out = run_cli(["batch"], stdin_text=f"{TIGHT24}\n{C6}\n")
    lines = [json.loads(l) for l in out.splitlines()]
    assert code == 0 and len(lines) == 2
    assert lines[0]["graph"] == TIGHT24
    assert "after 100 expanded vertex sets" in lines[0]["error"]
    assert lines[1]["graph"] == C6 and lines[1]["verdict"] == "holds"


def test_batch_lets_any_other_runtime_error_escape(monkeypatch, capsys):
    # only RetryBudgetExceeded, SearchBudgetExceeded and SelfCheckFailed
    # become error lines; any other RuntimeError, RecursionError included,
    # is a fault of the program and escapes main, after the reports before
    # it in the same read are written.  PRISM is decided by construction,
    # without msr_exact; C6 by msr_exact
    prism_report = run_cli(["batch"], f"{PRISM}\n")[1]
    assert json.loads(prism_report)["verdict"] == "holds-by-construction"
    for error in (RuntimeError, RecursionError):

        def broken(g, error=error):
            raise error("engine fault")

        monkeypatch.setattr(deltamsr.msr, "msr_exact", broken)
        for lines, written in ((f"{C6}\n", ""), (f"{PRISM}\n{C6}\n", prism_report)):
            monkeypatch.setattr(sys, "stdin", io.StringIO(lines))
            with pytest.raises(error, match="engine fault"):
                main(["batch"])
            assert capsys.readouterr().out == written


def next_report(proc, line: str) -> dict:
    """The next report on proc's stdout, which must start to arrive within 20 s."""
    with selectors.DefaultSelector() as sel:
        sel.register(proc.stdout, selectors.EVENT_READ)
        assert sel.select(timeout=20), f"no report for {line!r} before stdin closed"
    return json.loads(proc.stdout.readline())


def test_batch_streams_each_report():
    # the report for each line arrives while stdin is still open, before the
    # producer sends the next line
    proc = subprocess.Popen(
        [sys.executable, "-m", "deltamsr", "batch"],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
        env=subprocess_env(),
    )
    try:
        for line in (C6, P4):
            proc.stdin.write(line + "\n")
            proc.stdin.flush()
            assert next_report(proc, line)["graph"] == line
        proc.stdin.close()
        assert proc.wait(timeout=30) == 0
    finally:
        proc.kill()
        proc.wait()
        proc.stdout.close()


def test_batch_exits_quietly_when_its_reader_closes_the_pipe():
    # the reader takes one report and closes its end; the next report
    # cannot be written, which ends batch with 141 and no traceback
    proc = subprocess.Popen(
        [sys.executable, "-m", "deltamsr", "batch"],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=subprocess_env(),
    )
    try:
        proc.stdin.write(C6 + "\n")
        proc.stdin.flush()
        assert next_report(proc, C6)["graph"] == C6
        proc.stdout.close()
        proc.stdin.write(P4 + "\n")
        proc.stdin.close()
        assert proc.wait(timeout=30) == 141
        assert proc.stderr.read() == ""
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()
    # help takes the same path: into a pipe already closed, -h ends with 141 too
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        help_proc = subprocess.run(
            [sys.executable, "-m", "deltamsr", "-h"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env=subprocess_env(),
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert (help_proc.returncode, help_proc.stderr) == (141, "")


def test_batch_writes_its_reports_once_per_read_not_once_per_line(monkeypatch):
    class CountingStdout(io.StringIO):
        writes = 0

        def write(self, text):
            self.writes += 1
            return super().write(text)

    out = CountingStdout()
    monkeypatch.setattr(sys, "stdout", out)
    assert main(["batch", str(helpers.ATLAS_PATH)]) == 0
    text = out.getvalue()
    assert len(text.splitlines()) == len(helpers.ATLAS_PATH.read_text().splitlines())
    # one write per read of the input, and one per io.DEFAULT_BUFFER_SIZE of output
    assert out.writes <= -(-len(text.encode()) // io.DEFAULT_BUFFER_SIZE) + 2, out.writes


# each line's bytes and the line end that follows it
SHAPED_LINES = [
    (C6.encode(), b"\r\n"),
    (P4.encode(), b"\r"),  # a lone CR
    (K4.encode(), b"\r\n"),
    (b"", b"\n"),
    (b" \t", b"\r\n"),  # a whitespace-only line
    (b" " + PRISM.encode() + b"  ", b"\n"),
    (b"E?\xff", b"\n"),  # undecodable
    (b"C\xc3\xa9", b"\r"),  # a two-byte character
    (C6.encode(), b""),  # no final line end
]
SHAPED_INPUT = b"".join(line + end for line, end in SHAPED_LINES)


def expected_batch_output(encoding: str) -> str:
    """batch's output for SHAPED_LINES, built line by line from the library."""
    out = []
    for raw, _ in SHAPED_LINES:
        line = raw.decode(encoding, "surrogateescape").strip()
        if not line:
            continue
        try:
            g = parse_graph6(line)
        except ValueError as exc:
            report = {"graph": line, "error": str(exc)}
        else:
            report = check_delta_conjecture(g, seed=0, graph_id=line).to_json_dict()
        out.append(json.dumps(report, sort_keys=True) + "\n")
    return "".join(out)


class PieceReader:
    """A binary stream whose read1 returns the given pieces, one per read."""

    def __init__(self, pieces):
        self.pieces = [piece for piece in pieces if piece]

    def read1(self, size):
        assert 0 < size <= io.DEFAULT_BUFFER_SIZE
        return self.pieces.pop(0) if self.pieces else b""


def test_batch_keeps_its_line_semantics_across_reads(tmp_path, monkeypatch):
    path = tmp_path / "shaped.g6"
    path.write_bytes(SHAPED_INPUT)
    with open(path) as fh:
        encoding = fh.encoding  # the locale's, as batch opens the file
    expected = expected_batch_output(encoding)
    assert run_cli(["batch", str(path)]) == (0, expected)
    assert len(expected.splitlines()) == 7
    # every split into two reads, a CR apart from its LF and a character
    # apart from its second byte included, and reads of a few fixed sizes
    splits = [(SHAPED_INPUT[:i], SHAPED_INPUT[i:]) for i in range(len(SHAPED_INPUT) + 1)]
    for size in (1, 2, 3, 7):
        splits.append([SHAPED_INPUT[i:i + size] for i in range(0, len(SHAPED_INPUT), size)])
    for pieces in splits:
        out = io.StringIO()
        stdin = types.SimpleNamespace(buffer=PieceReader(pieces), encoding=encoding)
        monkeypatch.setattr(sys, "stdin", stdin)
        monkeypatch.setattr(sys, "stdout", out)
        assert main(["batch"]) == 0
        assert out.getvalue() == expected, pieces
    # in an encoding that is not ASCII-compatible, read 3 bytes at a time
    wide = "\r\n".join([C6, P4, K4]).encode("utf-16")
    pieces = [wide[i:i + 3] for i in range(0, len(wide), 3)]
    out = io.StringIO()
    monkeypatch.setattr(sys, "stdin", types.SimpleNamespace(buffer=PieceReader(pieces), encoding="utf-16"))
    monkeypatch.setattr(sys, "stdout", out)
    assert main(["batch"]) == 0
    assert out.getvalue() == "".join(expected.splitlines(keepends=True)[:3])
    # a text stdin with no binary layer is read whole, with the same lines
    text = SHAPED_INPUT.decode(encoding, "surrogateescape")
    assert run_cli(["batch"], stdin_text=text) == (0, expected)
    # and a real stdin gives the bytes that a file argument gives
    from_file, from_stdin = (
        subprocess.run(
            [sys.executable, "-m", "deltamsr", "batch", *argv],
            input=SHAPED_INPUT,
            capture_output=True,
            env=subprocess_env(),
            timeout=60,
        )
        for argv in ([str(path)], [])
    )
    assert from_file.returncode == from_stdin.returncode == 0
    assert from_stdin.stdout == from_file.stdout


# --- batch shares a long read among forked helpers -------------------------------

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="batch forks only where os.fork exists")


def share_each_read(monkeypatch, cpus: int) -> list[int]:
    """Make batch share each read from its first line on among cpus processes.

    Returns the list of helper pids that batch forks from then on.
    """
    monkeypatch.setattr(deltamsr.batch, "_SHARE_AFTER_S", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    forked, fork = [], os.fork

    def counting_fork():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    return forked


@contextlib.contextmanager
def within(seconds: int):
    """Raise TimeoutError in the block once it has run for seconds."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def batch_in_process(monkeypatch, argv, stdin=None) -> str:
    """batch's stdout for argv, run in this process within 60 s; it must exit 0."""
    out = io.StringIO()
    monkeypatch.setattr(sys, "stdout", out)
    if stdin is not None:
        monkeypatch.setattr(sys, "stdin", stdin)
    with within(60):
        assert main(argv) == 0
    assert_no_child_left()
    return out.getvalue()


@needs_fork
@pytest.mark.parametrize("cpus", [3, 5])  # 5: more processes than the test host may have CPUs
def test_batch_shares_each_read_among_helpers_with_the_output_of_one_process(cpus, monkeypatch):
    atlas = [["batch", "--seed", str(seed), str(helpers.ATLAS_PATH)] for seed in (0, 3, 17)]
    # SHAPED_INPUT cut into reads of several lines each, a line split between two reads included
    cuts = [[SHAPED_INPUT[:i], SHAPED_INPUT[i:]] for i in range(0, len(SHAPED_INPUT) + 1, 4)]
    cuts += [[SHAPED_INPUT[i:i + size] for i in range(0, len(SHAPED_INPUT), size)] for size in (7, 16)]

    def outputs() -> list[str]:
        texts = [batch_in_process(monkeypatch, argv) for argv in atlas]
        for pieces in cuts:
            stdin = types.SimpleNamespace(buffer=PieceReader(pieces), encoding="utf-8")
            texts.append(batch_in_process(monkeypatch, ["batch"], stdin))
        return texts

    unforked = share_each_read(monkeypatch, 1)
    alone = outputs()
    assert unforked == []
    assert alone[0].count("\n") == len(helpers.ATLAS_PATH.read_text().splitlines())
    assert all(text == expected_batch_output("utf-8") for text in alone[3:])
    forked = share_each_read(monkeypatch, cpus)
    assert outputs() == alone
    # each atlas run forks cpus - 1 helpers for its one read
    assert len(forked) >= 3 * (cpus - 1)


@needs_fork
@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
@pytest.mark.parametrize("share", ["helper", "parent"])
def test_a_fault_on_the_shared_path_escapes_after_the_reports_before_it(share, error, monkeypatch, capfd):
    # three processes share the atlas from its first line on, so line j goes
    # to process j mod 3, and process 0 is batch's own.  msr_exact breaks on
    # one line that it decides, in the given share
    text = helpers.ATLAS_PATH.read_text()
    share_each_read(monkeypatch, 1)
    reports = run_cli(["batch"], text)[1].splitlines(keepends=True)
    target = next(
        j for j, report in enumerate(reports)
        if j > 20 and (j % 3 == 0) == (share == "parent") and json.loads(report).get("verdict") == "holds"
    )
    broken_graph = parse_graph6(json.loads(reports[target])["graph"])
    real = deltamsr.msr.msr_exact

    def breaks_on_target(g):
        if g == broken_graph:
            raise error("engine fault")
        return real(g)

    monkeypatch.setattr(deltamsr.msr, "msr_exact", breaks_on_target)
    forked = share_each_read(monkeypatch, 3)
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    capfd.readouterr()
    with within(60), pytest.raises(error, match="engine fault"):
        main(["batch"])
    assert_no_child_left()
    assert len(forked) == 2
    # a program fault writes the reports before its line; an interrupt writes
    # none; and no helper writes to stdout or stderr
    out, err = capfd.readouterr()
    assert out == ("".join(reports[:target]) if error is RuntimeError else "")
    assert err == ""


@needs_fork
@pytest.mark.parametrize("blocker", ["a second thread", "a fork that fails"])
def test_batch_answers_every_line_itself_where_it_cannot_fork(blocker, monkeypatch):
    import threading

    share_each_read(monkeypatch, 1)
    expected = run_cli(["batch", str(helpers.ATLAS_PATH)])[1]
    forked = share_each_read(monkeypatch, 3)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait, args=(60,))
    if blocker == "a second thread":
        thread.start()
    else:

        def fork():
            raise BlockingIOError("no process left")

        monkeypatch.setattr(os, "fork", fork)
    try:
        out = batch_in_process(monkeypatch, ["batch", str(helpers.ATLAS_PATH)])
    finally:
        stop.set()
        if thread.is_alive():
            thread.join(timeout=60)
    assert not thread.is_alive()
    assert forked == [] and out == expected


def test_batch_in_a_fresh_process_gives_the_output_of_one_process(monkeypatch):
    # the real CPU count and time before sharing; both pipes reach their end
    # within the timeout, so no helper holds them once batch exits
    with subprocess.Popen(
        [sys.executable, "-m", "deltamsr", "batch", str(helpers.ATLAS_PATH)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=subprocess_env(),
    ) as proc:
        try:
            out, err = proc.communicate(timeout=60)
        finally:
            proc.kill()
    assert (proc.returncode, err) == (0, b"")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert out.decode() == batch_in_process(monkeypatch, ["batch", str(helpers.ATLAS_PATH)])


def run_with_closed(fd: str, argv, stdin=None) -> subprocess.CompletedProcess:
    """deltamsr in a process that starts with file descriptor fd (0 or 1) closed."""
    return subprocess.run(
        ["sh", "-c", f'exec "$@" {fd}>&-', "sh", sys.executable, "-m", "deltamsr", *argv],
        input=stdin,
        capture_output=True,
        text=True,
        env=subprocess_env(),
        timeout=60,
    )


@pytest.mark.parametrize(
    "argv",
    [["verify"], ["recognize"], ["certify"], ["batch"], ["batch", "-"]],
    ids=["verify", "recognize", "certify", "batch", "batch-dash"],
)
def test_a_closed_stdin_is_an_input_error(argv):
    proc = run_with_closed("0", argv)
    assert (proc.returncode, proc.stdout) == (2, ""), proc.stderr
    assert json.loads(proc.stderr) == {"error": "stdin is closed"}


def test_a_closed_stdin_is_no_error_where_none_is_read():
    proc = run_with_closed("0", ["gen", "cycle", "6"])
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, C6 + "\n", "")


@pytest.mark.parametrize("argv", [["batch"], ["gen", "cycle", "6"], ["-h"]], ids=["batch", "gen", "help"])
def test_a_closed_stdout_is_an_output_error(argv):
    proc = run_with_closed("1", argv, stdin=C6 + "\n")
    assert (proc.returncode, proc.stdout) == (2, ""), proc.stderr
    assert json.loads(proc.stderr) == {"error": "stdout is closed"}


def test_batch_decides_a_cycle_with_a_long_pendant_path(tmp_path):
    # C4 with a 1,100-vertex path hanging off it: n = 1,104, msr = 2 + 1,100
    n = 1104
    edges = [(i, (i + 1) % 4) for i in range(4)] + [(3, 4)]
    edges += [(i, i + 1) for i in range(4, n - 1)]
    line = to_graph6(from_edge_list(n, edges))
    path = tmp_path / "pendant.g6"
    path.write_text(line + "\n")
    proc = subprocess.run(
        [sys.executable, "-m", "deltamsr", "batch", str(path)],
        capture_output=True,
        text=True,
        env=subprocess_env(),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["verdict"] == "holds"
    assert report["certified_hi"] == 1102 and report["delta_bound"] == 1103


def test_batch_flags_disconnected():
    code, out = run_cli(["batch"], stdin_text="A?\n")
    lines = [json.loads(l) for l in out.splitlines()]
    assert code == 0 and lines == [{"graph": "A?", "error": "graph is disconnected"}]


def test_batch_file_with_undecodable_bytes_reports_inline(tmp_path):
    path = tmp_path / "graphs.g6"
    path.write_bytes(C6.encode() + b"\nE?\xff\n" + P4.encode() + b"\n")
    code, out = run_cli(["batch", str(path)])
    lines = [json.loads(l) for l in out.splitlines()]
    assert code == 0 and len(lines) == 3
    assert "invalid graph6 character" in lines[1]["error"]
    assert lines[0]["graph"] == C6 and lines[2]["graph"] == P4


def test_batch_stdin_with_undecodable_bytes_under_strict_encoding():
    proc = subprocess.run(
        [sys.executable, "-m", "deltamsr", "batch"],
        input=b"E?\xff\nC~\n",
        capture_output=True,
        env=subprocess_env(PYTHONIOENCODING="utf-8"),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    lines = [json.loads(l) for l in proc.stdout.splitlines()]
    assert len(lines) == 2
    assert "invalid graph6 character" in lines[0]["error"]
    assert lines[1]["graph"] == "C~"


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "missing.json"],
        # a name that starts with a digit is read as an edge list, one that
        # starts with a letter as graph6
        ["recognize", "0-missing.txt"],
        ["recognize", "missing.g6"],
    ],
    ids=["verify", "recognize-edgelist", "recognize-graph6"],
)
def test_missing_input_file_is_named(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err)["error"]
    assert error.startswith("no such file") and argv[-1] in error


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "{dir}"],
        ["batch", "{dir}/missing.g6"],
        ["batch", "{dir}"],
        ["recognize", "{dir}"],
    ],
    ids=["verify-directory", "batch-missing-file", "batch-directory", "recognize-directory"],
)
def test_unreadable_input_files_are_input_errors(argv, tmp_path, capsys):
    argv = [a.format(dir=tmp_path) for a in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert str(tmp_path) in json.loads(captured.err)["error"]


# --- gen --------------------------------------------------------------------------


def test_gen_cycle_matches_library():
    code, out = run_cli(["gen", "cycle", "6"])
    assert code == 0 and out.strip() == C6


def test_gen_robertson():
    code, out = run_cli(["gen", "robertson"])
    from deltamsr import parse_graph6

    g = parse_graph6(out.strip())
    assert code == 0 and g.n == 19 and g.edge_count == 38


def test_gen_cartesian_prism():
    code_k3, k3 = run_cli(["gen", "complete", "3"])
    code_k2, k2 = run_cli(["gen", "complete", "2"])
    code, out = run_cli(["gen", "cartesian", k3.strip(), k2.strip()])
    assert code == 0
    import helpers
    from deltamsr import parse_graph6

    assert helpers.are_isomorphic(parse_graph6(out.strip()), complement(cycle(6)))


def test_gen_reads_graph_parameters_from_a_file_or_a_literal(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c6.g6").write_text(C6 + "\n")
    (tmp_path / "k2.txt").write_text("2\n0 1\n")
    expected = run_cli(["gen", "cartesian", C6, "A_"])
    assert expected[0] == 0
    assert run_cli(["gen", "cartesian", "c6.g6", "A_"]) == expected
    assert run_cli(["gen", "cartesian", "c6.g6", "k2.txt"]) == expected
    assert run_cli(["gen", "cartesian", "-", "A_"], C6) == expected
    capsys.readouterr()
    assert main(["gen", "corona", "A_", "missing.g6"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err)["error"]
    assert error.startswith("no such file") and "missing.g6" in error
    # a file parameter needs no stdin; gen cycle 6 is checked in
    # test_a_closed_stdin_is_no_error_where_none_is_read
    proc = run_with_closed("0", ["gen", "cartesian", str(tmp_path / "c6.g6"), "A_"])
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, expected[1], "")


def test_gen_refuses_stdin_for_both_graph_parameters(capsys):
    # stdin holds one graph; reading it for g left h an empty graph6 string
    for family in ("cartesian", "corona"):
        assert run_cli(["gen", family, "-", "-"], C6) == (2, "")
        error = json.loads(capsys.readouterr().err)["error"]
        assert error == "g and h both name stdin, which can be read only once"
    assert run_cli(["gen", "corona", "A_", "-"], C6)[0] == 0


def test_gen_corona_of_two_k1_is_k2():
    code, out = run_cli(["gen", "corona", "@", "@"])
    assert code == 0 and out.strip() == "A_"


def test_gen_rejects_bad_parameters():
    code, _ = run_cli(["gen", "cycle", "2"])
    assert code == 2


def test_gen_caps_vertex_count(monkeypatch, capsys):
    monkeypatch.setattr(graphs, "MAX_VERTICES", 10)
    k3 = to_graph6(complete(3))
    for argv, ok in (
        (["cycle", "10"], True),
        (["cycle", "11"], False),
        (["path", "11"], False),
        (["complete", "11"], False),
        (["star", "9"], True),
        (["star", "10"], False),
        (["mobius", "12"], False),
        (["cartesian", k3, k3], True),
        (["cartesian", k3, K4], False),
        (["corona", k3, "A_"], True),
        (["corona", k3, k3], False),
    ):
        code = main(["gen", *argv])
        captured = capsys.readouterr()
        if ok:
            assert code == 0 and parse_graph6(captured.out.strip()).n <= 10, argv
        else:
            assert code == 2 and captured.out == "", argv
            assert "input cap of 10" in json.loads(captured.err)["error"], argv


def test_gen_caps_edge_count(monkeypatch, capsys):
    # the builders count their edges arithmetically; each case names the
    # true count, so the error message checks that arithmetic
    monkeypatch.setattr(families, "MAX_EDGES", 10)
    k1, k2, k3 = (to_graph6(complete(n)) for n in (1, 2, 3))
    p4, p5 = to_graph6(path(4)), to_graph6(path(5))
    for argv, edges in (
        (["complete", "5"], 10),
        (["complete", "6"], 15),
        (["cartesian", k2, p4], 10),
        (["cartesian", k2, p5], 13),
        (["cartesian", k3, k3], 18),
        (["corona", K4, k1], 10),
        (["corona", k3, k2], 12),
    ):
        code = main(["gen", *argv])
        captured = capsys.readouterr()
        if edges <= 10:
            assert code == 0 and parse_graph6(captured.out.strip()).edge_count == edges, argv
        else:
            assert code == 2 and captured.out == "", argv
            error = json.loads(captured.err)["error"]
            assert f"edge count {edges} exceeds the cap of 10" in error, argv


# --- usage ------------------------------------------------------------------------


def run_process(argv) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "deltamsr", *argv],
        input="",
        capture_output=True,
        text=True,
        env=subprocess_env(),
        timeout=60,
    )


# each command line, and the text that names its offending token
USAGE_ERRORS = [
    ([], "command"),
    (["frobnicate"], "'frobnicate'"),
    (["certify", "--seed", "abc"], "invalid int value: 'abc'"),
    # the input names its own format, so --format is an unknown option
    (["recognize", "--format", "xml"], "unrecognized arguments: --format"),
    (["certify", "--format=g6", C6], "unrecognized arguments: --format=g6"),
    (["certify", "--bogus"], "--bogus"),
    (["verify", "a", "b"], ": b"),
    (["gen"], "family"),
    (["gen", "cycle"], ": n"),
    (["gen", "cycle", "x"], "'x'"),
    (["gen", "nosuch"], "'nosuch'"),
    (["certify", "--seed"], "expected one argument"),
    (["recognize", "--c-delta=1"], "unrecognized arguments: --c-delta=1"),
    (["gen", "robertson", "3"], ": 3"),
    (["gen", "cycle", "5", "6"], ": 6"),
    (["gen", "cartesian", C6], ": h"),
]


@pytest.mark.parametrize(
    "argv, named", USAGE_ERRORS, ids=[" ".join(argv) or "none" for argv, _ in USAGE_ERRORS]
)
def test_usage_errors_exit_2_naming_the_token(argv, named):
    proc = run_process(argv)
    assert proc.returncode == 2 and proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert lines[0].startswith("usage: deltamsr") and "Traceback" not in proc.stderr
    assert ": error: " in lines[-1] and named in lines[-1]


GEN_FAMILIES = ("cycle", "path", "complete", "star", "mobius", "robertson", "cartesian", "corona")


# each command and what its help must name
HELP_NAMES = [
    ([], ("-h", "recognize", "certify", "verify", "batch", "gen")),
    (["recognize"], ("-h", "--c-delta", "graph", "graph6", "edge list")),
    (["certify"], ("-h", "--seed", "--emit-gram", "graph", "graph6", "edge list")),
    (["verify"], ("-h", "bundle")),
    (["batch"], ("-h", "--seed", "input")),
    (["gen"], ("-h", *GEN_FAMILIES)),
]


@pytest.mark.parametrize(
    "command, names", HELP_NAMES, ids=[" ".join(command) or "top" for command, _ in HELP_NAMES]
)
def test_help_names_every_flag_and_family(command, names):
    proc = run_process([*command, "-h"])
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout.startswith(" ".join(["usage: deltamsr", *command]))
    missing = [name for name in names if name not in proc.stdout]
    assert not missing, proc.stdout


def test_main_returns_usage_exit_codes_in_process(capsys):
    assert main(["frobnicate"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("usage: deltamsr")
    assert "'frobnicate'" in captured.err
    assert main(["certify", "--help"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: deltamsr certify") and captured.err == ""
    # long options are not abbreviated
    assert main(["certify", "--emit", PRISM]) == 2
    assert capsys.readouterr().err.splitlines()[-1].endswith("unrecognized arguments: --emit")


def test_main_leaves_the_callers_collector_alone():
    # only a process's own exit path freezes the heap: a caller of main(),
    # this suite included, still has every object it leaves collected, and
    # a file it leaks still warns
    before = gc.get_freeze_count(), gc.isenabled()
    code, bundle = run_cli(["certify", "--emit-gram", PRISM])
    assert code == 0 and run_cli(["verify"], bundle)[0] == 0
    assert run_cli(["batch"], f"{C6}\n{PRISM}\n")[0] == 0
    assert (gc.get_freeze_count(), gc.isenabled()) == before


def test_options_go_before_or_after_the_positional():
    expected = run_cli(["certify", "--seed", "7", "--emit-gram", PRISM])
    assert expected[0] == 0
    for argv in (
        ["certify", PRISM, "--seed", "7", "--emit-gram"],
        ["certify", "--emit-gram", PRISM, "--seed=7"],
        ["certify", "--seed=7", "--emit-gram", "--", PRISM],
    ):
        assert run_cli(argv) == expected, argv
    assert run_cli(["certify", "--seed", "-5", PRISM])[0] == 0
    assert run_cli(["recognize", C6, "--c-delta"]) == run_cli(["recognize", "--c-delta", C6])


# What `python3 -m deltamsr` does, as the benchmark launches it, reporting at
# exit which of the named modules the program itself imported.
COLD_START = """\
import atexit, json, runpy, sys
HEAVY = {"__future__", "dataclasses", "inspect", "fractions", "decimal", "argparse", "gettext"}
HEAVY |= {
    "deltamsr." + m
    for m in ("batch", "construction", "families", "msr", "recognition", "orthorep")
}
preloaded = HEAVY & set(sys.modules)
atexit.register(lambda: print(json.dumps(sorted(HEAVY & set(sys.modules) - preloaded)), file=sys.stderr))
runpy.run_module("deltamsr", run_name="__main__", alter_sys=True)
"""


def cold_start(argv, stdin: str) -> tuple[int, str, list[str]]:
    """Exit code, stdout and the heavy modules imported, of one fresh process."""
    proc = subprocess.run(
        [sys.executable, "-c", COLD_START, *argv],
        input=stdin,
        capture_output=True,
        text=True,
        env=subprocess_env(),
        timeout=60,
    )
    return proc.returncode, proc.stdout, json.loads(proc.stderr.splitlines()[-1])


def test_cold_start_without_dataclasses_where_nothing_is_constructed():
    # nor fractions or decimal: every number a bundle holds is an integer;
    # no command parses its arguments with argparse, which loads gettext,
    # and each loads only the layers it runs
    # C6 is not a delta-graph: batch decides it by the cycle rule and loads
    # no construction layer
    code, out, heavy = cold_start(["batch"], C6 + "\n")
    assert code == 0 and json.loads(out)["verdict"] == "holds"
    batches = ["deltamsr.batch", "deltamsr.msr", "deltamsr.recognition"]
    assert heavy == batches
    # verify reads and checks a bundle without recognition
    bundle = run_cli(["certify", "--seed", "0", PRISM])[1]
    code, out, heavy = cold_start(["verify"], bundle)
    assert code == 0 and json.loads(out)["bound"] == 3
    assert heavy == ["deltamsr.orthorep"]
    # nor for a bundle with "p/1" text, as 0.13.0 and earlier wrote it, nor
    # for one with coordinates longer than the int/str digit limit
    p_1 = json.loads(bundle)
    p_1["representation"]["vectors"] = [
        [x + "/1" for x in vec] for vec in p_1["representation"]["vectors"]
    ]
    assert cold_start(["verify"], json.dumps(p_1)) == (0, out, heavy)
    long = json.loads(bundle)
    vectors = long["representation"]["vectors"]
    vectors[0] = [x + "0" * 5000 for x in vectors[0]]
    assert cold_start(["verify"], json.dumps(long)) == (0, out, heavy)
    # certify builds a GenericSampler, a plain class: neither dataclasses
    # nor inspect is imported, nor batch's code
    constructs = ["deltamsr.construction", "deltamsr.orthorep", "deltamsr.recognition"]
    code, out, heavy = cold_start(["certify", "--seed", "0", PRISM], "")
    assert code == 0 and out == bundle
    assert heavy == constructs
    # a batch loads the construction layers at its first delta-graph line
    code, out, heavy = cold_start(["batch"], f"{C6}\n{PRISM}\n")
    verdicts = [json.loads(line)["verdict"] for line in out.splitlines()]
    assert code == 0 and verdicts == ["holds", "holds-by-construction"]
    assert heavy == sorted({*constructs, *batches})
    code, out, heavy = cold_start(["recognize", "--c-delta", C6], "")
    assert code == 0 and heavy == ["deltamsr.recognition"]
    # only gen imports the family builders, and it loads nothing else, also
    # where it parses graph parameters
    code, out, heavy = cold_start(["gen", "cycle", "6"], "")
    assert code == 0 and out == C6 + "\n" and heavy == ["deltamsr.families"]
    argv = ["gen", "cartesian", "Bw", "A_"]
    code, out, heavy = cold_start(argv, "")
    assert (code, out) == run_cli(argv) and heavy == ["deltamsr.families"]
    code, out, heavy = cold_start(["-h"], "")
    assert code == 0 and out.startswith("usage: deltamsr") and heavy == []
    # help and usage errors are rendered from the table alone, gen's included
    code, out, heavy = cold_start(["gen", "-h"], "")
    assert code == 0 and out.startswith("usage: deltamsr gen") and heavy == []
    for argv in (["gen", "nosuch"], ["certify", "--bogus"]):
        assert cold_start(argv, "") == (2, "", []), argv


# Each way a process enters the CLI, after an exit hook that writes
# gc.get_freeze_count() to the file it is given: `python -m deltamsr`,
# `python -m deltamsr.cli`, and the console script, as the wrapper that pip
# writes for pyproject.toml's [project.scripts] target calls it.
ENTRY_HOOK = """\
import atexit, gc, runpy, sys
def report():
    with open({path!r}, "w") as fh:
        fh.write(str(gc.get_freeze_count()))
atexit.register(report)
"""
SCRIPT_TARGET = re.search(
    r'^deltamsr = "([\w.]+):(\w+)"$',
    (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text(),
    re.MULTILINE,
)
ENTRY_POINTS = {
    "-m deltamsr": 'runpy.run_module("deltamsr", run_name="__main__", alter_sys=True)',
    "-m deltamsr.cli": 'runpy.run_module("deltamsr.cli", run_name="__main__", alter_sys=True)',
    "script": "from {0} import {1}; sys.exit({1}())".format(*SCRIPT_TARGET.groups()),
}


def test_module_entry_point(tmp_path):
    # every entry point leaves by one exit path: the heap is frozen before
    # interpreter shutdown, exit hooks still run after it, and the output
    # and exit code are those of the other entry points and of main() called
    # in process
    bundle = run_cli(["certify", "--emit-gram", "--seed", "0", PRISM])[1]
    cases = [
        (["certify", "--emit-gram", "--seed", "0", PRISM], "", 0),
        (["verify"], bundle, 0),
        (["batch", "--seed", "0", str(helpers.ATLAS_PATH)], "", 0),
        (["recognize", "--c-delta", C6], "", 0),
        (["recognize", K4], "", 1),
        (["certify", "--bogus"], "", 2),
    ]
    for argv, stdin, code in cases:
        seen = set()
        for name, launch in ENTRY_POINTS.items():
            path = tmp_path / "freeze_count"
            proc = subprocess.run(
                [sys.executable, "-c", ENTRY_HOOK.format(path=str(path)) + launch, *argv],
                input=stdin,
                capture_output=True,
                text=True,
                env=subprocess_env(),
                timeout=60,
            )
            assert int(path.read_text()) > 0, (name, argv)
            path.unlink()
            seen.add((proc.returncode, proc.stdout, proc.stderr))
        assert len(seen) == 1, argv
        ((returncode, out, err),) = seen
        assert (returncode, out) == run_cli(argv, stdin) and returncode == code, argv
        assert "Traceback" not in err, (argv, err)
