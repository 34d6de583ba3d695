import io
import json
import os
import selectors
import subprocess
import sys
from pathlib import Path

import pytest

import deltamsr.cli
import deltamsr.msr
from deltamsr import OrthoRep, complement, from_edge_list, graphs, parse_graph6, recognition, to_graph6
from deltamsr.cli import main
from deltamsr.families import complete, cycle, path

C6 = to_graph6(cycle(6))
K4 = to_graph6(complete(4))
P4 = to_graph6(path(4))
PRISM = to_graph6(complement(cycle(6)))
# a delta-graph on 24 vertices in which vertex m misses exactly
# floor(m/2) - 1 of its priors; its search expands 379 vertex sets
TIGHT24 = "Wue}~rEufIJEHaYeesWP|rqMBcye^bHlmIkyLgfuRnXu[vm"


def subprocess_env(**extra):
    """The environment for running this checkout's deltamsr in a fresh process."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    return dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""), **extra)


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


def test_recognize_edgelist_vertex_cap():
    code, _ = run_cli(["recognize", "--format", "edgelist", f"{10**18}\n0 1\n"])
    assert code == 2


def test_recognize_edgelist_format():
    text = "6\n0 1\n1 2\n2 3\n3 4\n4 5\n5 0\n"
    code, out = run_cli(["recognize", "--c-delta", "--format", "edgelist", text])
    assert code == 0


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
    monkeypatch.setenv("GRAPH_SEED", "7")
    env_out = run_cli(["certify", PRISM])
    flag_out = run_cli(["certify", "--seed", "7", PRISM])
    assert env_out == flag_out


def test_non_integer_env_seed_is_an_error_only_where_a_seed_is_taken():
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
    for argv in (("certify", PRISM), ("batch",)):
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
    monkeypatch.setattr(deltamsr.cli, "construct", duplicating_construct(deltamsr.cli.construct))
    assert main(["certify", PRISM]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err)
    assert error["failed_pair"] == [0, 3]
    assert "failed verification" in error["error"]


def test_batch_reports_self_check_failure_inline(monkeypatch):
    monkeypatch.setattr(deltamsr.msr, "construct", duplicating_construct(deltamsr.msr.construct))
    code, out = run_cli(["batch"], stdin_text=f"{PRISM}\n{C6}\n")
    lines = [json.loads(l) for l in out.splitlines()]
    assert code == 0 and len(lines) == 2
    assert lines[0]["graph"] == PRISM
    assert "failed verification, failed_pair [0, 3]" in lines[0]["error"]
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

    for bundle, message in (
        (short, "representation size does not match the graph"),
        (not_text, "graph6 must be a string"),
        (with_dim(3.9), "dim must be an integer"),
        (with_dim("3"), "dim must be an integer"),
    ):
        assert main(["verify", json.dumps(bundle)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in json.loads(captured.err)["error"]


def test_verify_reads_long_coordinates_in_a_fresh_process():
    # scaling a vector by 10**5000 keeps the pattern; the coordinates are then
    # longer than the interpreter's default int/str digit limit
    _, out = run_cli(["certify", "--seed", "3", PRISM])
    bundle = json.loads(out)
    vectors = bundle["representation"]["vectors"]
    vectors[0] = [p + "0" * 5000 + "/" + q for p, q in (x.split("/") for x in vectors[0])]
    proc = subprocess.run(
        [sys.executable, "-m", "deltamsr", "verify"],
        input=json.dumps(bundle),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert all(json.loads(proc.stdout)["checks"].values())


def test_verify_rejects_non_decimal_coordinates():
    _, out = run_cli(["certify", "--seed", "3", PRISM])
    for bad in ("1e999999999", "1/0", "0x10/1"):
        bundle = json.loads(out)
        bundle["representation"]["vectors"][0][0] = bad
        code, _ = run_cli(["verify"], stdin_text=json.dumps(bundle))
        assert code == 2, bad


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


def test_batch_streams_each_report():
    # the report for one line arrives while stdin is still open
    proc = subprocess.Popen(
        [sys.executable, "-m", "deltamsr", "batch"],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
        env=subprocess_env(),
    )
    try:
        proc.stdin.write(C6 + "\n")
        proc.stdin.flush()
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            assert sel.select(timeout=20), "no report before stdin closed"
        assert json.loads(proc.stdout.readline())["graph"] == C6
        proc.stdin.close()
        assert proc.wait(timeout=30) == 0
    finally:
        proc.kill()
        proc.wait()


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
    assert code == 0 and "error" in lines[0]


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
        ["verify", "{dir}/missing.json"],
        ["recognize", "--format", "edgelist", "{dir}/missing.txt"],
        ["recognize", "{dir}/missing.g6"],
    ],
    ids=["verify", "recognize-edgelist", "recognize-graph6"],
)
def test_missing_input_file_is_named(argv, tmp_path, capsys):
    argv = [a.format(dir=tmp_path) for a in argv]
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
        ["recognize", "--format", "edgelist", "{dir}"],
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


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "deltamsr", "recognize", "--c-delta", C6],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["base_kind"] in ("K3", "P3")
