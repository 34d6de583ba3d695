import io
import json
import subprocess
import sys

from deltamsr import complement, to_graph6
from deltamsr.cli import main
from deltamsr.families import complete, cycle, path

C6 = to_graph6(cycle(6))
K4 = to_graph6(complete(4))
P4 = to_graph6(path(4))
PRISM = to_graph6(complement(cycle(6)))


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


def test_certify_rejects_non_delta_graph():
    code, _ = run_cli(["certify", to_graph6(cycle(4))])
    assert code == 1


def test_certify_then_verify_roundtrip():
    _, out = run_cli(["certify", "--seed", "3", PRISM])
    code, report = run_cli(["verify"], stdin_text=out)
    assert code == 0
    assert all(json.loads(report)["checks"].values())


def test_verify_detects_tampering():
    _, out = run_cli(["certify", "--seed", "3", PRISM])
    bundle = json.loads(out)
    bundle["representation"]["vectors"][0][0] = "0/1"
    code, report = run_cli(["verify"], stdin_text=json.dumps(bundle))
    assert code == 1
    assert not json.loads(report)["checks"]["nonzero"]


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


def test_batch_flags_disconnected():
    code, out = run_cli(["batch"], stdin_text="A?\n")
    lines = [json.loads(l) for l in out.splitlines()]
    assert code == 0 and "error" in lines[0]


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


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "deltamsr", "recognize", "--c-delta", C6],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["base_kind"] in ("K3", "P3")
