"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
All equalities are exact (rational arithmetic end to end); the only
tolerances are the stated wall-clock budgets.
"""

import io
import json
import random
import sys
import time
from functools import lru_cache

from deltamsr import (
    GenericSampler,
    check_certificate,
    clique_cover_number,
    complement,
    construct,
    is_connected,
    min_degree,
    msr_exact,
    parse_graph6,
    recognize_c_delta,
    recognize_delta,
    to_graph6,
    verify_rep,
)
from deltamsr.cli import main as cli_main
from deltamsr.families import cycle, robertson_cage

import helpers


def _report(number: int, ok: bool, detail: str) -> None:
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def _atlas_lines() -> list[str]:
    return helpers.ATLAS_PATH.read_text().splitlines()


@lru_cache(maxsize=1)
def _qualifying_graphs():
    """Connected graphs with connected complement, 4 <= n <= 7, from the atlas file."""
    out = []
    for line in _atlas_lines():
        g = parse_graph6(line)
        if 4 <= g.n <= 7 and is_connected(g) and is_connected(complement(g)):
            out.append((line, g))
    return tuple(out)


@lru_cache(maxsize=1)
def _recognized_delta_graphs():
    return tuple(
        (line, g, recognize_delta(g))
        for line, g in _qualifying_graphs()
        if recognize_delta(g) is not None
    )


def test_atlas_file_is_sound():
    counts: dict[int, int] = {}
    for line in _atlas_lines():
        g = parse_graph6(line)
        counts[g.n] = counts.get(g.n, 0) + 1
        assert to_graph6(g) == line
    assert counts == helpers.ATLAS_COUNTS


def test_criterion_1_cycle_family():
    start = time.monotonic()
    failures = []
    for n in range(6, 11):
        cn = cycle(n)
        if recognize_c_delta(cn) is None:
            failures.append(f"C{n} not recognized")
            continue
        gbar = complement(cn)
        cert = recognize_delta(gbar)
        rep = construct(gbar, cert, GenericSampler(seed=0))
        report = verify_rep(gbar, rep)
        if not (report.all_ok and rep.dim == 3):
            failures.append(f"complement(C{n}) construction failed")
        if min_degree(gbar) != n - 3 or report.bound != 3:
            failures.append(f"complement(C{n}) bound is not 3 = n - (n-3)")
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 1.0
    _report(1, ok, f"cycles n=6..10 certified in dimension 3 ({elapsed:.2f}s)" if ok
            else f"{failures} elapsed={elapsed:.2f}s")


def test_criterion_2_msr_formulas():
    start = time.monotonic()
    failures = []
    rng = random.Random(20240809)
    for _ in range(50):
        t = helpers.random_tree(rng.randint(2, 12), rng)
        if msr_exact(t) != t.n - 1:
            failures.append(f"tree {to_graph6(t)}")
    for n in range(3, 13):
        if msr_exact(cycle(n)) != n - 2:
            failures.append(f"C{n}")
    chordal_checked = 0
    for line in _atlas_lines():
        g = parse_graph6(line)
        if not is_connected(g):
            continue
        if clique_cover_number(g, (1 << g.n) - 1) is None:
            continue
        chordal_checked += 1
        if msr_exact(g) != helpers.min_edge_clique_cover(g):
            failures.append(f"chordal {line}")
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 30.0 and chordal_checked > 300
    _report(2, ok, f"50 trees, 10 cycles, {chordal_checked} chordal graphs exact "
            f"({elapsed:.1f}s)" if ok else f"{failures[:5]} elapsed={elapsed:.1f}s")


def test_criterion_3_recognition_soundness_completeness():
    start = time.monotonic()
    failures = []
    for line, g in _qualifying_graphs():
        fast = recognize_delta(g)
        slow = helpers.brute_force_recognize(g)
        if (fast is None) != (slow is None):
            failures.append(f"disagreement on {line}")
        for cert in (fast, slow):
            if cert is not None and not check_certificate(g, cert).ok:
                failures.append(f"invalid certificate on {line}")
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 300.0
    _report(3, ok, f"search = oracle on {len(_qualifying_graphs())} graphs, "
            f"all certificates verify ({elapsed:.1f}s)" if ok
            else f"{failures[:5]} elapsed={elapsed:.1f}s")


def test_criterion_4_construction_totality():
    start = time.monotonic()
    failures = []
    recognized = _recognized_delta_graphs()
    for line, g, cert in recognized:
        for seed in range(5):
            rep = construct(g, cert, GenericSampler(seed=seed))
            report = verify_rep(g, rep)
            if not report.all_ok or report.bound != g.n - min_degree(g):
                failures.append(f"{line} seed={seed}")
    elapsed = time.monotonic() - start
    ok = not failures
    _report(4, ok, f"{len(recognized)} delta-graphs x seeds 0..4: all four checks "
            f"pass, budget never exceeded ({elapsed:.1f}s)" if ok else f"{failures[:5]}")


def test_criterion_5_robertson_cage():
    start = time.monotonic()
    failures = []
    cage = robertson_cage()
    if not (cage.n == 19 and min_degree(cage) == 4 and helpers.girth(cage) == 5
            and cage.edge_count == 38):
        failures.append("cage parameters wrong")
    if recognize_c_delta(cage) is None:
        failures.append("cage not recognized as C-delta")
    gbar = complement(cage)
    cert = recognize_delta(gbar)
    rep = construct(gbar, cert, GenericSampler(seed=0))
    report = verify_rep(gbar, rep)
    if not (report.all_ok and rep.dim == 5):
        failures.append("complement construction not verified in dimension 5")
    if report.bound != 5 or min_degree(gbar) != 14:
        failures.append("bound is not 5 = 19 - 14")
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 10.0
    _report(5, ok, f"19-vertex 4-regular girth-5 cage; complement certified "
            f"msr <= 5 ({elapsed:.1f}s)" if ok else f"{failures} elapsed={elapsed:.1f}s")


def test_criterion_6_small_order_sweep():
    start = time.monotonic()
    lines = [
        line for line in _atlas_lines()
        if (g := parse_graph6(line)).n <= 6 and is_connected(g)
    ]
    out = io.StringIO()
    old_stdout, old_stdin = sys.stdout, sys.stdin
    sys.stdout, sys.stdin = out, io.StringIO("\n".join(lines) + "\n")
    try:
        code = cli_main(["batch"])
    finally:
        sys.stdout, sys.stdin = old_stdout, old_stdin
    reports = [json.loads(l) for l in out.getvalue().splitlines()]
    violations = [
        r for r in reports
        if "error" in r
        or (r["verdict"] != "unresolved" and r["certified_hi"] > r["delta_bound"])
    ]
    elapsed = time.monotonic() - start
    ok = code == 0 and len(reports) == len(lines) and not violations and elapsed < 60.0
    _report(6, ok, f"batch over {len(lines)} connected graphs n<=6: no resolved "
            f"report beats the delta bound ({elapsed:.1f}s)" if ok
            else f"{violations[:3]} elapsed={elapsed:.1f}s")


def test_criterion_7_determinism():
    prism = to_graph6(complement(cycle(6)))

    def run():
        out = io.StringIO()
        old = sys.stdout
        sys.stdout = out
        try:
            code = cli_main(["certify", "--seed", "7", prism])
        finally:
            sys.stdout = old
        return code, out.getvalue().encode()

    first = run()
    second = run()
    ok = first[0] == 0 and first == second
    _report(7, ok, "certify --seed 7 on the 3-prism is byte-identical across runs")
