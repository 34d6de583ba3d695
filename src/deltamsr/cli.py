"""Command-line front end.

Subcommands: ``recognize`` (delta / C-delta membership), ``certify``
(certificate + exact representation bundle), ``verify`` (re-check an
emitted bundle), ``batch`` (one Delta Conjecture report per graph6 line)
and ``gen`` (family generators emitting graph6).

Exit codes: 0 success or present, 1 clean negative (for ``verify``, a
failed check or a bundled Gram entry that differs from the inner
product), 2 input error, 3 internal failure (resampling and restart budget
exhausted, or a constructed representation that fails its own
verification), 4 undecided (the recognition search budget ran out), 141
output closed by its reader (as a shell reports a program that SIGPIPE
ends; no traceback is printed).  ``batch`` reports each of the failures
2 to 4 inline and goes on.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import os
import sys

from .graphs import (
    Graph, complement, is_connected, min_degree, parse_edge_list, parse_graph6, to_graph6
)
from .msr import check_delta_conjecture
from .orthorep import (
    RepReport,
    RetryBudgetExceeded,
    SelfCheckFailed,
    construct_verified,
    gram,
    gram_mismatch,
    gram_to_json_dict,
    rep_from_json_dict,
    rep_to_json_dict,
    verify_rep,
)
from .recognition import SearchBudgetExceeded, recognize_delta

__all__ = ["main"]


def _print_json(obj) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


def _fail(message: str, code: int, **details) -> int:
    print(json.dumps({"error": message, **details}), file=sys.stderr)
    return code


def _parse_file_or_literal(source: str | None, parse):
    """Parse stdin for None or "-", else the file that source names, else source itself."""
    if source is None or source == "-":
        return parse(sys.stdin.read())
    if os.path.exists(source):
        with open(source) as fh:
            return parse(fh.read())
    try:
        return parse(source)
    except ValueError as exc:
        raise FileNotFoundError(f"no such file {source!r}, and it does not parse: {exc}") from exc


def _checks(report: RepReport) -> dict:
    return {
        "pattern": report.pattern_ok,
        "nonzero": report.nonzero_ok,
        "independent": report.independent_ok,
        "dimension": report.dimension_ok,
    }


def _load_graph(args) -> Graph:
    parse = parse_edge_list if args.format == "edgelist" else parse_graph6
    return _parse_file_or_literal(args.graph, parse)


# the complement's base triple as G induces it; the ordering and counts carry over
_C_DELTA_BASE_KIND = {"3K1": "K3", "K2+K1": "P3"}


def _cmd_recognize(args) -> int:
    try:
        g = _load_graph(args)
    except (ValueError, OSError) as exc:
        return _fail(str(exc), 2)
    try:
        cert = recognize_delta(complement(g) if args.c_delta else g)
    except SearchBudgetExceeded as exc:
        return _fail(str(exc), 4)
    if cert is None:
        print("absent")
        return 1
    out = cert.to_json_dict()
    if args.c_delta:
        out["base_kind"] = _C_DELTA_BASE_KIND[cert.base_kind]
    _print_json(out)
    return 0


def _cmd_certify(args) -> int:
    try:
        g = _load_graph(args)
    except (ValueError, OSError) as exc:
        return _fail(str(exc), 2)
    try:
        cert = recognize_delta(g)
    except SearchBudgetExceeded as exc:
        return _fail(str(exc), 4)
    if cert is None:
        return _fail("graph was not recognized as a delta-graph", 1)
    try:
        rep, report = construct_verified(g, cert, args.seed)
    except RetryBudgetExceeded as exc:
        return _fail(str(exc), 3)
    except SelfCheckFailed as exc:
        return _fail(str(exc), 3, failed_pair=exc.failed_pair)
    bundle = {
        "graph6": to_graph6(g),
        "n": g.n,
        "certificate": cert.to_json_dict(),
        "dim": rep.dim,
        "bound": report.bound,
        "delta_bound": g.n - min_degree(g),
        "seed": args.seed,
        "representation": rep_to_json_dict(rep),
        "checks": _checks(report),
    }
    if args.emit_gram:
        bundle["gram"] = gram_to_json_dict(gram(rep))
    _print_json(bundle)
    return 0


def _cmd_verify(args) -> int:
    try:
        data = _parse_file_or_literal(args.bundle, json.loads)
        if not isinstance(data["graph6"], str):
            raise TypeError("graph6 must be a string")
        g = parse_graph6(data["graph6"])
        rep = rep_from_json_dict(data["representation"])
        report = verify_rep(g, rep)
        gram_entry = gram_mismatch(rep, data["gram"]) if "gram" in data else None
    except OSError as exc:
        return _fail(str(exc), 2)
    except (ValueError, KeyError, TypeError, RecursionError) as exc:
        return _fail(f"bad bundle: {exc}", 2)
    checks = _checks(report)
    if "gram" in data:
        checks["gram"] = gram_entry is None
    result = {"bound": None if gram_entry else report.bound, "checks": checks}
    if not report.all_ok:
        result["failed_pair"] = report.failed_pair
    if gram_entry:
        result["gram_entry"] = gram_entry
    _print_json(result)
    return 0 if report.all_ok and not gram_entry else 1


def _batch_line(line: str, seed: int) -> dict:
    try:
        g = parse_graph6(line)
    except ValueError as exc:
        return {"graph": line, "error": str(exc)}
    if not is_connected(g):
        return {"graph": line, "error": "graph is disconnected"}
    try:
        return check_delta_conjecture(g, seed=seed, graph_id=line).to_json_dict()
    except (RetryBudgetExceeded, SearchBudgetExceeded, SelfCheckFailed) as exc:
        return {"graph": line, "error": str(exc)}


def _cmd_batch(args) -> int:
    """One report line per input line, each written as soon as it is known."""
    if args.input is None or args.input == "-":
        if isinstance(sys.stdin, io.TextIOWrapper):
            # undecodable bytes become error lines whatever the locale's error handler
            sys.stdin.reconfigure(errors="surrogateescape")
        source = contextlib.nullcontext(sys.stdin)
    else:
        try:
            source = open(args.input, errors="surrogateescape")
        except OSError as exc:
            return _fail(str(exc), 2)
    with source as lines:
        for line in lines:
            line = line.strip()
            if line:
                print(json.dumps(_batch_line(line, args.seed), sort_keys=True), flush=True)
    return 0


# gen family -> (help text, positional arguments, builder in deltamsr.families);
# n is an int, g and h are graph6 text
_GEN_FAMILIES = {
    "cycle": ("cycle C_n", "n", "cycle"),
    "path": ("path P_n", "n", "path"),
    "complete": ("complete graph K_n", "n", "complete"),
    "star": ("star K_{1,n} with n leaves", "n", "star"),
    "mobius": ("Moebius ladder on n vertices (even n >= 6)", "n", "mobius_ladder"),
    "robertson": ("Robertson (4,5)-cage", "", "robertson_cage"),
    "cartesian": (
        "Cartesian (box) product of two graph6 graphs", "gh", "cartesian_product"
    ),
    "corona": ("corona of two graph6 graphs", "gh", "corona"),
}


def _cmd_gen(args) -> int:
    # imported where it is used: no other subcommand needs the builders
    from . import families

    _, params, builder = _GEN_FAMILIES[args.family]
    build = getattr(families, builder)
    try:
        g = build(*(args.n if p == "n" else parse_graph6(getattr(args, p)) for p in params))
    except ValueError as exc:
        return _fail(str(exc), 2)
    print(to_graph6(g))
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The whole argparse tree, built once per process; parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="deltamsr",
        description="delta-graph recognition and msr certification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_graph_input(p):
        p.add_argument("graph", nargs="?", help="graph file or literal (default: stdin)")
        p.add_argument(
            "--format",
            choices=("g6", "edgelist"),
            default="g6",
            help="input format; edgelist is 'n' then one 'u v' line per edge",
        )

    p = sub.add_parser("recognize", help="find a delta or C-delta certificate")
    add_graph_input(p)
    p.add_argument("--c-delta", action="store_true", help="search the complement (C-delta)")
    p.set_defaults(func=_cmd_recognize)

    p = sub.add_parser("certify", help="certificate + representation bundle")
    add_graph_input(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--emit-gram", action="store_true")
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("verify", help="re-verify an emitted certify bundle")
    p.add_argument("bundle", nargs="?", help="bundle JSON file or literal (default: stdin)")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("batch", help="Delta Conjecture report per graph6 line")
    p.add_argument("input", nargs="?", help="file of graph6 lines (default: stdin)")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_batch)

    p = sub.add_parser("gen", help="emit a named family member as graph6")
    gen_sub = p.add_subparsers(dest="family", required=True)
    for name, (helptext, params, _) in _GEN_FAMILIES.items():
        q = gen_sub.add_parser(name, help=helptext)
        for param in params:
            q.add_argument(param, type=int if param == "n" else str)
    p.set_defaults(func=_cmd_gen)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout; the interpreter flushes it again at
        # exit, so point it at devnull to keep that flush quiet too
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        # what a shell reports for a program that SIGPIPE ends: 128 + 13
        return 141
    return code


if __name__ == "__main__":
    sys.exit(main())
