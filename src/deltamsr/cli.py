"""Command-line front end.

Subcommands: ``recognize`` (delta / C-delta membership), ``certify``
(certificate + exact representation bundle), ``verify`` (re-check an
emitted bundle), ``batch`` (one Delta Conjecture report per graph6 line)
and ``gen`` (family generators emitting graph6).

Exit codes: 0 success or present, 1 clean negative, 2 input error,
3 internal failure (resampling budget exhausted).  The GRAPH_SEED
environment variable supplies the default --seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import families
from .graphs import Graph, is_connected, min_degree, parse_edge_list, parse_graph6, to_graph6
from .msr import check_delta_conjecture
from .orthorep import (
    GenericSampler,
    RetryBudgetExceeded,
    construct,
    gram,
    gram_to_json_dict,
    rep_from_json_dict,
    rep_to_json_dict,
    verify_rep,
)
from .recognition import recognize_c_delta, recognize_delta

__all__ = ["main"]


def _default_seed() -> int:
    return int(os.environ.get("GRAPH_SEED", "0"))


def _print_json(obj) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


def _fail(message: str, code: int) -> int:
    print(json.dumps({"error": message}), file=sys.stderr)
    return code


def _read_text(source: str | None) -> str:
    if source is None or source == "-":
        return sys.stdin.read()
    return source


def _load_graph(args) -> Graph:
    if args.format == "edgelist":
        text = _read_text(args.graph)
        if args.graph is not None and args.graph != "-" and os.path.exists(args.graph):
            with open(args.graph) as fh:
                text = fh.read()
        return parse_edge_list(text)
    text = _read_text(args.graph).strip()
    return parse_graph6(text)


def _cmd_recognize(args) -> int:
    try:
        g = _load_graph(args)
    except ValueError as exc:
        return _fail(str(exc), 2)
    recognizer = recognize_c_delta if args.c_delta else recognize_delta
    cert = recognizer(g)
    if cert is None:
        print("absent")
        return 1
    _print_json(cert.to_json_dict())
    return 0


def _cmd_certify(args) -> int:
    try:
        g = _load_graph(args)
    except ValueError as exc:
        return _fail(str(exc), 2)
    cert = recognize_delta(g)
    if cert is None:
        return _fail("graph was not recognized as a delta-graph", 1)
    try:
        rep = construct(g, cert, GenericSampler(seed=args.seed))
    except RetryBudgetExceeded as exc:
        return _fail(str(exc), 3)
    report = verify_rep(g, rep)
    bundle = {
        "graph6": to_graph6(g),
        "n": g.n,
        "certificate": cert.to_json_dict(),
        "dim": rep.dim,
        "bound": report.bound,
        "delta_bound": g.n - min_degree(g),
        "seed": args.seed,
        "representation": rep_to_json_dict(rep),
        "checks": {
            "pattern": report.pattern_ok,
            "nonzero": report.nonzero_ok,
            "independent": report.independent_ok,
            "dimension": report.dimension_ok,
        },
    }
    if args.emit_gram:
        bundle["gram"] = gram_to_json_dict(gram(rep))
    _print_json(bundle)
    return 0


def _cmd_verify(args) -> int:
    try:
        text = _read_text(args.bundle)
        if args.bundle is not None and args.bundle != "-" and os.path.exists(args.bundle):
            with open(args.bundle) as fh:
                text = fh.read()
        data = json.loads(text)
        g = parse_graph6(data["graph6"])
        rep = rep_from_json_dict(data["representation"])
    except (ValueError, KeyError, TypeError) as exc:
        return _fail(f"bad bundle: {exc}", 2)
    report = verify_rep(g, rep)
    _print_json(
        {
            "bound": report.bound,
            "checks": {
                "pattern": report.pattern_ok,
                "nonzero": report.nonzero_ok,
                "independent": report.independent_ok,
                "dimension": report.dimension_ok,
            },
        }
    )
    return 0 if report.all_ok else 1


def _cmd_batch(args) -> int:
    if args.input is None or args.input == "-":
        lines = sys.stdin.read().splitlines()
    else:
        with open(args.input) as fh:
            lines = fh.read().splitlines()
    for line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            g = parse_graph6(line)
        except ValueError as exc:
            print(json.dumps({"graph": line, "error": str(exc)}, sort_keys=True))
            continue
        if not is_connected(g):
            print(json.dumps({"graph": line, "error": "graph is disconnected"}, sort_keys=True))
            continue
        try:
            report = check_delta_conjecture(g, seed=args.seed, graph_id=line)
        except RetryBudgetExceeded as exc:
            print(json.dumps({"graph": line, "error": str(exc)}, sort_keys=True))
            continue
        print(json.dumps(report.to_json_dict(), sort_keys=True))
    return 0


# gen family -> builder from the parsed arguments
_GEN_BUILDERS = {
    "cycle": lambda a: families.cycle(a.n),
    "path": lambda a: families.path(a.n),
    "complete": lambda a: families.complete(a.n),
    "star": lambda a: families.star(a.n),
    "mobius": lambda a: families.mobius_ladder(a.n),
    "robertson": lambda a: families.robertson_cage(),
    "cartesian": lambda a: families.cartesian_product(parse_graph6(a.g), parse_graph6(a.h)),
    "corona": lambda a: families.corona(parse_graph6(a.g), parse_graph6(a.h)),
}


def _cmd_gen(args) -> int:
    try:
        g = _GEN_BUILDERS[args.family](args)
    except ValueError as exc:
        return _fail(str(exc), 2)
    print(to_graph6(g))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deltamsr",
        description="delta-graph recognition and msr certification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_graph_input(p):
        p.add_argument("graph", nargs="?", help="graph6 string (default: stdin)")
        p.add_argument(
            "--format",
            choices=("g6", "edgelist"),
            default="g6",
            help="input format; edgelist is 'n' then one 'u v' line per edge",
        )

    p = sub.add_parser("recognize", help="find a delta or C-delta certificate")
    add_graph_input(p)
    p.add_argument("--c-delta", action="store_true", help="recognize the complement form")
    p.set_defaults(func=_cmd_recognize)

    p = sub.add_parser("certify", help="certificate + representation bundle")
    add_graph_input(p)
    p.add_argument("--seed", type=int, default=_default_seed())
    p.add_argument("--emit-gram", action="store_true")
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("verify", help="re-verify an emitted certify bundle")
    p.add_argument("bundle", nargs="?", help="bundle JSON file or literal (default: stdin)")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("batch", help="Delta Conjecture report per graph6 line")
    p.add_argument("input", nargs="?", help="file of graph6 lines (default: stdin)")
    p.add_argument("--seed", type=int, default=_default_seed())
    p.set_defaults(func=_cmd_batch)

    p = sub.add_parser("gen", help="emit a named family member as graph6")
    gen_sub = p.add_subparsers(dest="family", required=True)
    for name, helptext in (
        ("cycle", "cycle C_n"),
        ("path", "path P_n"),
        ("complete", "complete graph K_n"),
        ("star", "star K_{1,n} with n leaves"),
        ("mobius", "Moebius ladder on n vertices (even n >= 6)"),
    ):
        q = gen_sub.add_parser(name, help=helptext)
        q.add_argument("n", type=int)
        q.set_defaults(func=_cmd_gen)
    q = gen_sub.add_parser("robertson", help="Robertson (4,5)-cage")
    q.set_defaults(func=_cmd_gen)
    for name, helptext in (
        ("cartesian", "Cartesian (box) product of two graph6 graphs"),
        ("corona", "corona of two graph6 graphs"),
    ):
        q = gen_sub.add_parser(name, help=helptext)
        q.add_argument("g")
        q.add_argument("h")
        q.set_defaults(func=_cmd_gen)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
