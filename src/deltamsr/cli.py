"""Command-line front end.

Subcommands: ``recognize`` (delta / C-delta membership), ``certify``
(certificate + exact representation bundle), ``verify`` (re-check an
emitted bundle), ``batch`` (one Delta Conjecture report per graph6 line)
and ``gen`` (family generators emitting graph6).  ``recognize``,
``certify`` and ``gen``'s graph parameters each read a file, stdin for
``-`` (for one of ``gen``'s two at most), or else the argument itself,
holding graph6 or an edge list, and tell the two apart by the first
non-blank character: every graph6 character lies in ``>``..``~``, and an
edge list starts with its vertex count, a digit or a sign; ``verify``'s
bundles and ``batch``'s lines hold graph6 only.  ``batch``'s reading,
sharing and writing live in ``deltamsr.batch``, which only ``batch``
loads.

One table, ``_COMMANDS``, holds each subcommand's help, positional,
options and handler, and drives parsing, ``-h``/``--help`` and usage
errors; ``gen <family> <params>`` reads ``_GEN_FAMILIES``.  Options go
before or after the positional, as ``--opt value`` or ``--opt=value``;
``--`` ends them, and a long option is never abbreviated.  A usage error
writes the usage line and ``deltamsr <cmd>: error: ...`` to stderr as
plain text and exits 2; help goes to stdout and exits 0.  Each handler
imports the modules it runs, and each layer imports the next where it is
first called, so a process compiles and loads only what its subcommand and
input reach: ``gen`` only the family builders, ``verify`` only
``orthorep``, ``certify`` construction with ``orthorep``, recognition and
the sampler, only ``batch`` its own module and the msr engine, and
``batch`` construction only at its first delta-graph line.

Exit codes: 0 success or present, 1 clean negative (for ``verify``, a
failed check or a bundled Gram entry that differs from the inner
product), 2 input or usage error (a process started with its stdout
closed, or with its stdin closed where it reads stdin, included), 3
internal failure (resampling and restart budget exhausted, or a
constructed representation that fails its own verification), 4 undecided
(the recognition search budget ran out), 141 output closed by its reader
(as a shell reports a program that SIGPIPE ends; no traceback is
printed).  The failures behind 3 and 4 are the package's three failure
classes, and one table, ``_FAILURE_EXIT``, gives each its code: ``main``
returns that code for a failure that escapes a handler, and ``batch``
instead reports each of them, like each input error, inline and goes on.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
import types
from typing import TYPE_CHECKING

from . import RetryBudgetExceeded, SearchBudgetExceeded, SelfCheckFailed
from .graphs import Graph, complement, min_degree, parse_edge_list, parse_graph6, to_graph6

if TYPE_CHECKING:
    from .orthorep import RepReport

__all__ = ["main"]

# failure that stops a graph before its answer -> exit code; batch reports
# each inline instead
_FAILURE_EXIT = {SearchBudgetExceeded: 4, RetryBudgetExceeded: 3, SelfCheckFailed: 3}


def _print_json(obj) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


def _fail(message: str, code: int, **details) -> int:
    print(json.dumps({"error": message, **details}), file=sys.stderr)
    return code


def _stdin():
    """sys.stdin; OSError when the process started with its stdin closed."""
    if sys.stdin is None:
        raise OSError("stdin is closed")
    return sys.stdin


# the input names that read stdin
_STDIN = (None, "-")


def _input(source: str | None):
    """A context manager for stdin when source is in _STDIN, else for the file it names.

    Raises OSError when that stream cannot be had: a closed stdin or a file that
    cannot be opened.
    """
    if source in _STDIN:
        return contextlib.nullcontext(_stdin())
    return open(source)


def _parse_file_or_literal(source: str | None, parse):
    """Parse the text of _input(source), or source itself when it names no file."""
    if source in _STDIN or os.path.exists(source):
        with _input(source) as stream:
            return parse(stream.read())
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


def _parse_graph(text: str) -> Graph:
    """The graph of graph6 or edge-list text, told apart by its first non-blank character.

    Every graph6 character, and the ">" that starts its optional header, lies
    in ">".."~"; an edge list starts with its vertex count, and int() takes
    only a sign or a digit there.  Text with no non-blank character is read
    as graph6, which names it empty.
    """
    first = text.lstrip()[:1]
    return parse_graph6(text) if not first or ">" <= first <= "~" else parse_edge_list(text)


# the complement's base triple as G induces it; the ordering and counts carry over
_C_DELTA_BASE_KIND = {"3K1": "K3", "K2+K1": "P3"}


def _cmd_recognize(args) -> int:
    from .recognition import recognize_delta

    try:
        g = _parse_file_or_literal(args.graph, _parse_graph)
    except (ValueError, OSError) as exc:
        return _fail(str(exc), 2)
    cert = recognize_delta(complement(g) if args.c_delta else g)
    if cert is None:
        print("absent")
        return 1
    out = cert.to_json_dict()
    if args.c_delta:
        out["base_kind"] = _C_DELTA_BASE_KIND[cert.base_kind]
    _print_json(out)
    return 0


def _cmd_certify(args) -> int:
    from .construction import construct_verified
    from .orthorep import gram, gram_to_json_dict, rep_to_json_dict
    from .recognition import recognize_delta

    try:
        g = _parse_file_or_literal(args.graph, _parse_graph)
    except (ValueError, OSError) as exc:
        return _fail(str(exc), 2)
    cert = recognize_delta(g)
    if cert is None:
        return _fail("graph was not recognized as a delta-graph", 1)
    rep, report = construct_verified(g, cert, args.seed)
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
    from .orthorep import gram_mismatch, rep_from_json_dict, verify_rep

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


def _cmd_batch(args) -> int:
    # imported where it runs, as each handler imports its layers: no other
    # subcommand compiles batch's code
    from . import batch

    return batch._cmd_batch(args)


# gen family -> (help text, positional arguments, builder in deltamsr.families);
# n is an int, g and h are graph6 or edge-list text
_GEN_FAMILIES = {
    "cycle": ("cycle C_n", "n", "cycle"),
    "path": ("path P_n", "n", "path"),
    "complete": ("complete graph K_n", "n", "complete"),
    "star": ("star K_{1,n} with n leaves", "n", "star"),
    "mobius": ("Moebius ladder on n vertices (even n >= 6)", "n", "mobius_ladder"),
    "robertson": ("Robertson (4,5)-cage", "", "robertson_cage"),
    "cartesian": (
        "Cartesian (box) product of two graphs", "gh", "cartesian_product"
    ),
    "corona": ("corona of two graphs", "gh", "corona"),
}


def _cmd_gen(args) -> int:
    # imported where it is used: no other subcommand needs the builders
    from . import families

    _, params, builder = _GEN_FAMILIES[args.family]
    build = getattr(families, builder)
    if params == "gh" and args.g in _STDIN and args.h in _STDIN:
        return _fail("g and h both name stdin, which can be read only once", 2)
    try:
        values = [
            args.n if p == "n" else _parse_file_or_literal(getattr(args, p), _parse_graph)
            for p in params
        ]
        g = build(*values)
    except (ValueError, OSError) as exc:
        return _fail(str(exc), 2)
    print(to_graph6(g))
    return 0


# option -> (value type, default, help); a switch has type None and default False
_GRAPH = (
    "graph",
    "graph file or literal (default: stdin): an edge list ('n', then one 'u v' line per"
    " edge) if its first non-blank character lies outside '>'..'~', as a digit does, else graph6",
)

# command -> (help, optional positional (name, help) or None, options, handler);
# gen's positionals are a family from _GEN_FAMILIES and that family's parameters
_COMMANDS = {
    "recognize": (
        "find a delta or C-delta certificate",
        _GRAPH,
        {"--c-delta": (None, False, "search the complement (C-delta)")},
        _cmd_recognize,
    ),
    "certify": (
        "certificate + representation bundle",
        _GRAPH,
        {
            "--seed": (int, 0, "construction seed (default: 0)"),
            "--emit-gram": (None, False, "add the exact Gram matrix to the bundle"),
        },
        _cmd_certify,
    ),
    "verify": (
        "re-verify an emitted certify bundle",
        ("bundle", "bundle JSON file or literal (default: stdin)"),
        {},
        _cmd_verify,
    ),
    "batch": (
        "Delta Conjecture report per graph6 line",
        ("input", "file of graph6 lines (default: stdin)"),
        {"--seed": (int, 0, "construction seed of every line (default: 0)")},
        _cmd_batch,
    ),
    "gen": ("emit a named family member as graph6", None, {}, _cmd_gen),
}
_HELP_FLAGS = ("-h", "--help")


class _UsageError(Exception):
    """A command line that _COMMANDS does not accept; command is "", "gen" or "gen <family>"."""

    def __init__(self, command: str, message: str):
        super().__init__(message)
        self.command = command


def _prog(command: str) -> str:
    return f"deltamsr {command}" if command else "deltamsr"


def _option_usage(flag: str, kind) -> str:
    return flag if kind is None else f"{flag} {flag[2:].upper()}"


def _usage(command: str) -> str:
    if command in ("", "gen"):
        names = _GEN_FAMILIES if command else _COMMANDS
        tail = f"{{{','.join(names)}}} ..."
    elif command.startswith("gen "):
        tail = " ".join(_GEN_FAMILIES[command[4:]][1])
    else:
        _, (positional, _), options, _ = _COMMANDS[command]
        flags = (f"[{_option_usage(flag, spec[0])}]" for flag, spec in options.items())
        tail = " ".join([*flags, f"[{positional}]"])
    return f"usage: {_prog(command)} [-h] {tail}".rstrip()


def _print_help(command: str) -> int:
    if not command:
        description = "delta-graph recognition and msr certification"
        rows = [(name, spec[0]) for name, spec in _COMMANDS.items()]
    elif command == "gen":
        description = (
            f"{_COMMANDS['gen'][0]}; n is an integer, g and h are graph6 or edge lists,"
            " each a file ('-' is stdin, for one of them at most) or a literal"
        )
        rows = [(" ".join((name, *spec[1])), spec[0]) for name, spec in _GEN_FAMILIES.items()]
    else:
        description, positional, options, _ = _COMMANDS[command]
        rows = [positional]
        rows += [(_option_usage(flag, spec[0]), spec[2]) for flag, spec in options.items()]
    rows.append((", ".join(_HELP_FLAGS), "show this help and exit"))
    print(_usage(command), "", description, "", sep="\n")
    for left, text in rows:
        print(f"  {left:<22}  {text}")
    return 0


def _is_option(token: str) -> bool:
    # "-" names stdin and "-3" is a number, as argparse read them
    return token.startswith("-") and token != "-" and not token[1:].isdigit()


def _convert(command: str, argument: str, kind, text: str, choices=None):
    try:
        value = kind(text)
    except ValueError:
        raise _UsageError(command, f"{argument}: invalid {kind.__name__} value: {text!r}") from None
    if choices and value not in choices:
        listed = ", ".join(map(repr, choices))
        raise _UsageError(command, f"{argument}: invalid choice: {text!r} (choose from {listed})")
    return value


def _parse(argv: list[str]):
    """(handler, argument) for a command line; help is a handler that prints it."""
    if not argv:
        raise _UsageError("", "the following arguments are required: command")
    command, tokens = argv[0], iter(argv[1:])
    if command in _HELP_FLAGS:
        return _print_help, ""
    _convert("", "argument command", str, command, _COMMANDS)
    _, positional, options, handler = _COMMANDS[command]
    values = {flag: spec[1] for flag, spec in options.items()}
    words = []
    for token in tokens:
        if token in _HELP_FLAGS:
            return _print_help, command
        if token == "--":
            words.extend(tokens)
        elif _is_option(token):
            flag, has_value, text = token.partition("=")
            kind = options.get(flag, (None,))[0]
            if flag not in options or kind is None and has_value:  # a switch takes no value
                raise _UsageError(command, f"unrecognized arguments: {token}")
            if kind is None:
                value = True
            else:
                if not has_value:
                    text = next(tokens, None)
                    if text is None:
                        raise _UsageError(command, f"argument {flag}: expected one argument")
                value = _convert(command, f"argument {flag}", kind, text)
            values[flag] = value
        else:
            words.append(token)
    args = {flag[2:].replace("-", "_"): value for flag, value in values.items()}
    if positional is None:
        args.update(_gen_arguments(words))
    elif len(words) > 1:
        raise _UsageError(command, f"unrecognized arguments: {' '.join(words[1:])}")
    else:
        args[positional[0]] = words[0] if words else None
    return handler, types.SimpleNamespace(**args)


def _gen_arguments(words: list[str]) -> dict:
    """gen's family and that family's parameters, by name."""
    if not words:
        raise _UsageError("gen", "the following arguments are required: family")
    family, *words = words
    _convert("gen", "argument family", str, family, _GEN_FAMILIES)
    params = _GEN_FAMILIES[family][1]
    command = f"gen {family}"
    if len(words) < len(params):
        missing = ", ".join(params[len(words):])
        raise _UsageError(command, f"the following arguments are required: {missing}")
    if len(words) > len(params):
        raise _UsageError(command, f"unrecognized arguments: {' '.join(words[len(params):])}")
    args = {"family": family}
    for param, word in zip(params, words):
        args[param] = _convert(command, f"argument {param}", int if param == "n" else str, word)
    return args


def main(argv=None) -> int:
    """Run one command line; returns the exit code and never raises SystemExit."""
    try:
        try:
            handler, args = _parse(sys.argv[1:] if argv is None else argv)
        except _UsageError as exc:
            error = f"{_prog(exc.command)}: error: {exc}"
            print(_usage(exc.command), error, sep="\n", file=sys.stderr)
            return 2
        if sys.stdout is None:  # the process started with its stdout closed
            return _fail("stdout is closed", 2)
        code = handler(args)
        sys.stdout.flush()
    except tuple(_FAILURE_EXIT) as exc:
        details = {"failed_pair": exc.failed_pair} if isinstance(exc, SelfCheckFailed) else {}
        return _fail(str(exc), _FAILURE_EXIT[type(exc)], **details)
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
