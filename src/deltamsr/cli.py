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
options and handler, and ``gen``'s families are rows of ``gen``'s
positional, each with its help, parameters and builder.  One token loop
parses every command line against it, and ``-h``/``--help`` and usage
errors are rendered from it.  Options go before or after the positional,
as ``--opt value`` or ``--opt=value``; ``--`` ends them, and a long option
is never abbreviated.  A usage error writes the usage line of the command
words parsed before it and ``deltamsr <words>: error: ...`` to stderr as
plain text and exits 2; help goes to stdout and exits 0.  Each handler
imports the modules it runs, and each layer imports the next where it is
first called, so a process compiles and loads only what its subcommand and
input reach: ``gen`` only the family builders, ``verify`` only
``orthorep``, ``certify`` construction, with its sampler, ``orthorep``
and recognition, only ``batch`` its own module and the msr engine, and
``batch`` construction only at its first delta-graph line.  A handler
reads its input, prints and decides the exit code; what it prints is
built by the layers: the bundle that ``certify`` prints and the report
that ``verify`` prints come from ``orthorep``, which alone decides their
keys.

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

A process leaves by one path, ``sys.exit(run())``: ``python -m deltamsr``,
``python -m deltamsr.cli`` and the installed ``deltamsr`` script all take
it.  ``run`` calls ``main`` and then freezes the heap (``gc.freeze``), so
interpreter shutdown does not sweep the objects that start-up and the
command left, which the OS reclaims at exit anyway.  Exit hooks still run,
stdout and stderr are still flushed, and the exit code, 141 included, is
``main``'s; a fault that escapes ``main`` gets the usual traceback and
teardown.  ``main`` leaves the caller's collector alone, so a test or a
library caller can run it in process.  ``batch``'s forked helpers never
return to ``run``: each leaves by ``os._exit``.
"""

import contextlib
import gc
import json
import os
import sys
import types

from . import RetryBudgetExceeded, SearchBudgetExceeded, SelfCheckFailed
from .graphs import Graph, complement, parse_edge_list, parse_graph6, to_graph6

__all__ = ["main", "run"]

# failure that stops a graph before its answer -> exit code; batch reports
# each inline instead
_FAILURE_EXIT = {SearchBudgetExceeded: 4, RetryBudgetExceeded: 3, SelfCheckFailed: 3}


def _print_json(obj) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


def _fail(message: str, code: int, **details) -> int:
    print(json.dumps({"error": message, **details}), file=sys.stderr)
    return code


# the input names that read stdin
_STDIN = (None, "-")


def _input(source: str | None):
    """A context manager for stdin when source is in _STDIN, else for the file it names.

    Raises OSError when that stream cannot be had: a closed stdin or a file that
    cannot be opened.
    """
    if source not in _STDIN:
        return open(source)
    if sys.stdin is None:  # the process started with its stdin closed
        raise OSError("stdin is closed")
    return contextlib.nullcontext(sys.stdin)


def _parse_file_or_literal(source: str | None, parse):
    """Parse the text of _input(source), or source itself when it names no file."""
    if source in _STDIN or os.path.exists(source):
        with _input(source) as stream:
            return parse(stream.read())
    try:
        return parse(source)
    except ValueError as exc:
        raise FileNotFoundError(f"no such file {source!r}, and it does not parse: {exc}") from exc


def _parse_graph(text: str) -> Graph:
    """The graph of graph6 or edge-list text, told apart by its first non-blank character.

    Every graph6 character, and the ">" that starts its optional header, lies
    in ">".."~"; an edge list starts with its vertex count, a sign or an
    ASCII digit.  Text with no non-blank character is read as graph6, which
    names it empty.
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
    from .orthorep import bundle_to_json_dict, gram
    from .recognition import recognize_delta

    try:
        g = _parse_file_or_literal(args.graph, _parse_graph)
    except (ValueError, OSError) as exc:
        return _fail(str(exc), 2)
    cert = recognize_delta(g)
    if cert is None:
        return _fail("graph was not recognized as a delta-graph", 1)
    rep, report = construct_verified(g, cert, args.seed)
    matrix = gram(rep) if args.emit_gram else None
    _print_json(bundle_to_json_dict(g, cert, rep, report, args.seed, matrix))
    return 0


def _cmd_verify(args) -> int:
    from .orthorep import verify_bundle

    try:
        result = verify_bundle(_parse_file_or_literal(args.bundle, json.loads))
    except OSError as exc:
        return _fail(str(exc), 2)
    except (ValueError, KeyError, TypeError, RecursionError) as exc:
        return _fail(f"bad bundle: {exc}", 2)
    _print_json(result)
    return 0 if all(result["checks"].values()) else 1


def _cmd_batch(args) -> int:
    # imported where it runs, as each handler imports its layers: no other
    # subcommand compiles batch's code
    from . import batch

    return batch._cmd_batch(args)


def _cmd_gen(args) -> int:
    # imported where it is used: no other subcommand needs the builders
    from . import families

    _, params, builder = _COMMANDS["gen"][1][args.family]
    values = [getattr(args, param) for param in params]
    if values.count("-") > 1:
        return _fail("g and h both name stdin, which can be read only once", 2)
    try:
        g = getattr(families, builder)(
            *(v if isinstance(v, int) else _parse_file_or_literal(v, _parse_graph) for v in values)
        )
    except (ValueError, OSError) as exc:
        return _fail(str(exc), 2)
    print(to_graph6(g))
    return 0


_GRAPH = (
    "graph",
    "graph file or literal (default: stdin): an edge list ('n', then one 'u v' line per"
    " edge) if its first non-blank character lies outside '>'..'~', as a digit does, else graph6",
)

# command -> (help, positional, options, handler): the positional is one
# (name, help), optional, or for gen a table of families, each a row
# (help, parameters, builder in deltamsr.families) whose parameters are all
# required, n an int and g and h graph text; option -> (default, help), and
# an option that defaults to False is a switch, any other takes an int
_COMMANDS = {
    "recognize": (
        "find a delta or C-delta certificate",
        _GRAPH,
        {"--c-delta": (False, "search the complement (C-delta)")},
        _cmd_recognize,
    ),
    "certify": (
        "certificate + representation bundle",
        _GRAPH,
        {
            "--seed": (0, "construction seed (default: 0)"),
            "--emit-gram": (False, "add the exact Gram matrix to the bundle"),
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
        {"--seed": (0, "construction seed of every line (default: 0)")},
        _cmd_batch,
    ),
    "gen": (
        "emit a named family member as graph6",
        {
            "cycle": ("cycle C_n", ("n",), "cycle"),
            "path": ("path P_n", ("n",), "path"),
            "complete": ("complete graph K_n", ("n",), "complete"),
            "star": ("star K_{1,n} with n leaves", ("n",), "star"),
            "mobius": ("Moebius ladder on n vertices (even n >= 6)", ("n",), "mobius_ladder"),
            "robertson": ("Robertson (4,5)-cage", (), "robertson_cage"),
            "cartesian": ("Cartesian (box) product of two graphs", ("g", "h"), "cartesian_product"),
            "corona": ("corona of two graphs", ("g", "h"), "corona"),
        },
        {},
        _cmd_gen,
    ),
}
_HELP_FLAGS = ("-h", "--help")


class _UsageError(Exception):
    """A command line that _COMMANDS does not accept, with the command words parsed before it."""

    def __init__(self, words: list[str], message: str):
        super().__init__(message)
        self.words = words


def _usage(words: list[str]) -> tuple[str, str, list]:
    """The usage line of the command words parsed so far, and their help's description and rows."""
    row = ("delta-graph recognition and msr certification", _COMMANDS, {})
    for word in words:
        row = row[1][word]
    description, positional, options = row[:3]
    if isinstance(positional, dict):  # the commands, or gen's families with their parameters
        tail = [f"{{{','.join(positional)}}} ..."]
        rows = [
            (" ".join((name, *spec[1])) if words else name, spec[0])
            for name, spec in positional.items()
        ]
        if words:
            description += (
                "; n is an integer, g and h are graph6 or edge lists,"
                " each a file ('-' is stdin, for one of them at most) or a literal"
            )
    elif words[1:]:  # gen's family: its parameters
        tail, rows = positional, []
    else:  # a command: its options, then its one positional
        rows = [
            (flag if spec[0] is False else f"{flag} {flag[2:].upper()}", spec[1])
            for flag, spec in options.items()
        ]
        tail = [f"[{left}]" for left, _ in [*rows, positional]]
        rows.insert(0, positional)
    return " ".join(["usage: deltamsr", *words, "[-h]", *tail]), description, rows


def _print_help(words: list[str]) -> int:
    line, description, rows = _usage(words)
    print(line, "", description, "", sep="\n")
    for left, text in [*rows, (", ".join(_HELP_FLAGS), "show this help and exit")]:
        print(f"  {left:<22}  {text}")
    return 0


def _choose(words: list[str], argument: str, rest: list[str], table: dict):
    """The row of table that rest's first word names; that word moves from rest to words."""
    if not rest:
        raise _UsageError(words, f"the following arguments are required: {argument}")
    if rest[0] not in table:
        listed = ", ".join(map(repr, table))
        message = f"argument {argument}: invalid choice: {rest[0]!r} (choose from {listed})"
        raise _UsageError(words, message)
    words.append(rest.pop(0))
    return table[words[-1]]


def _int(words: list[str], argument: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise _UsageError(words, f"argument {argument}: invalid int value: {text!r}") from None


def _parse(argv: list[str]):
    """(handler, argument) for a command line; help is a handler that prints it."""
    if argv and argv[0] in _HELP_FLAGS:
        return _print_help, []
    words, rest = [], list(argv)
    _, positional, options, handler = _choose(words, "command", rest, _COMMANDS)
    args = {flag: spec[0] for flag, spec in options.items()}
    tokens, rest = iter(rest), []
    for token in tokens:
        if token in _HELP_FLAGS:
            return _print_help, words
        if token == "--":
            rest.extend(tokens)
        # "-" names stdin and "-3" is a number, as argparse read them
        elif token.startswith("-") and token != "-" and not token[1:].isdigit():
            flag, has_value, text = token.partition("=")
            switch = options.get(flag, (None,))[0] is False
            if flag not in options or switch and has_value:  # a switch takes no value
                raise _UsageError(words, f"unrecognized arguments: {token}")
            if not (switch or has_value):
                text = next(tokens, None)
                if text is None:
                    raise _UsageError(words, f"argument {flag}: expected one argument")
            args[flag] = switch or _int(words, flag, text)
        else:
            rest.append(token)
    if isinstance(positional, dict):  # gen: a family, then each of its parameters
        params = _choose(words, "family", rest, positional)[1]
        args["family"] = words[-1]
        if len(rest) < len(params):
            missing = ", ".join(params[len(rest):])
            raise _UsageError(words, f"the following arguments are required: {missing}")
    else:  # stdin where the positional is left out
        params = positional[:1]
    if len(rest) > len(params):
        raise _UsageError(words, f"unrecognized arguments: {' '.join(rest[len(params):])}")
    for param, word in zip(params, [*rest, None]):
        args[param] = _int(words, param, word) if param == "n" else word
    # --emit-gram is the attribute emit_gram
    return handler, types.SimpleNamespace(
        **{name.lstrip("-").replace("-", "_"): value for name, value in args.items()}
    )


def main(argv=None) -> int:
    """Run one command line; returns the exit code and never raises SystemExit."""
    try:
        try:
            handler, args = _parse(sys.argv[1:] if argv is None else argv)
        except _UsageError as exc:
            error = " ".join(["deltamsr", *exc.words]) + f": error: {exc}"
            print(_usage(exc.words)[0], error, sep="\n", file=sys.stderr)
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


def run() -> int:
    """main() on sys.argv as a process's last call, ``sys.exit(run())``.

    Every object left is then frozen, so the collections that interpreter
    shutdown runs skip them; the OS takes their memory back at exit.
    """
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
