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
bundles and ``batch``'s lines hold graph6 only.  ``batch`` reads its input
in chunks and writes each report no later than its next read of the input:
a producer that sends one line at a time gets each answer before it sends
the next, and a file or a fast pipe gets its reports in groups, one write
per read.  A read whose answers take longer than a few fork round trips
shares its remaining lines among the CPUs the process may use, through
helpers forked from it (a fork starts with every layer loaded, where a
fresh interpreter's start-up costs about as much as answering the whole
n <= 7 atlas), and
its output is byte-identical to one process's; a shorter read, a process
running a second thread, and a platform without ``os.fork`` stay in one
process.

One table, ``_COMMANDS``, holds each subcommand's help, positional,
options and handler, and drives parsing, ``-h``/``--help`` and usage
errors; ``gen <family> <params>`` reads ``_GEN_FAMILIES``.  Options go
before or after the positional, as ``--opt value`` or ``--opt=value``;
``--`` ends them, and a long option is never abbreviated.  A usage error
writes the usage line and ``deltamsr <cmd>: error: ...`` to stderr as
plain text and exits 2; help goes to stdout and exits 0.  Each handler
imports the modules it runs, and each layer imports the next where it is
first called, so a process loads only what its subcommand and input reach:
``gen`` neither recognition nor construction, ``verify`` no recognition,
only ``batch`` the msr engine, and ``batch`` the construction layers only
at its first delta-graph line.

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

import codecs
import contextlib
import io
import json
import os
import sys
import time
import types
from typing import TYPE_CHECKING

from . import RetryBudgetExceeded, SearchBudgetExceeded, SelfCheckFailed
from .graphs import (
    Graph, complement, is_connected, min_degree, parse_edge_list, parse_graph6, to_graph6
)

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
    from .orthorep import construct_verified, gram, gram_to_json_dict, rep_to_json_dict
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


def _reads(stream):
    """The text of each read of stream, up to its last line end; the rest waits for the next read.

    A read takes at most io.DEFAULT_BUFFER_SIZE bytes, as many as one read of
    the binary layer returns, and decodes them incrementally with the
    stream's own encoding and errors="surrogateescape", so a character split
    between two reads is decoded whole.  The last piece is the text after
    the last line end; a text stream with no binary layer (io.StringIO) is
    read whole as one piece.
    """
    binary = getattr(stream, "buffer", None)
    if binary is None:
        yield stream.read()
        return
    decode = codecs.getincrementaldecoder(stream.encoding)("surrogateescape").decode
    head = []  # the text since the last line end
    while chunk := binary.read1(io.DEFAULT_BUFFER_SIZE):
        text = decode(chunk)
        cut = max(text.rfind("\n"), text.rfind("\r")) + 1
        if cut:
            yield "".join([*head, text[:cut]])
            head = []
        head.append(text[cut:])
    yield "".join([*head, decode(b"", final=True)])


# A read's lines are shared among processes only once its answers have taken
# this long, so a short read never pays for a fork.  One fork round trip
# (fork, the helper's exit, then waitpid) takes about 2 ms in a process with
# every layer loaded, on a 2-core x86-64 VM with CPython 3.11.
_SHARE_AFTER_S = 0.010


def _cpus() -> int:
    """The CPUs this process may run on; 1 where it cannot fork or runs a second thread.

    A forked child gets a copy of every lock as it stands, and another thread
    may hold one.
    """
    threading = sys.modules.get("threading")
    if not hasattr(os, "fork") or threading and threading.active_count() > 1:
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _answers(lines: list[str], answer):
    """answer(line) for each line, in order, as one process would give them.

    The process answers lines itself until it has spent _SHARE_AFTER_S on
    them; then _shared answers the rest among w processes, w = _cpus() but
    no more than the lines left, when that makes two or more.
    """
    start = time.perf_counter()
    for i, line in enumerate(lines):
        if len(lines) - i >= 2 and time.perf_counter() - start >= _SHARE_AFTER_S:
            w = min(_cpus(), len(lines) - i)
            yield from _shared(lines[i:], answer, w) if w > 1 else map(answer, lines[i:])
            return
        yield answer(line)


def _shared(lines: list[str], answer, w: int):
    """answer(line) for each line, in order, with line j answered by process j mod w.

    Process 0 is this one; the w - 1 others are helpers forked from it.  A
    helper answers its whole share, then sends the answers of the prefix it
    answered down a pipe as ASCII lines (answer returns JSON with
    ensure_ascii, ending in "\n"), and leaves by os._exit: it runs no exit
    hook and flushes nothing of its copy of this process's streams.  This
    process answers every line that no helper answered, in order, so a fault
    escapes from here with its own traceback, after the answers before its
    line.  No helper outlives this function.
    """
    parent = os.getpid()
    helpers = {}  # share -> (pid, read end of its pipe), until reaped
    try:
        for h in range(1, w):
            read_end, write_end = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # this process answers the share instead
                os.close(read_end)
                os.close(write_end)
                continue
            if pid == 0:
                done = []
                try:
                    for line in lines[h::w]:
                        done.append(answer(line))
                finally:  # a fault ends the share: send the answers before it
                    with open(write_end, "wb") as pipe:
                        pipe.write("".join(done).encode("ascii"))
                    os._exit(0)
            os.close(write_end)
            helpers[h] = pid, open(read_end, "rb")
        shares, fault = [[] for _ in range(w)], None
        try:
            for line in lines[::w]:
                shares[0].append(answer(line))
        except Exception as exc:  # raised below, after the answers before its line
            fault = exc
        for h in list(helpers):
            pid, pipe = helpers[h]
            with pipe:
                text = pipe.read().decode("ascii")
            os.waitpid(pid, 0)
            del helpers[h]
            # a helper that died mid-write leaves its last line without "\n"
            shares[h] = [report + "\n" for report in text.split("\n")[:-1]]
    finally:
        if os.getpid() != parent:  # a helper that a signal reached outside its own try
            os._exit(1)
        if helpers:
            import signal

            for pid, pipe in helpers.values():
                pipe.close()
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    for j, line in enumerate(lines):
        share = shares[j % w]
        if j // w < len(share):
            yield share[j // w]
        elif j % w == 0:  # where this process's own share faulted
            raise fault
        else:
            yield answer(line)


def _cmd_batch(args) -> int:
    """One report line per input line, written no later than batch's next read of its input.

    The reports of each read's lines go out in one write and one flush before
    the next read, and in one write whenever they reach io.DEFAULT_BUFFER_SIZE
    characters: a producer that sends one line at a time gets each report
    before it sends the next, and a file or a fast pipe gets them in groups.
    A line ends at "\n", "\r\n" or a lone "\r"; it is stripped, and a blank
    one is skipped.  Once a read's answers have taken _SHARE_AFTER_S, the
    lines left are shared among the CPUs the process may use, through
    helpers forked from it: a fork starts with every layer loaded, while a
    fresh interpreter would start slower than the whole n <= 7 atlas takes
    to answer.  The output is the same, byte for byte, as one process
    gives.  A read that ends sooner (a producer that sends one line at a
    time, or a few lines), a process running a second thread and a
    platform without os.fork stay in one process.  A fault of the program
    that escapes a line's report escapes batch too, after the reports
    before it are written.
    """
    # only batch runs the conjecture check
    from .msr import check_delta_conjecture

    encode = json.JSONEncoder(sort_keys=True).encode

    def report(line: str) -> dict:
        try:
            g = parse_graph6(line)
        except ValueError as exc:
            return {"graph": line, "error": str(exc)}
        if not is_connected(g):
            return {"graph": line, "error": "graph is disconnected"}
        try:
            return check_delta_conjecture(g, seed=args.seed, graph_id=line).to_json_dict()
        except tuple(_FAILURE_EXIT) as exc:
            return {"graph": line, "error": str(exc)}

    try:
        source = _input(args.input)
    except OSError as exc:
        return _fail(str(exc), 2)
    pending, size = [], 0  # report lines not yet written, and their length
    with source as stream:
        for text in _reads(stream):
            # a "\r\n" end leaves an empty line between its halves, skipped here
            lines = [line for line in map(str.strip, text.replace("\r", "\n").split("\n")) if line]
            try:
                for answer in _answers(lines, lambda line: encode(report(line)) + "\n"):
                    pending.append(answer)
                    size += len(answer)
                    if size >= io.DEFAULT_BUFFER_SIZE:
                        sys.stdout.write("".join(pending))
                        pending, size = [], 0
            except Exception:
                # a fault of the program: the answers before it still go out
                sys.stdout.write("".join(pending))
                sys.stdout.flush()
                raise
            if pending:
                sys.stdout.write("".join(pending))
                pending, size = [], 0
            sys.stdout.flush()
    return 0


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
