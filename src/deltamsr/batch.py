"""The ``batch`` subcommand: one Delta Conjecture report per graph6 line.

``batch`` reads its input in chunks and writes each report no later than
its next read of the input: a producer that sends one line at a time gets
each answer before it sends the next, and a file or a fast pipe gets its
reports in groups, one write per read.  A read whose answers take longer
than a few fork round trips shares its remaining lines among the CPUs the
process may use, through helpers forked from it (a fork starts with every
layer loaded, where a fresh interpreter's start-up costs about as much as
answering the whole n <= 7 atlas), and its output is byte-identical to one
process's; a shorter read, a process running a second thread, and a
platform without ``os.fork`` stay in one process.

The CLI imports this module only when it runs ``batch``, so no other
subcommand compiles it.  Each input error, and each of the package's three
failure classes, is reported inline as the line's report, and the next
line goes on.  A forked helper leaves by ``os._exit``, not by the CLI's
exit path (``cli.run``): it runs no exit hook and flushes nothing of its
copy of its parent's streams.
"""

import codecs
import io
import json
import os
import sys
import time

from .cli import _FAILURE_EXIT, _fail, _input
from .graphs import is_connected, parse_graph6


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
