"""The traced in-process run: the workload's steps, one public call at a time.

Each call into a layer of the program runs inside a span (layer, start,
end, graph id).  Spans are kept in memory and written out when the run
ends.  The benchmark never nests spans, so a layer's self time is the sum of
its spans' durations.  A ``CountingSampler`` handed to ``construct`` counts
the draws and window widenings of the generic sampler.

certify_verify() repeats what `deltamsr certify --emit-gram` and
`deltamsr verify` do, and batch_line() what `deltamsr batch` does for one
line (the steps of ``check_delta_conjecture``, with the same seed), so their
bundle text and report lines can be compared with the untimed run's bytes.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

from checks import DEFAULT_INT_DIGITS, int_digits
from deltamsr import (
    GenericSampler,
    construct,
    gram,
    min_degree,
    msr_exact,
    parse_graph6,
    recognize_delta,
    to_graph6,
    verify_rep,
)
from deltamsr.msr import ConjectureReport
from deltamsr.orthorep import gram_to_json_dict, rep_from_json_dict, rep_to_json_dict

TIMED_LAYERS = (
    "graphs.parse",
    "recognition.recognize",
    "orthorep.construct",
    "orthorep.verify",
    "orthorep.gram",
    "orthorep.serialize",
    "orthorep.deserialize",
    "msr.exact",
)


@dataclass
class CountingSampler(GenericSampler):
    """GenericSampler that counts what construct() asks of it."""

    draws: int = 0
    widenings: int = 0

    def nonzero(self):
        self.draws += 1
        return super().nonzero()

    def widen(self) -> None:
        self.widenings += 1
        super().widen()


@dataclass
class Tracer:
    spans: list[tuple[str, float, float, str]] = field(default_factory=list)
    sampler_draws: int = 0
    widenings: int = 0
    coord_bits_max: int = 0
    coord_bits_total: int = 0

    def call(self, layer: str, graph_id: str, fn, *args):
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.spans.append((layer, start, time.perf_counter(), graph_id))

    def construct(self, graph_id: str, g, cert, seed: int):
        sampler = CountingSampler(seed=seed)
        rep = self.call("orthorep.construct", graph_id, construct, g, cert, sampler)
        self.sampler_draws += sampler.draws
        self.widenings += sampler.widenings
        for vec in rep.vectors:
            for x in vec:
                bits = max(abs(x.numerator).bit_length(), x.denominator.bit_length())
                self.coord_bits_max = max(self.coord_bits_max, bits)
                self.coord_bits_total += bits
        return rep

    def self_times(self) -> dict[str, float]:
        totals = dict.fromkeys(TIMED_LAYERS, 0.0)
        for layer, start, end, _ in self.spans:
            totals[layer] += end - start
        return totals

    def write(self, path, origin: float) -> None:
        rows = [[layer, start - origin, end - origin, gid] for layer, start, end, gid in self.spans]
        path.write_text(json.dumps({"spans": rows}) + "\n")


def certify_verify(tr: Tracer, graph6: str, seed: int) -> tuple[bytes, str | None]:
    """Bundle bytes as `certify --emit-gram` prints them, and verify's error.

    Each step starts from a fresh interpreter's int/str digit limit, as the
    two processes of the untimed run do, so the round-trip failure on long
    coordinates shows here too.  The error is None when verify succeeds.
    """
    with int_digits(DEFAULT_INT_DIGITS):
        g = tr.call("graphs.parse", graph6, parse_graph6, graph6)
        cert = tr.call("recognition.recognize", graph6, recognize_delta, g)
        rep = tr.construct(graph6, g, cert, seed)
        report = tr.call("orthorep.verify", graph6, verify_rep, g, rep)
        matrix = tr.call("orthorep.gram", graph6, gram, rep)

        def serialize() -> str:
            bundle = {
                "graph6": to_graph6(g),
                "n": g.n,
                "certificate": cert.to_json_dict(),
                "dim": rep.dim,
                "bound": report.bound,
                "delta_bound": g.n - min_degree(g),
                "seed": seed,
                "representation": rep_to_json_dict(rep),
                "checks": {
                    "pattern": report.pattern_ok,
                    "nonzero": report.nonzero_ok,
                    "independent": report.independent_ok,
                    "dimension": report.dimension_ok,
                },
                "gram": gram_to_json_dict(matrix),
            }
            return json.dumps(bundle, indent=2, sort_keys=True) + "\n"

        text = tr.call("orthorep.serialize", graph6, serialize)
    with int_digits(DEFAULT_INT_DIGITS):
        data = tr.call("orthorep.deserialize", graph6, json.loads, text)
        g2 = tr.call("graphs.parse", graph6, parse_graph6, data["graph6"])
        try:
            rep2 = tr.call("orthorep.deserialize", graph6, rep_from_json_dict, data["representation"])
        except ValueError as exc:
            return text.encode(), str(exc)
        report2 = tr.call("orthorep.verify", graph6, verify_rep, g2, rep2)
    return text.encode(), None if report2.all_ok else "verify_rep rejected the bundle"


def batch_line(tr: Tracer, graph6: str, seed: int) -> str:
    """One `batch` output line, through the steps of check_delta_conjecture."""
    g = tr.call("graphs.parse", graph6, parse_graph6, graph6)
    delta_bound = g.n - min_degree(g)
    cert = tr.call("recognition.recognize", graph6, recognize_delta, g)
    if cert is not None:
        rep = tr.construct(graph6, g, cert, seed)
        report = tr.call("orthorep.verify", graph6, verify_rep, g, rep)
        result = ConjectureReport(graph6, g.n, delta_bound, report.bound, "holds-by-construction")
    else:
        value = tr.call("msr.exact", graph6, msr_exact, g)
        if value is not None and value <= delta_bound:
            result = ConjectureReport(graph6, g.n, delta_bound, value, "holds")
        else:
            hi = value if value is not None else g.n - 1
            result = ConjectureReport(graph6, g.n, delta_bound, hi, "unresolved")
    return json.dumps(result.to_json_dict(), sort_keys=True)

