#!/usr/bin/env python3
"""Survey the named families: recognize, construct, and report msr bounds.

For each family member, recognize the C-delta ordering, build the exact
orthogonal representation of the complement, and print one JSON line with
the certified bound next to whatever the exact engine knows.  A quick way
to reproduce the headline numbers:

    python scripts/family_survey.py [--seed N]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from deltamsr import (
    GenericSampler,
    complement,
    construct,
    min_degree,
    msr_exact,
    recognize_delta,
    to_graph6,
    verify_rep,
)
from deltamsr.families import (
    cartesian_product,
    complete,
    corona,
    cycle,
    mobius_ladder,
    path,
    robertson_cage,
    star,
)


def members():
    for n in range(6, 11):
        yield f"C{n}", cycle(n)
    for k in (10, 12):
        yield f"ML{k}", mobius_ladder(k)
    yield "K3 x P4", cartesian_product(complete(3), path(4))
    yield "K4 x P4", cartesian_product(complete(4), path(4))
    yield "S2 o P2", corona(star(2), path(2))
    yield "S3 o P1", corona(star(3), path(1))
    yield "Robertson cage", robertson_cage()


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    for name, g in members():
        t0 = time.monotonic()
        row = {"family": name, "graph6": to_graph6(g), "n": g.n}
        # g is C-delta iff its complement is a delta-graph: one search serves both
        gbar = complement(g)
        cert = recognize_delta(gbar)
        row["c_delta"] = cert is not None
        if cert is not None:
            rep = construct(gbar, cert, GenericSampler(seed=args.seed))
            report = verify_rep(gbar, rep)
            row["complement_msr_upper"] = report.bound
            row["complement_delta_bound"] = gbar.n - min_degree(gbar)
            row["rep_dim"] = rep.dim
            row["verified"] = report.all_ok
        row["msr_exact"] = msr_exact(g)
        row["seconds"] = round(time.monotonic() - t0, 3)
        print(json.dumps(row))


if __name__ == "__main__":
    main()
