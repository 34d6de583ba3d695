"""Seeded inputs of the three workloads, built without the program under test.

A graph is a list of adjacency bitmasks.  graph6 encoding and decoding, the
named families and the random graphs are written here from their
definitions, so the benchmark can hold the program's own generators and
encoder against them.  Vertex labellings follow the documented labellings of
``deltamsr.families``, which is what makes graph6 strings comparable.

Print a workload's inputs (one graph6 line each, with the family call that
``deltamsr gen`` is checked against for certify-verify):

    python3 bench/corpus.py certify-verify
    python3 bench/corpus.py batch-random --seed 3
    python3 bench/corpus.py atlas-batch
"""

from __future__ import annotations

import argparse
import random
from dataclasses import dataclass
from pathlib import Path

ATLAS_PATH = Path("tests") / "data" / "atlas_n1to7.g6"

# The batch-random graphs are drawn from this seed whatever --seed is: the
# time recognize_delta spends on one non-delta G(14, 0.5) graph ranges from
# 0.02 s to 7.3 s, so a corpus of a few dozen such graphs redrawn per seed
# would move graphs_per_s by far more than its bound.  --seed orders the
# lines and sets the construction seed instead.
RANDOM_CORPUS_SEED = 20161003
RANDOM_SIZES = (11, 12, 13, 14)
RANDOM_PER_SIZE = 4

# certify-verify constructs at this seed, the CLI's default, whatever --seed
# is.  Coordinate length depends on the seed: over 250 seeds ML22's longest
# coordinate reached 3,970 digits (mean 3,414, sd 300), close enough to the
# 4,300-digit limit that some seed would make it fail too.  --seed only
# orders the corpus.
CERTIFY_SEED = 0

# Robertson's (4,5)-cage as deltamsr.families labels it: the 19-cycle plus
# the chord i ~ i + offset.  robertson_is_cage() checks the result apart
# from this table.
_ROBERTSON_CHORDS = (8, 4, 7, 4, 8, 5, 7, 4, 7, 8, 4, 5, 7, 8, 4, 8, 4, 8, 4)


def from_edges(n: int, edges) -> list[int]:
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def has_edge(adj: list[int], u: int, v: int) -> bool:
    return bool(adj[u] >> v & 1)


def complement(adj: list[int]) -> list[int]:
    full = (1 << len(adj)) - 1
    return [full & ~a & ~(1 << v) for v, a in enumerate(adj)]


def is_connected(adj: list[int]) -> bool:
    if not adj:
        return True
    seen, frontier = 1, 1
    while frontier:
        nxt = 0
        for v in range(len(adj)):
            if frontier >> v & 1:
                nxt |= adj[v]
        frontier = nxt & ~seen
        seen |= frontier
    return seen == (1 << len(adj)) - 1


def min_degree(adj: list[int]) -> int:
    return min(a.bit_count() for a in adj)


# --- graph6 -----------------------------------------------------------------


def to_graph6(adj: list[int]) -> str:
    """graph6 of the upper triangle, column by column (n < 63)."""
    n = len(adj)
    if n >= 63:
        raise ValueError("the benchmark's encoder covers n < 63 only")
    bits = [has_edge(adj, i, j) for j in range(1, n) for i in range(j)]
    bits += [False] * (-len(bits) % 6)
    chars = [chr(63 + n)]
    for k in range(0, len(bits), 6):
        value = 0
        for b in bits[k : k + 6]:
            value = value << 1 | b
        chars.append(chr(63 + value))
    return "".join(chars)


def from_graph6(text: str) -> list[int]:
    n = ord(text[0]) - 63
    if not 0 <= n < 63:
        raise ValueError(f"the benchmark's decoder covers n < 63 only: {text!r}")
    bits = []
    for ch in text[1:]:
        value = ord(ch) - 63
        bits.extend(value >> (5 - k) & 1 for k in range(6))
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    if len(bits) < len(pairs):
        raise ValueError(f"truncated graph6: {text!r}")
    return from_edges(n, [p for p, b in zip(pairs, bits) if b])


# --- named families ---------------------------------------------------------


def cycle(n: int) -> list[int]:
    return from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def path(n: int) -> list[int]:
    return from_edges(n, [(i, i + 1) for i in range(n - 1)])


def complete(n: int) -> list[int]:
    return from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def star(leaves: int) -> list[int]:
    return from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def mobius_ladder(k: int) -> list[int]:
    edges = [(i, (i + 1) % k) for i in range(k)]
    edges += [(i, i + k // 2) for i in range(k // 2)]
    return from_edges(k, edges)


def cartesian(g: list[int], h: list[int]) -> list[int]:
    """Box product with vertex (a, b) numbered a * |h| + b."""
    ng, nh = len(g), len(h)
    edges = []
    for a in range(ng):
        for b in range(nh):
            edges += [(a * nh + b, a * nh + d) for d in range(nh) if has_edge(h, b, d)]
            edges += [(a * nh + b, c * nh + b) for c in range(ng) if has_edge(g, a, c)]
    return from_edges(ng * nh, edges)


def corona(g: list[int], h: list[int]) -> list[int]:
    """g, then copy i of h at |g| + i * |h|, every vertex of it joined to i."""
    ng, nh = len(g), len(h)
    edges = [(u, v) for u in range(ng) for v in range(u + 1, ng) if has_edge(g, u, v)]
    for i in range(ng):
        base = ng + i * nh
        edges += [(base + u, base + v) for u in range(nh) for v in range(u + 1, nh) if has_edge(h, u, v)]
        edges += [(i, base + u) for u in range(nh)]
    return from_edges(ng + ng * nh, edges)


def robertson() -> list[int]:
    edges = [(i, (i + 1) % 19) for i in range(19)]
    edges += [(i, (i + off) % 19) for i, off in enumerate(_ROBERTSON_CHORDS)]
    return from_edges(19, edges)


def girth(adj: list[int]) -> int:
    best = len(adj) + 1
    for root in range(len(adj)):
        dist, parent, queue = {root: 0}, {root: -1}, [root]
        for v in queue:
            for w in range(len(adj)):
                if not has_edge(adj, v, w) or w == parent[v]:
                    continue
                if w in dist:
                    best = min(best, dist[v] + dist[w] + 1)
                else:
                    dist[w], parent[w] = dist[v] + 1, v
                    queue.append(w)
    return best


def robertson_is_cage(adj: list[int]) -> bool:
    """19 vertices, 4-regular, girth 5: the unique (4,5)-cage."""
    return len(adj) == 19 and all(a.bit_count() == 4 for a in adj) and girth(adj) == 5


# --- workloads ----------------------------------------------------------------


@dataclass(frozen=True)
class FamilyMember:
    """A C-delta family graph; the workload certifies its complement."""

    name: str
    gen_args: tuple[str, ...]  # the `deltamsr gen` call that must print `family`
    family: list[int]

    @property
    def delta_graph(self) -> list[int]:
        return complement(self.family)


def certify_verify_corpus(seed: int) -> list[FamilyMember]:
    """The paper's C-delta families, capped where construction gets slow.

    C_n for n <= 24 and ML_k for k <= 24 (smaller members are not C-delta).
    K_a x P_b for a <= 5 and n = ab <= 18, the members that are C-delta:
    K6 x P3 (n = 18, d = 8) is left out because one construction takes
    53-77 s.  Then the Robertson cage and the coronas S2 o P2 and S3 o P1.
    """
    out = [FamilyMember(f"C{n}", ("cycle", str(n)), cycle(n)) for n in range(6, 25)]
    out += [FamilyMember(f"ML{k}", ("mobius", str(k)), mobius_ladder(k)) for k in range(10, 25, 2)]
    for a, bs in ((2, range(4, 10)), (3, range(3, 7)), (4, range(3, 5)), (5, range(3, 4))):
        for b in bs:
            args = ("cartesian", to_graph6(complete(a)), to_graph6(path(b)))
            out.append(FamilyMember(f"K{a}xP{b}", args, cartesian(complete(a), path(b))))
    out.append(FamilyMember("Robertson", ("robertson",), robertson()))
    for s, p in ((2, 2), (3, 1)):
        args = ("corona", to_graph6(star(s)), to_graph6(path(p)))
        out.append(FamilyMember(f"S{s}oP{p}", args, corona(star(s), path(p))))
    random.Random(seed).shuffle(out)
    return out


def random_corpus(seed: int) -> list[list[int]]:
    """Connected G(n, 0.5) graphs that are not delta-graphs, RANDOM_PER_SIZE per n.

    Every line makes recognize_delta exhaust its search and batch fall back
    to msr_exact; construction is left to the other two workloads.  n stops
    at 14 because recognize_delta has no search budget: graphs at n = 16
    often take more than 20 s each.
    """
    from checks import is_delta  # checks builds on this module's graph helpers

    rng = random.Random(RANDOM_CORPUS_SEED)
    out = []
    for n in RANDOM_SIZES:
        kept = 0
        while kept < RANDOM_PER_SIZE:
            adj = from_edges(n, [(i, j) for j in range(n) for i in range(j) if rng.random() < 0.5])
            if is_connected(adj) and not is_delta(adj):
                out.append(adj)
                kept += 1
    random.Random(seed).shuffle(out)
    return out


def atlas_corpus(root: Path = Path(".")) -> list[list[int]]:
    """The connected graphs of the n <= 7 atlas fixture, in file order."""
    graphs = [from_graph6(line) for line in (root / ATLAS_PATH).read_text().split()]
    return [adj for adj in graphs if is_connected(adj)]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", choices=("certify-verify", "batch-random", "atlas-batch"))
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    if args.workload == "certify-verify":
        for m in certify_verify_corpus(args.seed):
            print(to_graph6(m.delta_graph), m.name, "deltamsr gen " + " ".join(m.gen_args))
    else:
        graphs = random_corpus(args.seed) if args.workload == "batch-random" else atlas_corpus()
        for adj in graphs:
            print(to_graph6(adj))


if __name__ == "__main__":
    main()
