"""Seeded source of the random coefficients that ``construct`` draws.

The sampler is the one dataclass of the package, so that a subclass can
declare counter fields of its own (``@dataclass class Counting(GenericSampler)``)
and still take ``seed=``.  It lives apart from ``orthorep`` so that only the
code paths that build a representation import it, and with it
``dataclasses``; the others start without that import.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

__all__ = ["GenericSampler"]


@dataclass
class GenericSampler:
    """Seeded source of nonzero integers from a growing magnitude window.

    nonzero() draws uniformly from [-magnitude, -1] and [1, magnitude], and
    widen() doubles magnitude.  A draw reads the stream of
    ``random.Random(seed)`` exactly as ``randint(1, magnitude)`` does, in
    one frame: getrandbits of magnitude's bit length, redrawn while it is
    not below magnitude, plus one; then one ``random()`` below 0.5 negates
    it.  The window starts at 16, about 4 bits a coefficient: construct
    redraws a failed step from a window that doubles every WIDEN_EVERY
    draws, and widens once more before each of its up to MAX_RESTARTS
    restarts, so a window that proves too small grows until the failing
    conditions are avoided.
    """

    seed: int = 0
    magnitude: int = 16
    _rng: random.Random = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._rng = random.Random(self.seed)

    def nonzero(self) -> int:
        m = self.magnitude
        rng = self._rng
        k = m.bit_length()
        r = rng.getrandbits(k)
        while r >= m:
            r = rng.getrandbits(k)
        return -r - 1 if rng.random() < 0.5 else r + 1

    def widen(self) -> None:
        self.magnitude *= 2
