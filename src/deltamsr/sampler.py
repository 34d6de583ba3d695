"""Seeded source of the random coefficients that ``construct`` draws.

The sampler is a plain class, so that the code paths that build a
representation start without importing ``dataclasses`` and, with it,
``inspect``.  A subclass may still declare counter fields of its own
(``@dataclass class Counting(GenericSampler)``) and take ``seed=`` and
``magnitude=``: the first subclass declared makes ``GenericSampler`` a
dataclass too, keeping its own ``__init__``, so that ``dataclasses`` finds
the two fields to inherit.  A process that never declares a subclass
never imports it.
"""

import random

__all__ = ["GenericSampler"]


class GenericSampler:
    """Seeded source of nonzero integers from a growing magnitude window.

    nonzero() draws uniformly from [-magnitude, -1] and [1, magnitude], and
    widen() doubles magnitude.  A draw reads the stream of
    ``random.Random(seed)`` exactly as ``randint(1, magnitude)`` does, in
    one frame: getrandbits of magnitude's bit length, redrawn while it is
    not below magnitude, plus one; then one ``random()`` below 0.5 negates
    it.  The window starts at 8, 3 bits a coefficient: construct redraws
    a failed step from a window that doubles every WIDEN_EVERY draws, and
    widens once more before each of its up to MAX_RESTARTS restarts, so a
    window that proves too small grows until the failing conditions are
    avoided.
    """

    # the fields a dataclass subclass inherits, with their defaults, which
    # __init__ takes too: the start window is set here alone
    seed: int = 0
    magnitude: int = 8

    def __init__(self, seed: int = seed, magnitude: int = magnitude) -> None:
        self.seed = seed
        self.magnitude = magnitude
        self.__post_init__()

    def __post_init__(self) -> None:
        self._rng = random.Random(self.seed)

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if "__dataclass_fields__" not in GenericSampler.__dict__:
            from dataclasses import dataclass

            # adds the field records only: the __init__ above is kept, and
            # eq and repr stay object's
            dataclass(GenericSampler, eq=False, repr=False)

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
