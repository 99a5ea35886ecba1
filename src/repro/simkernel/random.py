"""Deterministic named random streams.

Every stochastic component in SimDC (each virtual phone's noise, each
DeviceFlow dropout draw, every dataset shard) pulls from its own named
stream derived from one master seed.  Streams are independent of creation
order: the same ``(seed, name)`` pair always yields the same generator, so
adding a new component never perturbs existing ones.
"""

from __future__ import annotations

import hashlib

import numpy as np


def stable_hash(text: str) -> tuple[int, int, int, int]:
    """Hash ``text`` to four uint32 words, stable across runs and platforms.

    Python's built-in ``hash`` is salted per process, so it cannot be used
    for reproducible stream derivation; SHA-256 is used instead.
    """
    digest = hashlib.sha256(text.encode()).digest()
    return tuple(int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4))  # type: ignore[return-value]


class RandomStreams:
    """A factory of independent, reproducible ``numpy`` generators.

    Parameters
    ----------
    seed:
        Master seed for the whole simulation run.

    Example
    -------
    >>> streams = RandomStreams(7)
    >>> a = streams.get("phone.0").integers(0, 100, 3)
    >>> b = RandomStreams(7).get("phone.0").integers(0, 100, 3)
    >>> (a == b).all()
    np.True_
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._cache: dict[str, np.random.Generator] = {}

    def get(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use.

        Repeated calls with the same name return the *same* generator
        object, so consumption of randomness is shared within a component.
        Use :meth:`fresh` for an independent copy that restarts the stream.
        """
        if name not in self._cache:
            self._cache[name] = self.fresh(name)
        return self._cache[name]

    def fresh(self, name: str) -> np.random.Generator:
        """Return a brand-new generator positioned at the stream's start."""
        words = stable_hash(name)
        sequence = np.random.SeedSequence(entropy=(self.seed, *words))
        return np.random.default_rng(sequence)
