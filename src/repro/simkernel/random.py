"""Deterministic named random streams.

Every stochastic component in SimDC (each virtual phone's noise, each
DeviceFlow dropout draw, every dataset shard) pulls from its own named
stream derived from one master seed.  Streams are independent of creation
order: the same ``(seed, name)`` pair always yields the same generator, so
adding a new component never perturbs existing ones.

Draw convention (written here once; call sites point at it): a draw is a
function of ``(seed, stream name, draw index)`` and of nothing else.  It
does not depend on when the stream was created, on which other streams
exist, on how a component's rows were cut into blocks, or on whether the
stream is a ``numpy`` generator (:meth:`RandomStreams.get`) or a row of a
:class:`StreamBank` (:meth:`RandomStreams.bank`): a bank seeds N names in
one vectorised pass and steps them as plain integers, and both are bit for
bit the ``default_rng(SeedSequence((seed words, four SHA-256 words)))`` of
the name.  ``tests/test_keyed_streams.py`` holds the bank to the generator.

A :class:`NormalReader` draws a block of ``standard_normal`` ahead of its
caller, so it must be its stream's only consumer; then its ``i``-th value
is the stream's ``i``-th ``normal(loc, scale)`` draw.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterable, Sequence
from numbers import Integral

import numpy as np

_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
#: PCG64's 128-bit LCG multiplier.
_PCG_MULT = (2549297995355413924 << 64) | 4865540595714422341
_TO_DOUBLE = 1.0 / 9007199254740992.0  # 2**-53
_SHIFT = np.uint32(16)
_MIX_LEFT, _MIX_RIGHT = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
#: Words of a name's SHA-256 that enter its stream's entropy.
_NAME_WORDS = 4
#: Size of ``SeedSequence``'s entropy pool, in uint32 words.
_POOL = 4


def _name_bytes(text: str) -> bytes:
    """The bytes of ``text`` that derive its stream: ``_NAME_WORDS`` little-endian uint32 words of its SHA-256."""
    return hashlib.sha256(text.encode()).digest()[: 4 * _NAME_WORDS]


def stable_hash(text: str) -> tuple[int, int, int, int]:
    """Hash ``text`` to four uint32 words, stable across runs and platforms.

    Python's built-in ``hash`` is salted per process, so it cannot be used
    for reproducible stream derivation; SHA-256 is used instead.
    """
    return tuple(np.frombuffer(_name_bytes(text), "<u4").tolist())  # type: ignore[return-value]


def check_seed(seed, name: str) -> int:
    """``seed`` as an ``int``, or a ``ValueError`` naming the field and the value.

    A master seed is a non-negative integer: ``SeedSequence`` refuses a
    negative one mid-run, a float would silently truncate, and ``True``
    is almost certainly a bug.
    """
    if isinstance(seed, bool) or not isinstance(seed, Integral) or seed < 0:
        raise ValueError(f"{name} must be a non-negative integer, got {seed!r}")
    return int(seed)


def _hash_constants(init: int, mult: int, count: int) -> list[tuple[np.uint32, np.uint32]]:
    """``SeedSequence``'s running hash constant as ``count`` (xor, multiply) pairs.

    The constant advances once per hashed word whatever the word is, so
    the whole schedule is known before any entropy is seen.
    """
    pairs = []
    for _ in range(count):
        advanced = init * mult & _M32
        pairs.append((np.uint32(init), np.uint32(advanced)))
        init = advanced
    return pairs


def _hashmix(words: np.ndarray, constants: tuple[np.uint32, np.uint32]) -> np.ndarray:
    words = (words ^ constants[0]) * constants[1]
    return words ^ (words >> _SHIFT)


def _mix(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    mixed = _MIX_LEFT * left - _MIX_RIGHT * right
    return mixed ^ (mixed >> _SHIFT)


def _seed_pcg64(entropy: np.ndarray) -> tuple[list[int], list[int]]:
    """``PCG64(SeedSequence(row))``'s ``(state, inc)`` for every row of ``entropy``.

    ``entropy`` is an ``(n, k)`` uint32 matrix with ``k > 4``.  The pass is
    ``SeedSequence.mix_entropy`` and ``generate_state(4, uint64)`` with the
    rows as array lanes (uint32 arithmetic wraps, which is the algorithm),
    then ``pcg64_srandom`` on Python ints.
    """
    n, n_words = entropy.shape
    columns = [entropy[:, i] for i in range(n_words)]
    constants = iter(_hash_constants(0x43B0D7E5, 0x931E8875, _POOL * _POOL + _POOL * (n_words - _POOL)))
    pool = [_hashmix(columns[i], next(constants)) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], next(constants)))
    for src in range(_POOL, n_words):
        for dst in range(_POOL):
            pool[dst] = _mix(pool[dst], _hashmix(columns[src], next(constants)))
    words = np.empty((n, 8), np.uint32)
    for i, (xor, mult) in enumerate(_hash_constants(0x8B51F9DD, 0x58F38DED, 8)):
        word = (pool[i % _POOL] ^ xor) * mult
        words[:, i] = word ^ (word >> _SHIFT)
    states, incs = [], []
    for state_hi, state_lo, inc_hi, inc_lo in words.view("<u8").tolist():
        inc = ((inc_hi << 64 | inc_lo) << 1 | 1) & _M128
        states.append(((inc + (state_hi << 64 | state_lo)) * _PCG_MULT + inc) & _M128)
        incs.append(inc)
    return states, incs


class RandomStreams:
    """A factory of independent, reproducible ``numpy`` generators.

    Parameters
    ----------
    seed:
        Master seed for the whole simulation run: a non-negative integer.

    Example
    -------
    >>> streams = RandomStreams(7)
    >>> a = streams.get("phone.0").integers(0, 100, 3)
    >>> b = RandomStreams(7).get("phone.0").integers(0, 100, 3)
    >>> (a == b).all()
    np.True_
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = check_seed(seed, "seed")
        # The seed as SeedSequence coerces it: little-endian uint32 words, at least one.
        self._seed_bytes = self.seed.to_bytes(4 * max(-(-self.seed.bit_length() // 32), 1), "little")
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
        return np.random.default_rng(np.random.SeedSequence(self._entropy((name,))[0]))

    def bank(self, prefix: str) -> StreamBank:
        """A new, empty :class:`StreamBank` over the streams named ``prefix + key``."""
        return StreamBank(self, prefix)

    def _entropy(self, names: Sequence[str]) -> np.ndarray:
        """One uint32 row per name: the seed's words, then four words of the name's SHA-256."""
        seed = self._seed_bytes
        rows = b"".join([seed + _name_bytes(name) for name in names])
        return np.frombuffer(rows, "<u4").reshape(len(names), -1)


class StreamBank:
    """N named streams as columns: one PCG64 ``(state, inc)`` pair per key.

    For a component that would otherwise hold one ``Generator`` per
    device.  :meth:`seed` derives the streams of a whole batch of keys in
    one NumPy pass — where batch size matters: construction is ~30 µs a
    ``Generator``, ~2 µs a row here at plan size — and :meth:`stream`
    hands out a cursor whose ``random()`` returns the very doubles
    ``RandomStreams.fresh(prefix + key).random()`` would.  The draws are
    scalar on purpose: a 128-bit step in NumPy costs more than the few
    dozen Python ones a caller's batch needs.

    Seeding is idempotent and order-free (see the module's draw
    convention): a key's stream does not depend on which batch seeded it.
    """

    def __init__(self, streams: RandomStreams, prefix: str) -> None:
        self._streams = streams
        self.prefix = prefix
        self._rows: dict[str, int] = {}
        self._state: list[int] = []
        self._inc: list[int] = []

    def seed(self, keys: Iterable[str]) -> None:
        """Seed, in one pass, the streams of whichever ``keys`` have none yet."""
        rows = self._rows
        new = [key for key in dict.fromkeys(keys) if key not in rows]
        if not new:
            return
        prefix = self.prefix
        states, incs = _seed_pcg64(self._streams._entropy([prefix + key for key in new]))
        rows.update(zip(new, range(len(rows), len(rows) + len(new))))
        self._state += states
        self._inc += incs

    def stream(self, key: str) -> StreamCursor:
        """The cursor over ``key``'s stream (seeded by an earlier :meth:`seed`)."""
        return StreamCursor(self._state, self._inc, self._rows[key])


class StreamCursor:
    """One stream of a :class:`StreamBank`; ``random()`` as a ``Generator``'s."""

    __slots__ = ("_state", "_inc", "_row")

    def __init__(self, state: list[int], inc: list[int], row: int) -> None:
        self._state = state
        self._inc = inc
        self._row = row

    def random(self) -> float:
        """The stream's next double in ``[0, 1)``: one LCG step, XSL-RR output, top 53 bits."""
        states, row = self._state, self._row
        state = states[row] = (states[row] * _PCG_MULT + self._inc[row]) & _M128
        folded, rotation = (state >> 64) ^ (state & _M64), state >> 122
        return (((folded >> rotation) | (folded << (64 - rotation) & _M64)) >> 11) * _TO_DOUBLE


class NormalReader:
    """Successive ``Generator.normal(loc, scale)`` draws of one stream, read in blocks.

    ``normal`` returns ``loc + scale * z`` — NumPy's own formula for a
    scalar draw — for the stream's next standard normal ``z``, taken from
    one ``standard_normal(BLOCK)`` call per :attr:`BLOCK` draws; ``take``
    hands out the next ``n`` of those ``z`` at once.
    """

    __slots__ = ("_rng", "_block", "_read")

    #: Draws per ``standard_normal`` call.
    BLOCK = 64

    def __init__(self, rng: np.random.Generator) -> None:
        self._rng = rng
        self._block = np.empty(0)
        self._read = 0  # draws of ``_block`` already handed out

    def normal(self, loc: float, scale: float) -> float:
        """The stream's next draw from ``N(loc, scale**2)``."""
        if self._read == len(self._block):
            self._block, self._read = self._rng.standard_normal(self.BLOCK), 0
        self._read += 1
        return loc + scale * float(self._block[self._read - 1])

    def take(self, n: int) -> np.ndarray:
        """The stream's next ``n`` standard normals, the ``z`` of ``n`` :meth:`normal` calls."""
        parts = [self._block[self._read :]]
        unread = len(parts[0])
        while unread < n:
            self._block = self._rng.standard_normal(self.BLOCK)
            parts.append(self._block)
            unread += self.BLOCK
        self._read = len(self._block) - (unread - n)
        return np.concatenate(parts)[:n]
