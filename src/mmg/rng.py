"""Seeded random streams.

One game run owns exactly one stream, the PCG64 bit generator that one
``Draws`` builds from the game's seed and holds alone; it makes every draw
of the game from set-up to its last tick, and ``Draws.sync`` hands out
snapshots of it. Ensembles derive one child seed per run from a master
seed via indexed spawn keys, so growing an ensemble never disturbs the
streams of runs already computed.

``Draws`` reads the raw 64-bit words of its PCG64, with the algorithms of
NumPy's ``Generator`` written out here. NumPy's policy on random streams
(NEP 19) keeps a bit generator's words fixed across versions but lets
``Generator`` methods change theirs, so the bytes of a game depend only on
PCG64 and ``SeedSequence``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Draws", "subseed"]

_MASK32 = 0xFFFFFFFF
_TWO32 = 1 << 32
# a raw word, and its two halves in the order NumPy reads them, low first
_WORD = np.dtype("<u8")
_HALVES = np.dtype("<u4")


def subseed(master_seed: int, index: int) -> int:
    """64-bit seed of the index-th substream derived from ``master_seed``."""
    if index < 0:
        raise ValueError("substream index must be non-negative")
    ss = np.random.SeedSequence(master_seed, spawn_key=(index,))
    return int(ss.generate_state(1, np.uint64)[0])


class Draws:
    """The draws of a game from the PCG64 generator of its ``seed``, each
    equal to the NumPy ``Generator`` call it names, values and generator
    state alike.

    NumPy draws an integer below n <= 2**32 from 32-bit halves of the raw
    words, low half first (Lemire's method: the high 32 bits of half * n,
    redrawn while the low 32 bits fall below 2**32 mod n), and keeps the high
    half it has not used for the next such draw (``has_uint32``; ``uinteger``
    holds the last high half drawn, used or not). Here that half is kept in
    this object, which alone holds the stream, and ``sync`` writes it into
    the state of a new generator. A ``uniform`` value takes a whole word.
    A deep copy or an unpickled copy draws from its own copy of the PCG64.
    """

    def __init__(self, seed: int) -> None:
        self._bits = np.random.PCG64(seed)  # the stream of default_rng(seed)
        # a fresh generator has no half buffered, and its last high half is 0
        self._has = 0  # a high half is buffered
        self._half = 0  # the last high half drawn

    def sync(self) -> np.random.Generator:
        """A new generator in the state NumPy's own calls for the same draws
        would leave theirs in; a draw made on it leaves this stream as is."""
        state = self._bits.state
        state["has_uint32"], state["uinteger"] = self._has, self._half
        bits = np.random.PCG64()
        bits.state = state
        return np.random.Generator(bits)

    def integer(self, n: int) -> int:
        """``integers(0, n)`` for 1 <= n <= 2**32; n = 1 draws nothing."""
        if n == 1:
            return 0
        while True:
            if self._has:
                half = self._half
                self._has = 0
            else:
                word = self._bits.random_raw()
                half = word & _MASK32
                self._half = word >> 32
                self._has = 1
            product = half * n
            low = product & _MASK32
            if low >= n or low >= _TWO32 % n:
                return product >> 32

    def _halves(self, k: int) -> np.ndarray:
        """The next k halves NumPy would read, and one more, left buffered,
        when the last word's high half is not among them."""
        raw = self._bits.random_raw((k - self._has + 1) // 2).astype(_WORD, copy=False)
        halves = raw.view(_HALVES)
        if self._has:
            halves = np.empty(len(halves) + 1, dtype=_HALVES)
            halves[0] = self._half
            halves[1:] = raw.view(_HALVES)
        if len(raw):
            self._half = int(halves[-1])
        self._has = len(halves) - k
        return halves

    def integers(self, high: np.ndarray | int, size: int | None = None) -> np.ndarray:
        """``integers(0, high)`` for an array of highs, or ``integers(0, high,
        size=size)`` for one, as int64; every high in [2, 2**32].

        Each value reads one half unless it is redrawn, so the values come
        from one product of the next halves and the highs. Only when the low
        32 bits of a product fall below its high does the call put its words
        back (PCG64 steps backwards) and draw the values one by one."""
        count = len(high) if size is None else size
        start = self._has, self._half
        halves = self._halves(count)
        product = np.multiply(halves[:count], high, dtype=np.uint64, casting="unsafe")
        # a power of two, whose 2**32 mod n is 0, is never redrawn
        redraw = size is None or high & (high - 1)
        if redraw and np.count_nonzero(product.astype(np.uint32) < high):
            # rewind the words this call drew, a buffered half aside
            self._bits.advance(-(len(halves) // 2))
            self._has, self._half = start
            highs = high.tolist() if size is None else [high] * size
            return np.array([self.integer(n) for n in highs], dtype=np.int64)
        product >>= 32
        return product.view(np.int64)

    def words(self, count: int) -> np.ndarray:
        """``integers(0, 2**32, size=count, dtype=np.uint32)``, little-endian."""
        return self._halves(count)[:count]

    def uniform(self, low: float, high: float, out: np.ndarray) -> None:
        """Write ``uniform(low, high, size=out.shape)`` into the float64
        ``out``: low + (high - low) * u, with u the top 53 bits of a word over
        2**53, rounded twice as NumPy's C code is. Holds one word a value."""
        low, high = float(low), float(high)
        raw = self._bits.random_raw(out.shape)
        raw >>= 11
        out[...] = raw
        out *= 2.0**-53
        out *= high - low
        out += low
