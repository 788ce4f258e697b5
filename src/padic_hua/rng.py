"""Deterministic, splittable random bit streams.

Streams are derived from a root integer seed through numpy's SeedSequence
spawn-key mechanism: ``RngStream(seed, key + (i,))`` addresses an
independent stream below ``key``, so any tree of streams is a pure function
of (seed, key path).  Identical seeds give identical output sequences
regardless of process or thread layout, which is what makes parallel Monte
Carlo reductions reproducible.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate
from math import gcd
from typing import NamedTuple

import numpy as np

# First-byte entries of a DrawTable that settle no state.
REJECT = -1  # every attempt with this first byte is >= d
UNDECIDED = -2  # the attempt's later bytes decide


class DrawTable(NamedTuple):
    """Inverse-CDF draw over the cumulative weights ``cum`` of a row with
    denominator d, decided from an attempt's first byte where it can be.

    An attempt is what randbelow(d) reads: nbytes bytes, shifted down by
    drop bits.  ``first[b]`` is the state every attempt starting with byte
    b lands in, REJECT when every such attempt is >= d, else UNDECIDED.
    """

    d: int
    cum: tuple
    nbytes: int
    drop: int
    first: tuple


def draw_table(d: int, weights) -> DrawTable:
    """The DrawTable of the row of masses w / d, reduced by g = gcd(d,
    *weights): d / g is the lcm of the masses' reduced denominators, the
    bound randbelow draws below.  The row must sum to 1 exactly."""
    # g divides g0 = gcd(d, smallest weight), and is g0 when g0 divides
    # every weight, as in the entrance rows; one divmod per weight then both
    # checks that and reduces the row.
    g = gcd(d, min(w for w in weights if w))
    split = [divmod(w, g) for w in weights]
    rest = gcd(*[r for _, r in split])
    if rest:
        g = gcd(g, rest)
        split = [divmod(w, g) for w in weights]
    d //= g
    cum = tuple(accumulate(q for q, _ in split))
    if cum[-1] != d:
        raise AssertionError("row masses do not sum to 1 exactly")
    if d == 1:  # randbelow(1) reads nothing
        return DrawTable(d, cum, 0, 0, (bisect_right(cum, 0),))
    k = (d - 1).bit_length()
    nbytes = (k + 7) // 8
    drop = 8 * nbytes - k
    later = 8 * (nbytes - 1)  # bits after the first byte
    first = []
    for b in range(256):
        lo = (b << later) >> drop
        hi = (((b + 1) << later) - 1) >> drop
        if lo >= d:
            first.append(REJECT)
        elif hi < d and bisect_right(cum, lo) == bisect_right(cum, hi):
            first.append(bisect_right(cum, lo))
        else:
            first.append(UNDECIDED)
    return DrawTable(d, cum, nbytes, drop, tuple(first))


class RngStream:
    """Single-owner stream of uniform bits with exact integer draws.

    The stream is numpy's ``Generator(PCG64(...)).bytes`` output, refilled
    in slabs of max(_REFILL, k) bytes, but read from the bit generator's raw
    64-bit words: ``Generator.bytes(m)`` is the first m bytes of its next
    ceil(m / 4) uint32 outputs, little-endian, and each raw word gives two
    of them, low half first.  The high half of a word that a refill leaves
    unread is the next refill's first output.
    """

    __slots__ = ("seed", "key", "_bitgen", "_half", "_buf", "_pos",
                 "bits_consumed")

    _REFILL = 512  # bytes pulled from the generator per refill

    def __init__(self, seed: int, key: tuple[int, ...] = ()):
        self.seed = int(seed)
        self.key = tuple(int(k) for k in key)
        ss = np.random.SeedSequence(self.seed, spawn_key=self.key)
        self._bitgen = np.random.PCG64(ss)
        self._half = b""  # the pending high half of the last raw word
        self._buf = b""
        self._pos = 0
        self.bits_consumed = 0

    def _generator_bytes(self, m: int) -> bytes:
        """Generator.bytes(m): the first m bytes of the next ceil(m / 4)
        uint32 outputs; the rest of the last output is dropped."""
        used = 4 * (-(-m // 4))
        words = -(-(used - len(self._half)) // 8)
        raw = self._half + self._bitgen.random_raw(words).astype(
            "<u8", copy=False).tobytes()
        self._half = raw[used:]
        return raw[:m]

    def randbytes(self, k: int) -> bytes:
        """The next k bytes of the stream: the bits randbits(8 k) reads,
        big-endian."""
        end = self._pos + k
        if end > len(self._buf):
            # Buffered refill; the byte sequence consumed is identical to an
            # unbuffered generator, just fetched in larger slabs.
            self._buf = self._buf[self._pos:] + self._generator_bytes(
                max(self._REFILL, k))
            self._pos = 0
            end = k
        out = self._buf[self._pos:end]
        self._pos = end
        self.bits_consumed += 8 * k
        return out

    def randbits(self, k: int) -> int:
        """Uniform integer in [0, 2^k): the top k bits of the next whole
        bytes.  The low bits of the last byte are dropped and not counted
        in bits_consumed."""
        if k <= 0:
            raise ValueError(f"need k >= 1, got {k}")
        nbytes = (k + 7) // 8
        drop = 8 * nbytes - k
        raw = int.from_bytes(self.randbytes(nbytes), "big")
        self.bits_consumed -= drop
        return raw >> drop

    def randbelow(self, n: int) -> int:
        """Uniform integer in [0, n) by rejection, each attempt randbits(k)
        for k the bit length of n - 1; exact for any n >= 1."""
        if n <= 0:
            raise ValueError(f"need n >= 1, got {n}")
        if n == 1:
            return 0
        k = (n - 1).bit_length()
        while True:
            r = self.randbits(k)
            if r < n:
                return r

    def randbelow_array(self, n: int, count: int) -> np.ndarray:
        """count draws of randbelow(n) for 1 <= n <= 256, as an int64 array,
        reading the same bytes and counting the same bits.  An attempt is
        one byte shifted down by drop bits; each read takes one attempt per
        draw still owed, at most _REFILL bytes, so the refills fetch the
        generator words that one-byte reads would."""
        if not 1 <= n <= 256:
            raise ValueError(f"need 1 <= n <= 256, got {n}")
        out = np.zeros(count, dtype=np.int64)
        if n == 1:  # randbelow(1) reads nothing
            return out
        drop = 8 - (n - 1).bit_length()
        have = 0
        while have < count:
            x = np.frombuffer(self.randbytes(min(count - have, self._REFILL)),
                              dtype=np.uint8) >> drop
            self.bits_consumed -= drop * x.size
            x = x[x < n]
            out[have:have + x.size] = x
            have += x.size
        return out

    def choose(self, table: DrawTable) -> int:
        """bisect_right(table.cum, randbelow(table.d)), reading the same
        bytes at the same refill points and counting the same bits, but
        parsing an attempt only when its first byte leaves it undecided."""
        d, cum, nbytes, drop, first = table
        if not nbytes:
            return first[0]
        while True:
            pos = self._pos
            end = pos + nbytes
            if end > len(self._buf):
                # randbytes' refill, at the same points
                self._buf = self._buf[pos:] + self._generator_bytes(
                    max(self._REFILL, nbytes))
                pos, end = 0, nbytes
            self._pos = end
            self.bits_consumed += 8 * nbytes - drop
            x = first[self._buf[pos]]
            if x >= 0:
                return x
            if x == UNDECIDED:
                r = int.from_bytes(self._buf[pos:end], "big") >> drop
                if r < d:
                    return bisect_right(cum, r)

    def __repr__(self):
        return f"RngStream(seed={self.seed}, key={self.key})"
