"""Deterministic, splittable random bit streams.

Streams are derived from a root integer seed through numpy's SeedSequence
spawn-key mechanism: ``RngStream(seed, key + (i,))`` addresses an
independent stream below ``key``, so any tree of streams is a pure function
of (seed, key path).  Identical seeds give identical output sequences
regardless of process or thread layout, which is what makes parallel Monte
Carlo reductions reproducible.
"""

from __future__ import annotations

import numpy as np


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
        """Uniform integer in [0, n) by rejection; exact for any n >= 1."""
        if n <= 0:
            raise ValueError(f"need n >= 1, got {n}")
        if n == 1:
            return 0
        # Each attempt is randbits(k), inlined: one read of whole bytes,
        # shifted down to its top k bits, the dropped bits not counted.
        k = (n - 1).bit_length()
        nbytes = (k + 7) // 8
        drop = 8 * nbytes - k
        randbytes = self.randbytes
        while True:
            r = int.from_bytes(randbytes(nbytes), "big") >> drop
            self.bits_consumed -= drop
            if r < n:
                return r

    def __repr__(self):
        return f"RngStream(seed={self.seed}, key={self.key})"
