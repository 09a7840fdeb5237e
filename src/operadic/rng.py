"""Deterministic splittable random streams.

Every randomized suite in this package draws from a named stream so that a
(seed, path) pair fully determines the sequence, independently of platform,
hash randomization or call interleaving in sibling streams.

Algorithm id "sha256-stream-v1": the byte stream of a node with integer seed
``s`` and path ``(p1, ..., pk)`` is the concatenation of
``sha256(b"{s}|{p1}/{p2}/.../{pk}|{counter}")`` for counter = 0, 1, 2, ...
Integers are drawn by rejection sampling so the distribution is uniform.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction

from .errors import OperadicError

ALGORITHM_ID = "sha256-stream-v1"


class Stream:
    """One node of the split tree; yields bytes, ints, choices, fractions."""

    def __init__(self, seed: int, path: tuple[str, ...] = ()):
        self.seed = int(seed)
        self.path = tuple(str(p) for p in path)
        self._buf = b""
        self._counter = 0

    def split(self, name) -> "Stream":
        return Stream(self.seed, self.path + (str(name),))

    def _refill(self) -> None:
        tag = "%d|%s|%d" % (self.seed, "/".join(self.path), self._counter)
        self._counter += 1
        self._buf += hashlib.sha256(tag.encode("ascii")).digest()

    def bytes(self, n: int) -> bytes:
        while len(self._buf) < n:
            self._refill()
        out, self._buf = self._buf[:n], self._buf[n:]
        return out

    def bits(self, nbits: int) -> int:
        nbytes = (nbits + 7) // 8
        value = int.from_bytes(self.bytes(nbytes), "big")
        return value >> (nbytes * 8 - nbits)

    def randint(self, lo: int, hi: int) -> int:
        # inclusive bounds, uniform via rejection
        if lo > hi:
            raise OperadicError("empty range")
        span = hi - lo + 1
        nbits = max(1, span.bit_length())
        while True:
            v = self.bits(nbits)
            if v < span:
                return lo + v

    def choice(self, seq):
        seq = list(seq)
        if not seq:
            raise OperadicError("choice from empty sequence")
        return seq[self.randint(0, len(seq) - 1)]

    def shuffle(self, seq) -> list:
        out = list(seq)
        for i in range(len(out) - 1, 0, -1):
            j = self.randint(0, i)
            out[i], out[j] = out[j], out[i]
        return out

    def fraction(self, max_den: int = 64, hi: Fraction = Fraction(1)) -> Fraction:
        """Uniform-ish rational in [0, hi] with raw denominator <= max_den."""
        q = self.randint(1, max_den)
        p = self.randint(0, q)
        return hi * Fraction(p, q)

    def fraction_pos(self, max_den: int = 64) -> Fraction:
        """Uniform-ish rational in (0, 1) with raw denominator <= max_den."""
        q = self.randint(2, max_den)
        p = self.randint(1, q - 1)
        return Fraction(p, q)

    def maybe(self) -> bool:
        """A fair coin."""
        return self.randint(1, 2) == 1
