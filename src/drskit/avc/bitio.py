"""MSB-first bit cursor with Exp-Golomb decoding.

The reader never scans past the payload end: every primitive raises
``BitstreamExhausted`` instead, and Exp-Golomb prefixes are capped at 32
leading zeros so damaged input cannot trigger unbounded reads.
"""

from __future__ import annotations

from ..errors import BitstreamExhausted, MalformedSyntax

__all__ = ["BitReader"]

_UE_MAX_LEADING_ZEROS = 32


class BitReader:
    def __init__(self, data: bytes):
        self._data = data
        self._pos = 0  # bit position
        self._n_bits = 8 * len(data)

    def read_bit(self) -> int:
        if self._pos >= self._n_bits:
            raise BitstreamExhausted(f"read past end of payload at bit {self._pos}")
        byte = self._data[self._pos >> 3]
        bit = (byte >> (7 - (self._pos & 7))) & 1
        self._pos += 1
        return bit

    def read_bits(self, n: int) -> int:
        if n < 0:
            raise MalformedSyntax(f"cannot read {n} bits")
        if self._pos + n > self._n_bits:
            raise BitstreamExhausted(f"read of {n} bits past end of payload at bit {self._pos}")
        value = 0
        for _ in range(n):
            value = (value << 1) | self.read_bit()
        return value

    def read_flag(self) -> int:
        return self.read_bit()

    def read_ue(self) -> int:
        """Unsigned Exp-Golomb: count leading zeros, then read that many
        info bits; value = 2^zeros - 1 + info."""
        zeros = 0
        while self.read_bit() == 0:
            zeros += 1
            if zeros > _UE_MAX_LEADING_ZEROS:
                raise MalformedSyntax("Exp-Golomb prefix exceeds 32 leading zeros")
        if zeros == 0:
            return 0
        return (1 << zeros) - 1 + self.read_bits(zeros)

    def read_se(self) -> int:
        """Signed Exp-Golomb: code k maps to (-1)^(k+1) * ceil(k/2)."""
        k = self.read_ue()
        magnitude = (k + 1) >> 1
        return magnitude if k & 1 else -magnitude
