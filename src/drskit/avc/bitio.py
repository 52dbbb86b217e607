"""MSB-first bit cursor and writer with Exp-Golomb coding.

The reader never scans past the payload end: every primitive raises
``BitstreamExhausted`` instead, and Exp-Golomb prefixes are capped at 32
leading zeros so damaged input cannot trigger unbounded reads.
"""

from __future__ import annotations

from ..errors import BitstreamExhausted, MalformedSyntax

__all__ = ["BitReader", "BitWriter"]

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


class BitWriter:
    def __init__(self):
        self._bits: list[int] = []

    def write_bit(self, bit: int) -> "BitWriter":
        self._bits.append(1 if bit else 0)
        return self

    def write_bits(self, value: int, n: int) -> "BitWriter":
        if value < 0 or (n < 64 and value >= (1 << n)):
            raise MalformedSyntax(f"value {value} does not fit in {n} bits")
        for i in range(n - 1, -1, -1):
            self.write_bit((value >> i) & 1)
        return self

    def write_ue(self, value: int) -> "BitWriter":
        if value < 0:
            raise MalformedSyntax(f"ue value must be >= 0, got {value}")
        code = value + 1
        n = code.bit_length()
        self.write_bits(0, n - 1)
        self.write_bits(code, n)
        return self

    def write_se(self, value: int) -> "BitWriter":
        if value > 0:
            k = 2 * value - 1
        else:
            k = -2 * value
        return self.write_ue(k)

    def write_trailing_bits(self) -> "BitWriter":
        """RBSP stop bit plus zero padding to a byte boundary."""
        self.write_bit(1)
        while len(self._bits) % 8 != 0:
            self.write_bit(0)
        return self

    def to_bytes(self) -> bytes:
        out = bytearray()
        acc = 0
        for i, b in enumerate(self._bits):
            acc = (acc << 1) | b
            if i % 8 == 7:
                out.append(acc)
                acc = 0
        tail = len(self._bits) % 8
        if tail:
            out.append(acc << (8 - tail))
        return bytes(out)

    def __len__(self) -> int:
        return len(self._bits)
