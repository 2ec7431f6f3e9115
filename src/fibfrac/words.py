"""i-Fibonacci words: generation, substitution, and structural decompositions.

The family is indexed by i >= 2 with f_1 = "0", f_2 = 0^(i-1) 1 and
f_n = f_{n-1} f_{n-2}.  Symbols are stored bit-packed so that orders with
tens of millions of symbols stay affordable.
"""

from __future__ import annotations

import operator
import struct
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, OrderOverflowError, StructureError

_INT64_MAX = 2**63 - 1

# f_n = f_{n-3} f_{n-3} f_{n-6} l_{n-3} l_{n-3}: each part's order offset and
# whether it is an l-word
_PARTS = ((3, False), (3, False), (6, False), (3, True), (3, True))


def _as_int(value, name: str, least: int) -> int:
    """value as an int; DomainError unless it is an integer >= least (bool is not)."""
    try:
        number = operator.index(value)
    except TypeError:
        number = None
    if number is None or isinstance(value, bool):
        raise DomainError("%s must be an integer, got %r" % (name, value))
    if number < least:
        raise DomainError("%s must be >= %d, got %r" % (name, least, number))
    return number


def _check_index(i: int, n: int) -> None:
    _as_int(i, "family index i", 2)
    _as_int(n, "order n", 1)


def _part_offsets(length, n: int) -> list:
    """Symbol offsets of f_n's five part starts and its end; length(m) = |f_m|."""
    offsets = [0]
    for back, _ in _PARTS:
        offsets.append(offsets[-1] + length(n - back))
    return offsets


def fib_length(i: int, n: int) -> int:
    """Length of f_n^[i] via L(1) = 1, L(2) = i, L(n) = L(n-1) + L(n-2).

    Raises OrderOverflowError, both a DomainError and an OverflowError, once
    the length no longer fits in a signed 64-bit integer.
    """
    _check_index(i, n)
    a, b = 1, int(i)
    for _ in range(n - 2):
        a, b = b, a + b
    length = a if n == 1 else b
    if length > _INT64_MAX:
        raise OrderOverflowError("|f_%d^[%d]| = %d exceeds int64" % (n, i, length))
    return length


@dataclass(frozen=True, eq=False)
class Word:
    """A finite binary word, stored bit-packed LSB-first with zero padding.

    Equality compares symbol content only, so words built by different
    routes compare equal when they spell the same string.
    """

    packed: np.ndarray
    length: int

    def bits(self) -> np.ndarray:
        """Symbols as a fresh uint8 array of 0s and 1s."""
        return np.unpackbits(self.packed, count=self.length, bitorder="little")

    def text(self) -> str:
        """Symbols as a '0'/'1' string (no trailing newline)."""
        return (self.bits() + np.uint8(ord("0"))).tobytes().decode("ascii")

    def __len__(self) -> int:
        return self.length

    def __eq__(self, other):
        if isinstance(other, Word):
            return self.length == other.length and np.array_equal(
                self.packed, other.packed
            )
        return NotImplemented

    def __hash__(self):
        return hash((self.length, self.packed.tobytes()))

    def __repr__(self):
        head = self.text() if self.length <= 40 else self.text()[:37] + "..."
        return "Word(%r, length=%d)" % (head, self.length)


def _word_from_bits(bits: np.ndarray) -> Word:
    packed = np.packbits(bits, bitorder="little")
    return Word(packed=packed, length=int(bits.size))


def as_bits(w) -> np.ndarray:
    """Coerce a Word, '0'/'1' string or bytes, or 0/1 sequence to a uint8 array.

    Any other symbol, such as 2, -1, 0.5 or "a", raises DomainError.
    """
    if isinstance(w, Word):
        return w.bits()
    if isinstance(w, str):
        w = w.encode("ascii", "replace")  # non-ASCII becomes "?", rejected below
    if isinstance(w, (bytes, bytearray)):
        arr = np.frombuffer(bytes(w), dtype=np.uint8) - np.uint8(ord("0"))
    else:
        try:
            arr = np.asarray(w)
        except ValueError:  # numpy refuses a ragged nested sequence
            raise DomainError("symbol sequence must be one-dimensional") from None
    if arr.ndim != 1:
        raise DomainError("symbol sequence must be one-dimensional")
    # checked before the cast, which would truncate 1.7 to 1 and wrap -1 to 255
    if not ((arr == 0) | (arr == 1)).all():
        raise DomainError("symbols must be 0 or 1")
    return arr.astype(np.uint8, copy=False)


def word_concat(i: int, n: int) -> Word:
    """Build f_n^[i] bottom-up by the concatenation rule f_n = f_{n-1} f_{n-2}."""
    fib_length(i, n)  # domain and overflow checks
    a = np.zeros(1, dtype=np.uint8)
    if n == 1:
        return _word_from_bits(a)
    b = np.zeros(i, dtype=np.uint8)
    b[-1] = 1
    for _ in range(n - 2):
        a, b = b, np.concatenate((b, a))
    return _word_from_bits(b)


def word_by_substitution(i: int, n: int) -> Word:
    """Build f_n^[i] by applying the substitution n-1 times to f_1 = "0".

    The substitution acts on block tags, 0 for B0 = "0" and 1 for
    B1 = 0^(i-1) 1: B0 -> B1 and B1 -> B1 B0.  Expanding the final tags gives
    the word.  This is the reference that word_concat is checked against.
    """
    length = fib_length(i, n)
    tags = np.zeros(1, dtype=np.uint8)
    for _ in range(n - 1):
        ends = np.cumsum(1 + tags.astype(np.int64))
        new = np.zeros(int(ends[-1]), dtype=np.uint8)
        new[ends - 1 - tags] = 1  # each tag's image starts with B1
        tags = new
    ends = np.cumsum(np.where(tags == 0, 1, i).astype(np.int64))
    bits = np.zeros(int(ends[-1]), dtype=np.uint8)
    bits[ends[tags == 1] - 1] = 1  # B1 ends in its only 1
    if bits.size != length:
        raise StructureError(
            "substitution gave %d symbols, expected %d" % (bits.size, length)
        )
    return _word_from_bits(bits)


def two_adic_distance(w, v) -> float:
    """2^(-L) where L is the longest common prefix length; 0 for identical words."""
    a, b = as_bits(w), as_bits(v)
    m = min(a.size, b.size)
    neq = a[:m] != b[:m]
    if neq.any():
        length = int(np.argmax(neq))
    elif a.size == b.size:
        return 0.0
    else:
        length = m
    return float(2.0 ** (-length))


def l_word_bits(i: int, n: int) -> np.ndarray:
    """Symbols of l_n^[i]: f_n with its last two symbols swapped."""
    _as_int(n, "order n of an l-word", 2)
    bits = word_concat(i, n).bits()
    bits[-2], bits[-1] = bits[-1], bits[-2]
    return bits


def last_two(n: int) -> str:
    """Last two symbols of f_n^[i] for n >= 2: "01" when n is even, else "10".

    This follows from f_n ending in f_{n-2} (in the suffix sense) for every
    family index i, so the tag depends only on the parity of n.
    """
    _as_int(n, "order n of a word of length >= 2", 2)
    return "01" if n % 2 == 0 else "10"


@dataclass(frozen=True)
class FivePartite:
    """f_n = f_{n-3} f_{n-3} f_{n-6} l_{n-3} l_{n-3} as index ranges into the word."""

    word: Word
    parts: tuple


def five_partite(i: int, n: int) -> FivePartite:
    """Split f_n (n >= 7) into f_{n-3} f_{n-3} f_{n-6} l_{n-3} l_{n-3}.

    The returned ranges are verified against independently generated parts;
    a mismatch raises StructureError.
    """
    _check_index(i, n)
    if n < 7:
        raise DomainError("five-partite structure needs n >= 7, got n=%d" % n)
    w = word_concat(i, n)
    cuts = _part_offsets(lambda m: fib_length(i, m), n)
    if cuts[-1] != len(w):
        raise StructureError("part lengths do not add up for (i=%d, n=%d)" % (i, n))
    bits = w.bits()
    parts = tuple((cuts[k], cuts[k + 1]) for k in range(5))
    for (start, end), (back, is_l) in zip(parts, _PARTS):
        ref = l_word_bits(i, n - back) if is_l else word_concat(i, n - back).bits()
        if not np.array_equal(bits[start:end], ref):
            raise StructureError(
                "part [%d:%d] of f_%d^[%d] does not match its expected word"
                % (start, end, n, i)
            )
    return FivePartite(word=w, parts=parts)


PalindromeSplit = namedtuple("PalindromeSplit", ["p", "ab"])


def palindrome_decomposition(w) -> PalindromeSplit:
    """Split a word as p * ab where p is a palindrome and ab is "01" or "10"."""
    bits = as_bits(w)
    if bits.size < 2:
        raise DomainError("need at least two symbols, got %d" % bits.size)
    p, tail = bits[:-2], bits[-2:]
    if tail[0] == tail[1]:
        raise StructureError(
            "last two symbols are %d%d, expected 01 or 10" % (tail[0], tail[1])
        )
    if not np.array_equal(p, p[::-1]):
        raise StructureError("leading part is not a palindrome")
    ab = "01" if tail[1] == 1 else "10"
    return PalindromeSplit(p=p, ab=ab)


def contains_11(w) -> bool:
    """True iff "11" occurs as a factor."""
    bits = as_bits(w)
    if bits.size < 2:
        return False
    return bool(np.any(bits[1:] & bits[:-1]))


def to_text(w: Word) -> bytes:
    """Serialize to ASCII '0'/'1' with a trailing newline."""
    return (w.bits() + np.uint8(ord("0"))).tobytes() + b"\n"


def from_text(data: bytes) -> Word:
    """Parse the text serialization back into a Word."""
    body = data[:-1] if data.endswith(b"\n") else data
    bits = as_bits(body)
    return _word_from_bits(bits)


def to_binary(w: Word) -> bytes:
    """Serialize to 8-byte little-endian length followed by LSB-first packed bits."""
    return struct.pack("<Q", w.length) + w.packed.tobytes()


def from_binary(data: bytes) -> Word:
    """Parse the binary serialization back into a Word; padding bits must be 0."""
    if len(data) < 8:
        raise DomainError("binary word data shorter than its 8-byte header")
    (length,) = struct.unpack("<Q", data[:8])
    nbytes = (length + 7) // 8
    if len(data) - 8 != nbytes:
        raise DomainError(
            "expected %d packed bytes for %d symbols, got %d"
            % (nbytes, length, len(data) - 8)
        )
    packed = np.frombuffer(data[8:], dtype=np.uint8)
    # equality and hashing compare the packed bytes, padding included
    if length % 8 and packed[-1] >> (length % 8):
        raise DomainError("binary word has non-zero padding bits after symbol %d"
                          % (length,))
    return Word(packed=packed.copy(), length=int(length))
