"""i-Fibonacci words: generation, substitution, and structural decompositions.

The family is indexed by i >= 2 with f_1 = "0", f_2 = 0^(i-1) 1 and
f_n = f_{n-1} f_{n-2}.  Every f_m is a prefix of f_n, so words are built in
place from their own prefixes, one uint8 symbol per byte.
"""

from __future__ import annotations

import itertools
import operator
import struct
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, OrderOverflowError, StructureError

_INT64_MAX = 2**63 - 1
# symbols per to_text and to_binary block: a multiple of 8, so each block
# packs to whole bytes
_BLOCK = 1 << 16

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


def _length_terms(i: int):
    """|f_1|, |f_2|, ... as exact ints without end, by L(m) = L(m-1) + L(m-2)."""
    a, b = 1, int(i)
    while True:
        yield a
        a, b = b, a + b


def _lengths(i: int, n: int) -> list:
    """[0, |f_1|, ..., |f_n|]; OrderOverflowError at the first term past int64."""
    _as_int(i, "family index i", 2)
    _as_int(n, "order n", 1)
    table = [0]
    for length in itertools.islice(_length_terms(i), n):  # ends by order 93
        if length > _INT64_MAX:
            raise OrderOverflowError("|f_%d^[%d]| exceeds int64" % (n, i))
        table.append(length)
    return table


def _part_offsets(lengths: list, n: int) -> list:
    """Symbol offsets of f_n's five part starts and its end; lengths from _lengths."""
    return list(itertools.accumulate((lengths[n - b] for b, _ in _PARTS), initial=0))


def fib_length(i: int, n: int) -> int:
    """Length of f_n^[i]; raises OrderOverflowError, both a DomainError and an
    OverflowError, once it no longer fits in a signed 64-bit integer."""
    return _lengths(i, n)[n]


@dataclass(frozen=True, eq=False)
class Word:
    """A finite binary word: a read-only uint8 array of 0s and 1s.

    The constructor takes the array over, marks it read-only and scans no
    value: the type vouches for its symbols, so as_bits hands them on
    unchecked.  Equality compares symbol content, so words built by
    different routes compare equal when they spell the same string.
    """

    symbols: np.ndarray

    def __post_init__(self):
        if getattr(self.symbols, "dtype", None) != np.uint8 or self.symbols.ndim != 1:
            raise DomainError("Word takes a 1-D uint8 array; as_bits converts the rest")
        self.symbols.flags.writeable = False

    def bits(self) -> np.ndarray:
        """Symbols as the word's own read-only uint8 array."""
        return self.symbols

    def text(self) -> str:
        """Symbols as a '0'/'1' string (no trailing newline)."""
        return b"".join(to_text(self))[:-1].decode("ascii")

    def __len__(self) -> int:
        return self.symbols.size

    def __eq__(self, other):
        if isinstance(other, Word):
            return np.array_equal(self.symbols, other.symbols)
        return NotImplemented

    def __hash__(self):
        return hash(self.symbols.tobytes())

    def __repr__(self):
        head = Word(self.symbols[:40]).text()  # formats 40 symbols at most
        head = head if len(self) <= 40 else head[:37] + "..."
        return "Word(%r, length=%d)" % (head, len(self))


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
    """Build f_n^[i] in one array by the rule f_m = f_{m-1} f_{m-2}: f_{m-2} is
    a prefix of f_{m-1}, so each step copies the array's own first symbols."""
    lengths = _lengths(i, n)  # checks int64 overflow
    bits = np.zeros(lengths[n], dtype=np.uint8)
    if n >= 2:
        bits[i - 1] = 1  # f_2 = 0^(i-1) 1
    for m in range(3, n + 1):
        bits[lengths[m - 1]:lengths[m]] = bits[:lengths[m - 2]]
    return Word(bits)


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
        raise StructureError("substitution gave %d symbols, expected %d"
                             % (bits.size, length))
    return Word(bits)


def l_word_bits(i: int, n: int) -> np.ndarray:
    """Symbols of l_n^[i]: f_n with its last two symbols swapped."""
    _as_int(n, "order n of an l-word", 2)
    bits = word_concat(i, n).bits().copy()
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
    lengths = _lengths(i, n)
    if n < 7:
        raise DomainError("five-partite structure needs n >= 7, got n=%d" % n)
    w = word_concat(i, n)
    cuts = _part_offsets(lengths, n)
    if cuts[-1] != len(w):
        raise StructureError("part lengths do not add up for (i=%d, n=%d)" % (i, n))
    parts = tuple((cuts[k], cuts[k + 1]) for k in range(5))
    for (start, end), (back, is_l) in zip(parts, _PARTS):
        ref = l_word_bits(i, n - back) if is_l else word_concat(i, n - back).bits()
        if not np.array_equal(w.bits()[start:end], ref):
            raise StructureError(
                "part [%d:%d] of f_%d^[%d] does not match its expected word"
                % (start, end, n, i)
            )
    return FivePartite(word=w, parts=parts)


def contains_11(w) -> bool:
    """True iff "11" occurs as a factor."""
    bits = as_bits(w)
    if bits.size < 2:
        return False
    return bool(np.any(bits[1:] & bits[:-1]))


def to_text(w: Word):
    """Serialize to ASCII '0'/'1' with a trailing newline, _BLOCK symbols a block."""
    bits = w.bits()
    for start in range(0, len(bits), _BLOCK):
        yield (bits[start:start + _BLOCK] + np.uint8(ord("0"))).tobytes()
    yield b"\n"


def from_text(data: bytes) -> Word:
    """Parse the text serialization back into a Word."""
    body = data[:-1] if data.endswith(b"\n") else data
    return Word(as_bits(body))


def to_binary(w: Word):
    """Serialize to 8-byte little-endian length followed by LSB-first packed
    bits: yields the header, then the packed bytes of _BLOCK symbols a block."""
    bits = w.bits()
    yield struct.pack("<Q", len(bits))
    for start in range(0, len(bits), _BLOCK):
        yield np.packbits(bits[start:start + _BLOCK], bitorder="little").tobytes()


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
    packed = np.frombuffer(data, dtype=np.uint8, offset=8)
    # to_binary writes every padding bit as 0, so a set one means the data
    # is corrupt or foreign, and to_binary would not give the same bytes back
    if length % 8 and packed[-1] >> (length % 8):
        raise DomainError("binary word has non-zero padding bits after symbol %d"
                          % (length,))
    return Word(np.unpackbits(packed, count=length, bitorder="little"))
