"""Word generation, decompositions, and serialization."""

import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibfrac import ifs, metrics, turtle, words
from fibfrac.errors import DomainError, FibfracError, OrderOverflowError

# first five words of the i = 2 and i = 3 families, written out by hand
# from f_1 = 0, f_2 = 0^(i-1) 1, f_n = f_(n-1) f_(n-2)
SMALL = {
    (2, 1): "0",
    (2, 2): "01",
    (2, 3): "010",
    (2, 4): "01001",
    (2, 5): "01001010",
    (3, 1): "0",
    (3, 2): "001",
    (3, 3): "0010",
    (3, 4): "0010001",
    (3, 5): "00100010010",
}


def text(w) -> str:
    return w.text()


@pytest.mark.parametrize("i,n", sorted(SMALL))
def test_small_words_exact(i, n):
    assert text(words.word_concat(i, n)) == SMALL[(i, n)]


def test_fib_length_matches_strings():
    for (i, n), s in SMALL.items():
        assert words.fib_length(i, n) == len(s)


def test_fib_length_recurrence():
    for i in (2, 3, 4, 7):
        for n in range(3, 40):
            assert (words.fib_length(i, n)
                    == words.fib_length(i, n - 1) + words.fib_length(i, n - 2))


def test_fib_length_overflow_guard():
    with pytest.raises(OverflowError) as info:
        words.fib_length(2, 200)
    assert isinstance(info.value, FibfracError)
    # the length table stops at the first term past int64, so a huge order
    # fails at once instead of growing a table of n exact ints
    with pytest.raises(OrderOverflowError):
        words.fib_length(2, 10**9)
    # every builder sizes its word through fib_length first
    for build in (lambda: words.word_concat(2, 100), lambda: words.five_partite(2, 100),
                  lambda: words.l_word_bits(2, 100),
                  lambda: turtle.endpoints_on_box(2, 95)):
        with pytest.raises(FibfracError):
            build()


@pytest.mark.parametrize("i", range(2, 10))
def test_substitution_matches_concat(i):
    for n in range(1, 22):
        a = words.word_concat(i, n)
        b = words.word_by_substitution(i, n)
        assert np.array_equal(a.bits(), b.bits()), (i, n)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 12), st.integers(1, 24))
def test_substitution_equals_concatenation_property(i, n):
    w = words.word_concat(i, n)
    assert words.word_by_substitution(i, n) == w
    assert "11" not in w.text()


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 12), st.integers(7, 22))
def test_five_partite_reassembles_property(i, n):
    fp = words.five_partite(i, n)
    bits = fp.word.bits()
    starts = [a for a, _ in fp.parts]
    ends = [b for _, b in fp.parts]
    assert starts[0] == 0 and starts[1:] == ends[:-1] and ends[-1] == bits.size
    assert np.array_equal(np.concatenate([bits[a:b] for a, b in fp.parts]), bits)
    assert not words.contains_11(fp.word)


@pytest.mark.parametrize("i", [2, 3, 4])
def test_prefix_property(i):
    # each word is a prefix of the next one from n >= 2 on
    prev = words.word_concat(i, 2).bits()
    for n in range(3, 16):
        cur = words.word_concat(i, n).bits()
        assert np.array_equal(cur[: prev.size], prev)
        prev = cur


@pytest.mark.parametrize("i", [2, 3, 4, 5])
def test_no_adjacent_ones(i):
    for n in range(1, 18):
        assert not words.contains_11(words.word_concat(i, n))


def test_contains_11_detects():
    assert words.contains_11(np.array([0, 1, 1, 0], dtype=np.uint8))
    assert not words.contains_11(np.array([0, 1, 0, 1], dtype=np.uint8))


@pytest.mark.parametrize("i", [2, 3, 4])
def test_five_partite_reassembly(i):
    for n in range(7, 17):
        fp = words.five_partite(i, n)
        bits = fp.word.bits()
        assert len(fp.parts) == 5
        assert fp.parts[0][0] == 0 and fp.parts[-1][1] == bits.size
        for (a0, a1), (b0, b1) in zip(fp.parts, fp.parts[1:]):
            assert a1 == b0
        joined = np.concatenate([bits[a:b] for a, b in fp.parts])
        assert np.array_equal(joined, bits)


def test_five_partite_part_contents():
    # parts 1, 2, 4 are copies of f_(n-3) (the last two as l-words),
    # part 3 is f_(n-6); check the lengths and the plain-copy prefix parts
    for i in (2, 3):
        for n in range(9, 15):
            fp = words.five_partite(i, n)
            bits = fp.word.bits()
            l3 = words.fib_length(i, n - 3)
            l6 = words.fib_length(i, n - 6)
            sizes = [b - a for a, b in fp.parts]
            assert sizes == [l3, l3, l6, l3, l3]
            sub = words.word_concat(i, n - 3).bits()
            assert np.array_equal(bits[:l3], sub)
            assert np.array_equal(bits[l3: 2 * l3], sub)
            lw = words.l_word_bits(i, n - 3)
            assert np.array_equal(bits[2 * l3 + l6: 3 * l3 + l6], lw)
            assert np.array_equal(bits[3 * l3 + l6:], lw)


def test_five_partite_needs_n_at_least_7():
    with pytest.raises(DomainError):
        words.five_partite(2, 6)


def test_word_bits_are_one_read_only_array():
    w = words.word_concat(2, 10)
    bits = w.bits()
    assert w.bits() is bits and words.as_bits(w) is bits
    assert not bits.flags.writeable
    with pytest.raises(ValueError):
        bits[0] = 1


@pytest.mark.parametrize("symbols", [
    np.array([0, 1]), np.zeros((2, 2), np.uint8), [0, 1], b"01",
], ids=["int64", "2-d", "list", "bytes"])
def test_word_takes_only_a_flat_uint8_array(symbols):
    # the type vouches for its symbols, so it accepts only what as_bits gives
    with pytest.raises(DomainError):
        words.Word(symbols)


def test_l_word_bits_is_a_writable_copy():
    w = words.word_concat(3, 9)
    before = w.text()
    lw = words.l_word_bits(3, 9)
    assert lw.flags.writeable and not np.shares_memory(lw, w.bits())
    lw[0] = 1
    assert w.text() == before == words.word_concat(3, 9).text()


def _traced_peak(call):
    """(result, peak bytes tracemalloc saw above the start) of call()."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = call()
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_word_and_text_make_no_temporary_copies():
    # f_30^[2] has 1.35M symbols; the only large allocation is the word
    # itself, and its serializers hold one block at a time, however long
    # the output
    n = 30
    w, peak = _traced_peak(lambda: words.word_concat(2, n))
    assert peak <= words.fib_length(2, n) + 65536
    size, drain = _traced_peak(lambda: sum(len(b) for b in words.to_text(w)))
    assert drain <= 2**18 < size
    size, drain = _traced_peak(lambda: sum(len(b) for b in words.to_binary(w)))
    assert drain <= 2**15 < size


def test_repr_formats_only_the_symbols_it_shows():
    assert repr(words.word_concat(2, 5)) == "Word('01001010', length=8)"
    assert repr(words.Word(words.as_bits("01" * 20))) == (
        "Word('0101010101010101010101010101010101010101', length=40)")
    assert repr(words.Word(words.as_bits("01" * 20 + "1"))) == (
        "Word('0101010101010101010101010101010101010...', length=41)")
    w = words.word_concat(2, 30)
    got, peak = _traced_peak(lambda: repr(w))
    assert got == "Word('0100101001001010010100100101001001010...', length=1346269)"
    assert peak <= 2**12


def _whole_text(w) -> bytes:
    """to_text's bytes made in one buffer: the symbols plus "0", then a newline."""
    out = bytearray(len(w) + 1)
    np.add(w.bits(), np.uint8(ord("0")), out=np.frombuffer(out, np.uint8)[:-1])
    out[-1] = ord("\n")
    return bytes(out)


def _whole_binary(w) -> bytes:
    """to_binary's bytes from one packbits of the whole word."""
    return struct.pack("<Q", len(w)) + np.packbits(w.bits(), bitorder="little").tobytes()


@pytest.mark.parametrize("n", [1, words._BLOCK - 1, words._BLOCK, words._BLOCK + 1,
                               2 * words._BLOCK + 5])
def test_serializer_blocks_match_whole_array(n):
    w = words.Word(np.random.default_rng(n).integers(0, 2, n, dtype=np.uint8))
    assert b"".join(words.to_text(w)) == _whole_text(w)
    assert b"".join(words.to_binary(w)) == _whole_binary(w)


def test_l_word_swaps_last_two():
    for i in (2, 3):
        for n in range(3, 12):
            plain = words.word_concat(i, n).bits()
            lw = words.l_word_bits(i, n)
            assert np.array_equal(lw[:-2], plain[:-2])
            assert lw[-1] == plain[-2] and lw[-2] == plain[-1]


def test_last_two_alternates():
    for n in range(2, 14):
        want = "01" if n % 2 == 0 else "10"
        assert words.last_two(n) == want
        for i in (2, 3):
            assert text(words.word_concat(i, n)).endswith(want)


def palindrome_decomposition(w):
    """(p, ab) with w = p ab, p a palindrome and ab "01" or "10"."""
    bits = words.as_bits(w)
    assert bits.size >= 2
    p, tail = bits[:-2], bits[-2:]
    assert tail[0] != tail[1], "last two symbols are %d%d" % tuple(tail)
    assert np.array_equal(p, p[::-1]), "leading part is not a palindrome"
    return p, "01" if tail[1] == 1 else "10"


def test_palindrome_decomposition():
    for i in (2, 3):
        for n in range(4, 14):
            w = words.word_concat(i, n)
            p, ab = palindrome_decomposition(w)
            bits = w.bits()
            assert np.array_equal(p, bits[: bits.size - 2])
            assert ab == words.last_two(n)


def two_adic_distance(w, v) -> float:
    """2^(-L), L the length of the longest common prefix; 0 for identical words."""
    a, b = words.as_bits(w), words.as_bits(v)
    m = min(a.size, b.size)
    neq = a[:m] != b[:m]
    if neq.any():
        return 2.0 ** -int(np.argmax(neq))
    return 0.0 if a.size == b.size else 2.0 ** -m


def test_two_adic_distance():
    a = words.word_concat(2, 8)
    b = words.word_concat(2, 9)
    # the shorter word is a prefix of the longer, so the first disagreement
    # is at its end: distance 2^-|f_8|
    assert two_adic_distance(a, b) == 2.0 ** -words.fib_length(2, 8)
    assert two_adic_distance(a, a) == 0.0
    # hand example: common prefix of length 5
    u = np.array([0, 1, 0, 0, 1, 0, 1], dtype=np.uint8)
    v = np.array([0, 1, 0, 0, 1, 1, 1], dtype=np.uint8)
    assert two_adic_distance(u, v) == 2.0 ** -5
    assert two_adic_distance(u, v) == two_adic_distance(v, u)


def test_two_adic_ultrametric():
    rng = np.random.default_rng(3)
    for _ in range(200):
        u, v, w = (rng.integers(0, 2, rng.integers(1, 12)).astype(np.uint8)
                   for _ in range(3))
        duv = two_adic_distance(u, v)
        duw = two_adic_distance(u, w)
        dvw = two_adic_distance(v, w)
        assert duv <= max(duw, dvw) + 1e-15


def test_text_round_trip():
    for i in (2, 3):
        for n in (1, 4, 9):
            w = words.word_concat(i, n)
            data = b"".join(words.to_text(w))
            assert data.endswith(b"\n")
            back = words.from_text(data)
            assert np.array_equal(back.bits(), w.bits())


def test_binary_round_trip_and_header():
    w = words.word_concat(2, 10)
    blob = b"".join(words.to_binary(w))
    (length,) = struct.unpack("<Q", blob[:8])
    assert length == words.fib_length(2, 10)
    packed = np.frombuffer(blob[8:], dtype=np.uint8)
    assert np.array_equal(np.unpackbits(packed, bitorder="little")[:length],
                          w.bits())
    back = words.from_binary(blob)
    assert np.array_equal(back.bits(), w.bits())
    assert back == w and hash(back) == hash(w)


def test_from_binary_rejects_padding_bits():
    w = words.word_concat(2, 6)  # 13 symbols: the last byte has 3 padding bits
    blob = bytearray(b"".join(words.to_binary(w)))
    blob[-1] |= 0x80
    # the symbols are unchanged, but to_binary writes padding bits as 0, so
    # the data is corrupt and would not survive a round trip
    with pytest.raises(DomainError):
        words.from_binary(bytes(blob))


@pytest.mark.parametrize("bad", [[0.5, 1.7], [0.0, 0.2], [-1, 0], [256, 0], [2, 0],
                                 [0, 2**70], ["0", "1"], "012", "0\u00e9", b"01/",
                                 [[0], [0, 1]]],
                         ids=["fractions", "fraction", "negative", "256", "2",
                              "2**70", "digit-strings", "text-2", "non-ascii",
                              "bytes-slash", "ragged"])
def test_as_bits_rejects_other_symbols(bad):
    # a cast to uint8 would truncate the floats, wrap -1 and 256, and raise
    # OverflowError on 2**70
    with pytest.raises(DomainError):
        words.as_bits(bad)


def test_as_bits_accepts_integral_symbols():
    for ok in ([1.0, 0.0], [True, False], np.array([1, 0], dtype=np.int64)):
        got = words.as_bits(ok)
        assert got.dtype == np.uint8 and got.tolist() == [1, 0]


def test_from_text_rejects_garbage():
    with pytest.raises(DomainError):
        words.from_text(b"0102\n")


def test_index_validation():
    for bad in [(1, 3), (0, 1), (2, 0), (2, -1)]:
        with pytest.raises(DomainError):
            words.word_concat(*bad)
    with pytest.raises(DomainError):
        words.word_by_substitution(1, 2)


@pytest.mark.parametrize("call", [
    lambda: words.fib_length(2.5, 5),
    lambda: words.fib_length(2, True),
    lambda: words.word_concat(2, 2.5),
    lambda: words.five_partite(2, 7.5),
    lambda: words.l_word_bits(2, 2.5),
    lambda: ifs.attractor(ifs.derive_ifs(2, 1.0), 2.5),
    lambda: metrics.box_counting_dimension(np.eye(2), 1.0, 0.1, levels=5.5),
    lambda: turtle.draw([[0], [0, 1]], 1.0),
], ids=["fib_length-i", "fib_length-n-bool", "word_concat", "five_partite",
        "l_word_bits", "attractor-depth", "box-count-levels", "draw-ragged"])
def test_non_integer_arguments_raise_domain_error(call):
    with pytest.raises(DomainError):
        call()
