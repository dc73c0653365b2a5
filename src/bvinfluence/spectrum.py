"""Exact Walsh spectra, influences via two independent routes, autocorrelation.

The definitional route (:func:`influence_vector`) builds no spectrum;
``verify_identities`` checks it against the spectral masses.
The autocorrelation has one route, C = FWHT(W^2) / 2^n: ``correlation_fast``
returns it at every gamma, and ``verify_identities`` evaluates it, by one
split of y at every n, at the gammas it checks alone, against C(gamma) taken
directly from f in one batched pass; the same pass over the finished
spectrum gives the Parseval total it checks. With the influence check,
that decides C at the unit vectors: 2^n C(e_i) = 4^n - 2 M_i.
The definitional counts, the flips behind each influence and the direct
C(gamma), are taken with XOR and popcount on f packed into 64-bit words.

Walsh coefficients are kept in their integer form
``W(y) = sum_x (-1)^(f(x) + y.x)``; the normalized transform is
``W(y) / 2^n``. Influences come out as ``Fraction`` values with
power-of-two denominators and are only converted to floats at the
reporting boundary.

A spectrum is held half transformed, as one int16 array G. H_{2^n} is
H_{2^(n-s)} (x) H_{2^s} (Fino and Algazi, 1976), with s = max(0, n - 14):
G(x_low, y_high), at index y_high 2^s + x_low, is the transform of the
signs along the high n - s bits of x alone, so |G| <= 2^(n-s) <= 2^14 and
int16 holds it at every n <= 24 (s = n - 15 would let the constant
function reach 2^15). Below n = 15, s = 0 and G is W. A row of 2^s
entries of G is finished into W(y_high, .) only where it is read, by the
transform of its low s bits (:func:`_finish`); a finished tile of G is
the same stretch of W, in y order. By Parseval along the low bits, a
row's squares of W sum to 2^s times its squares of G, so the running
sums the sampler reads, and the masses on bits s and up, come off G's
square sums per row; the masses on the bits below s take one finishing
pass (:func:`_finished_sums`), run once, when first asked for.

The transforms run as float matrix products, and they are exact. Every
intermediate value, and every partial sum inside a product, is a signed
sum of a subset of the inputs, so its magnitude is at most the sum of
the inputs' magnitudes. float32 holds every integer up to 2^24 and
float64 every integer up to 2^53. G transforms the +-1 signs in float32
(the sums are at most 2^(n-s) <= 2^14), cast into the int16 G; finishing
a row sums 2^s entries of G in float32 (at most 2^24). G's squares are
int32 (at most 2^28) and their sums int64; W's squares are summed in
float64 (at most 4^n <= 2^48, Parseval). The autocorrelation transforms
the squares in float64 into the int64 array ``correlation_fast`` returns;
``verify_identities`` sums the same signed squares at its gammas in
float64 products. ``fwht`` runs in float64 and refuses inputs with
max|v| * length > 2^53. Squares are int64; ``w * w`` wraps for n >= 16,
so square with ``WalshSpectrum.squares()``.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .boolfn import TruthTable, _check_index, _check_table

# Entries per tile (L2 is 2 MiB per core) and per column chunk, at least
# _BLOCK wide; products go in pieces of _BLOCK rows or columns, in L1. At
# n=24, one BLAS thread, 2-core Xeon: a 4096 x 16 product took 53 us, 16
# of 256 x 16 30 us; chunks 128 wide made the transform 20 ms slower.
_TILE = 1 << 16
_CHUNK = 1 << 15
_BLOCK = 256

# Entries per running sum of the squares that a spectrum keeps: 128 KiB at n=24.
_SEGMENT = 1 << 10

# Bits of x that G transforms: s = max(0, n - _G_BITS) are left to finishing (module docstring).
_G_BITS = 14


def _split(n: int) -> int:
    """s, the low bits of y that a row of G leaves unfinished."""
    return max(0, n - _G_BITS)


def _signs(count: int, cols: np.ndarray) -> np.ndarray:
    """The float64 matrix (-1)^(a . cols[b]) for a < count; values below 2^16 are anded in uint16."""
    parity = np.bitwise_count(np.arange(count, dtype=np.uint16)[:, None] & cols.astype(np.uint16)) & 1
    return np.where(parity, -1.0, 1.0)


# H_16[a, b] = (-1)^(a.b), per float type; its leading r x r block is H_r.
_H16 = {t: _signs(16, np.arange(16)).astype(t) for t in (np.float32, np.float64)}


def _grid(size: int, narrow: bool = False) -> tuple[int, int, int]:
    """(rows, tile, width) of a 2^n array's grid and its column chunks.

    A ``narrow`` (int16) array takes two rows at least, so up to n = 16
    tiles half as long, and chunks a quarter as long: its float32 buffers
    are not views of it, so they add to it. At n=16, a whole-array tile
    would hold two float32 copies of it at once, and chunks of 2^14
    entries took the spectrum from 6.8 to 8.5 bytes per entry. Tiles of
    2^15 at every n built it in 5.4 ms at n=20 and 73 ms at n=24, against
    4.3 and 63 ms with these.
    """
    tile = min(_TILE, size >> narrow)
    rows = size // tile
    if rows == 1:  # sweep 2 only casts: a quarter of the tile at a time, or all of a short one
        return rows, tile, tile if tile <= _BLOCK else tile // 4
    return rows, tile, min(tile, max(_BLOCK, (_CHUNK >> 2 * narrow) // rows))


def _modes(src: np.ndarray, bufs, below: int, stop: int) -> np.ndarray:
    """src times H_16 (H_r for a shorter last digit) along each index digit of place value below..stop.

    Each product goes into the next of ``bufs`` in turn: rows times H_r at
    the lowest digit, H_r times slabs above it. ``src`` may hold any
    number of runs of ``stop`` entries. Returns the array holding the
    result, ``src`` itself if no digit is in range.
    """
    while below < stop:
        dst = bufs[src is bufs[0]]  # the one of the two that src is not
        r = min(16, stop // below)
        h = _H16[dst.dtype.type][:r, :r]
        if below == 1:
            k = math.gcd(_BLOCK, src.size // r)
            np.matmul(src.reshape(-1, k, r), h, out=dst.reshape(-1, k, r))
        else:
            k = min(_BLOCK, below)
            slabs = (-1, r, below // k, k)
            np.matmul(h, src.reshape(slabs).swapaxes(1, 2), out=dst.reshape(slabs).swapaxes(1, 2))
        src, below = dst, below * r
    return src


def _hadamard(out: np.ndarray, load, below: int = 1):
    """Walsh-Hadamard transform into the integer ``out`` along its index digits of place value ``below`` and up.

    An int32 or int64 ``out`` is transformed in its own float view; an int16
    one in float32 tiles and chunks, each cast into it (module docstring).
    H_{2^n} is a Kronecker power of H_16. Sweep 1 runs on the call, per
    tile: ``load(tile, start, scratch)`` writes the input from ``start`` on
    into the float tile, and may use ``scratch``, a free float buffer of the
    tile's size; then the index digits inside the tile run in cache. Sweep 2
    is the returned generator (:func:`_columns`), which yields each finished
    chunk of ``out``; the transform is done when it is exhausted.
    """
    narrow = out.itemsize == 2
    values = out if narrow else out.view(f"f{out.itemsize}")
    rows, tile, width = _grid(out.size, narrow)
    bufs = np.empty((1 + narrow, tile), np.float32 if narrow else values.dtype)
    for start in range(0, out.size, tile):
        x = bufs[1] if narrow else values[start:start + tile]
        load(x, start, bufs[0])
        if (done := _modes(x, (bufs[0], x), below, tile)) is not x or narrow:
            values[start:start + tile] = done
    return _columns(out, values, rows, tile, width)


def _columns(out: np.ndarray, values: np.ndarray, rows: int, tile: int, width: int):
    """Sweep 2 of :func:`_hadamard`, per column chunk of the (rows x tile) grid.

    The higher digits run in two chunk buffers, from the chunk of the float
    view ``values``, or, for an int16 ``out`` (``values`` is ``out``), from
    the chunk loaded into the first buffer; the result is cast back into
    ``out``. With one row (an int32 or int64 ``out`` at n <= 16), no digit
    is left and the sweep only casts, with no buffers.
    """
    narrow = values is out
    pair = tuple(np.empty((2, rows, width), np.float32 if narrow else values.dtype)) if rows > 1 else ()
    shape = (rows, tile) if rows > 1 else (tile,)  # one row casts back in place in 1-D, with no temporary
    grid, float_grid = out.reshape(shape), values.reshape(shape)
    for c in range(0, tile, width):
        chunk = grid[..., c:c + width]
        if narrow:
            pair[0][...] = chunk
        chunk[...] = _modes(pair[0] if narrow else float_grid[..., c:c + width], pair, width, rows * width)
        yield chunk


def _bit_sums(sums: np.ndarray) -> list[int]:
    """For 2^k sums indexed by k bits: per bit j, the sum of those whose index has bit j set."""
    return [int(sums.reshape(-1, 2, 1 << j)[:, 1].sum()) for j in range(sums.size.bit_length() - 1)]


def _square_sums(chunks, size: int, split: int) -> tuple[tuple[int, ...], np.ndarray]:
    """Masses on bits ``split`` and up, and running sums at each ``_SEGMENT`` boundary, of W^2, from G's chunks.

    Each chunk of G is squared into one int32 buffer and summed in int64,
    per row of 2^split entries, or per part of a row where a chunk is
    narrower than one, onto the grid of row sums, which is in y order.
    Times 2^split, in place, a row sum is the sum of W^2 over the row's
    2^split y (Parseval along the low bits). :func:`_bit_sums` takes the
    masses from the row sums; summed per ``_SEGMENT`` entries and run on in
    place from 0, they give the running sums, the last the total.
    """
    rows, tile, width = _grid(size, True)
    q = min(1 << split, width)
    squares = np.empty((rows, width // q, q), np.int32)
    row_sums = np.zeros((rows, tile >> split), np.int64)
    for k, chunk in enumerate(chunks):
        np.multiply(chunk, chunk, out=squares.reshape(rows, width), dtype=np.int32)
        row_sums[:, k * width >> split:(k * width >> split) + width // q] += squares.sum(axis=2)
    row_sums = row_sums.reshape(-1)
    row_sums <<= split
    sums = np.zeros(size // min(_SEGMENT, size) + 1, np.int64)
    np.cumsum(row_sums.reshape(sums.size - 1, -1).sum(axis=1, out=sums[1:]), out=sums[1:])
    return tuple(_bit_sums(row_sums)), sums


def _finish(g: np.ndarray, split: int, bufs: np.ndarray) -> np.ndarray:
    """W on whole rows of G: the float32 transform of each row of 2^split along its low bits.

    ``g`` holds whole rows; ``bufs`` is two float32 buffers at least as
    long. G is cast into the first, and the result is in one of the two.
    """
    x = bufs[0, :g.size]
    x[...] = g.reshape(-1)
    return _modes(x, (x, bufs[1, :g.size]), 1, 1 << split)


def fwht(values) -> np.ndarray:
    """Unnormalized fast Walsh-Hadamard transform, out[y] = sum_x v[x]*(-1)^(x.y).

    Self-inverse up to a factor 2^n. Input length must be a power of two,
    and the values integers (or bools) with max|v| * length <= 2^53, so
    that the float64 transform is exact. Returns a new int64 array;
    ``values`` is not modified.
    """
    arr = np.asarray(values)
    if arr.dtype.kind not in "iub":
        raise ValueError(f"fwht needs integer values, got dtype {arr.dtype}")
    size = arr.size
    if size == 0 or size & (size - 1):
        raise ValueError(f"transform length must be a power of two, got {size}")
    if max(-int(arr.min()), int(arr.max())) * size > 1 << 53:
        raise ValueError("fwht needs max|v| * length <= 2^53 for an exact float64 transform")
    out = np.empty(size, np.int64)
    for _ in _hadamard(out, lambda tile, start, _: np.copyto(tile, arr.reshape(-1)[start:start + tile.size])):
        pass
    return out.reshape(arr.shape)


class WalshSpectrum:
    """Integer Walsh coefficients W(y) for all 2^n values of y, in enc order.

    Built only by :func:`walsh_spectrum`, from the transform's read-only
    int16 G (module docstring) and the masses and running sums of its
    squares. ``_segment_sums`` holds the running sums of W^2 at every
    ``_SEGMENT`` boundary, 0 to 4^n (only those two below n = 10), which
    the sampler and :meth:`square_sum` read. :attr:`w` finishes the whole
    spectrum into a new int32 array, 64 MiB at n=24: the package itself
    reads W only in finished tiles and rows (:func:`_tiles`, :func:`_finish`).
    """

    def __init__(self, n: int, g: np.ndarray, masses: tuple):
        self.n, self._g, (self._high, self._segment_sums) = n, g, masses
        self._split = _split(n)
        self._low = None if self._split else ()  # masses on bits below the split, on first use

    @property
    def w(self) -> np.ndarray:
        """W(y) for every y, as a new read-only int32 array."""
        w = np.empty(self._g.size, np.int32)
        for start, tile in _tiles(self):
            w[start:start + tile.size] = tile
        w.flags.writeable = False
        return w

    def squares(self) -> np.ndarray:
        """W(y)^2 for every y, as a new int64 array."""
        squares = np.empty(self._g.size, np.int64)
        for start, tile in _tiles(self):
            part = squares[start:start + tile.size]
            part[...] = tile
            part *= part
        return squares

    def square_sum(self) -> int:
        return int(self._segment_sums[-1])

    def ones_square_sum(self, i: int) -> int:
        """Sum of W(y)^2 over y with y_i = 1; below the split, off one finishing pass, taken on first use."""
        j = _check_index(i, self.n) - 1
        if j >= self._split:
            return self._high[j - self._split]
        if self._low is None:
            self._low = _finished_sums(self, ())[0]
        return self._low[j]

    def __eq__(self, other):
        if not isinstance(other, WalshSpectrum):
            return NotImplemented
        return self.n == other.n and np.array_equal(self._g, other._g)  # G determines W, at one n

    def __repr__(self):
        return f"WalshSpectrum(n={self.n})"


def _tiles(s: WalshSpectrum):
    """(start, W[start:start + 2^15]) over all y in order, each tile finished from G's rows into one reused pair."""
    bufs = np.empty((2, min(_TILE >> 1, s._g.size)), np.float32)
    for start in range(0, s._g.size, bufs.shape[1]):
        yield start, _finish(s._g[start:start + bufs.shape[1]], s._split, bufs)


# _BYTE_SIGNS[v] holds (-1)^b for the 8 bits b of the byte v, low bit first.
_BYTE_SIGNS = (1 - 2 * (np.arange(256)[:, None] >> np.arange(8) & 1)).astype(np.float32)


def _load_signs(packed: np.ndarray, tile: np.ndarray, start: int, scratch: np.ndarray) -> None:
    """Write the signs 1 - 2 f(x) of a packed table into ``tile``, from x = ``start`` on.

    Each byte picks its 8 signs from ``_BYTE_SIGNS``; the byte values are
    cast to indices in ``scratch``, a float buffer of the tile's size.
    """
    if tile.size < 8:  # tiles of under a byte, at n <= 3
        tile[...] = _BYTE_SIGNS[packed[start >> 3], start & 7:(start & 7) + tile.size]
        return
    index = scratch.view(np.intp)[:tile.size >> 3]
    np.copyto(index, packed[start >> 3:(start + tile.size) >> 3])
    np.take(_BYTE_SIGNS, index, axis=0, out=tile.reshape(-1, 8), mode="clip")


def walsh_spectrum(f: TruthTable) -> WalshSpectrum:
    """Exact spectrum of f by FWHT on the (-1)^f(x) table, held as G (module docstring); O(n 2^n).

    Computed once per table and cached on it, so repeated calls on one
    table return the same object.
    """
    if _check_table(f)._spectrum is None:
        g, split = np.empty(1 << f.n, np.int16), _split(f.n)
        chunks = _hadamard(g, lambda tile, start, scratch: _load_signs(f.packed, tile, start, scratch), 1 << split)
        masses = _square_sums(chunks, g.size, split)
        g.flags.writeable = False
        object.__setattr__(f, "_spectrum", WalshSpectrum(f.n, g, masses))
    return f._spectrum


# _LOW[k] has the bits whose position inside a word has bit k clear.
_LOW = tuple(np.uint64(m) for m in (
    0x5555555555555555, 0x3333333333333333, 0x0F0F0F0F0F0F0F0F,
    0x00FF00FF00FF00FF, 0x0000FFFF0000FFFF, 0x00000000FFFFFFFF,
))


def _packed(f: TruthTable) -> np.ndarray:
    """f as little-endian 64-bit words, bit b of word j = f at enc 64j + b.

    Below n = 6 the table is zero-padded to one word. No pair x, x xor gamma
    with gamma < 2^n crosses 2^n, so the padding adds nothing to any count.
    """
    if f.n >= 6:
        return f.packed.view("<u8")
    return np.pad(f.packed, (0, 8 - f.packed.size)).view("<u8")


def _flips(words: np.ndarray, i: int, both: bool = False) -> np.ndarray:
    """f(x) xor f(x xor e_i) on :func:`_packed` words: at the lower x of each partner pair, or with ``both`` at each x.

    For i <= 6 the partner is 2^(i-1) bits up in the same word; one multiply
    copies the lower bits there (the copies never overlap). Above that it is
    the same bit of the word 2^(i-7) places up.
    """
    k = i - 1
    if k < 6:
        diff = words >> (1 << k)
        diff ^= words
        diff &= _LOW[k]
        if both:
            diff *= 1 + (1 << (1 << k))
        return diff
    pairs = words.reshape(-1, 2, 1 << (k - 6))
    if both:
        return (pairs ^ pairs[:, ::-1]).reshape(-1)  # each word against its partner word
    return pairs[:, 0] ^ pairs[:, 1]


def _flip_count(words: np.ndarray, i: int) -> int:
    """|V_1(i)|, the inputs x with f(x) != f(x xor e_i), on :func:`_packed` words, a chunk at a time."""
    if 2 << max(0, i - 7) <= _CHUNK:  # whole pairs in every chunk; partner words are 2^(i-7) apart for i > 6
        parts = (_flips(words[s:s + _CHUNK], i) for s in range(0, words.size, _CHUNK))
    else:  # the two halves of each pair, a chunk at a time
        parts = (a ^ b for pair in words.reshape(-1, 2, (1 << (i - 7)) // _CHUNK, _CHUNK) for a, b in zip(*pair))
    return 2 * sum(int(np.bitwise_count(p).sum()) for p in parts)


def _flip_counts_at(words: np.ndarray, gammas) -> list[int]:
    """The inputs x with f(x) != f(x xor gamma), for each gamma, on :func:`_packed` words.

    Word j of f(. xor gamma) is word j xor (gamma >> 6), with gamma's low 6
    bits applied as delta swaps inside it (Knuth, TAOCP 4A, 7.1.3). The
    gammas go through in chunks of at most 2^14 words in all, and at least
    one gamma, each over the words in chunks of at most ``_CHUNK``.
    """
    gammas = np.asarray(gammas, np.int64)
    width = min(words.size, _CHUNK)
    index = np.arange(width)
    per_chunk = max(1, (1 << 14) // words.size)
    counts = []
    for start in range(0, gammas.size, per_chunk):
        g = gammas[start:start + per_chunk, None]
        sums = 0
        for s in range(0, words.size, width):
            moved = words[(index + s) ^ (g >> 6)]
            t = np.empty_like(moved)
            for k, mask in enumerate(_LOW):
                swap = g >> k & 1
                if swap.any():
                    np.right_shift(moved, 1 << k, out=t)
                    t ^= moved
                    t &= np.where(swap, mask, 0)
                    moved ^= t
                    t <<= 1 << k
                    moved ^= t
            moved ^= words[s:s + width]
            sums += np.bitwise_count(moved).sum(axis=1)
            del moved, t  # before the next chunk's are built
        counts += sums.tolist()
    return counts


def influence_by_definition(f: TruthTable, i: int) -> Fraction:
    """|V_1(i)| / 2^n, the share of inputs x with f(x) != f(x xor e_i)."""
    return Fraction(_flip_count(_packed(f), _check_index(i, f.n)), 1 << f.n)


def influence_by_spectrum(s: WalshSpectrum, i: int) -> Fraction:
    """Influence of variable i as the spectral mass on y_i = 1.

    Equals influence_by_definition for every function; the equality is
    exercised exactly (integer arithmetic) in the test suite.
    """
    return Fraction(s.ones_square_sum(i), 1 << (2 * s.n))


class InfluenceVector:
    """All n influences of a table by :func:`influence_by_definition`, exact, plus their sum.

    Built from the table alone (:func:`influence_vector`): no spectrum is
    built or read, and each value equals :func:`influence_by_spectrum`.
    """

    def __init__(self, f: TruthTable):
        self.n = _check_table(f).n
        self.values = tuple(influence_by_definition(f, i) for i in range(1, f.n + 1))
        self.total = sum(self.values, Fraction(0))

    def __getitem__(self, i: int) -> Fraction:
        """1-based access, matching variable numbering."""
        return self.values[_check_index(i, self.n) - 1]

    def __iter__(self):
        return iter(self.values)

    def __eq__(self, other):
        if not isinstance(other, InfluenceVector):
            return NotImplemented
        return self.n == other.n and self.values == other.values

    def __repr__(self):
        return f"InfluenceVector({[str(v) for v in self.values]}, total={self.total})"


def influence_vector(f: TruthTable) -> InfluenceVector:
    """Every variable's influence by the definition: n flip counts on the packed table, no transform."""
    return InfluenceVector(f)


def correlation_fast(f: TruthTable) -> np.ndarray:
    """Autocorrelation C(gamma) = sum_x (-1)^(f(x) + f(x xor gamma)), all gamma, read-only int64.

    Transform route, C = FWHT(W^2) / 2^n, O(n 2^n): each tile of G is
    finished into the scratch buffer, then cast and squared into the
    float64 view of the result; divisibility by 2^n is checked block by block.
    """
    s = walsh_spectrum(f)
    def load(tile, start, scratch):  # cast, then square: a casting np.square goes through a ufunc buffer
        tile[...] = _finish(s._g[start:start + tile.size], s._split, scratch.view(np.float32).reshape(2, -1))
        tile *= tile
    c = np.empty(s._g.size, np.int64)
    for _ in _hadamard(c, load):
        pass
    c = _divide_exactly(c, f.n)
    c.flags.writeable = False
    return c


def _divide_exactly(c: np.ndarray, n: int) -> np.ndarray:
    """c / 2^n in place, checked tile by tile to be exact; returns c. (.any() would cast through a buffer.)"""
    if any(np.count_nonzero(c[k:k + _TILE] & ((1 << n) - 1)) for k in range(0, c.size, _TILE)):
        raise AssertionError("transform-route autocorrelation was not exactly divisible by 2^n")
    c >>= n
    return c


def _finished_sums(s: WalshSpectrum, gammas) -> tuple[tuple[int, ...], int, np.ndarray]:
    """One pass over W in y order: the masses on bits below the split, sum_y W(y)^2, and C at each of ``gammas``.

    Each finished tile (:func:`_tiles`) is squared in float64 and summed per
    offset in a row of G, for the masses, and for the total. C comes by
    the transform route, 2^n C(gamma) = sum_y W(y)^2 (-1)^(gamma.y), int64:
    y splits at its low ceil(n/2) bits; a tile's squares, in rows of that
    many bits, are multiplied by the low-bit signs of a chunk of 2^16 >>
    ceil(n/2) gammas, and the row sums folded with the high-bit signs.
    With one chunk of gammas, as above n = 12, the sign matrices are built
    once. Every partial sum is a signed subset sum of squares: exact.
    """
    gammas = np.asarray(gammas, np.int64)
    bits, split = (s.n + 1) // 2, s._split
    rows, every_row = min(_TILE >> 1, s._g.size) >> bits, s._g.size >> bits
    step, mask = _TILE >> bits, (1 << bits) - 1
    if once := gammas.size <= step:
        low, high = _signs(1 << bits, gammas & mask), _signs(every_row, gammas >> bits)
    per_offset, c = np.zeros(1 << split), np.zeros(gammas.size)
    squares = np.empty((rows, 1 << bits))
    for start, tile in _tiles(s):
        squares.reshape(-1)[...] = tile
        squares *= squares
        per_offset += squares.reshape(-1, 1 << split).sum(axis=0)
        first = start >> bits
        for g in range(0, gammas.size, step):
            chunk = gammas[g:g + step]
            per_row = squares @ (low if once else _signs(1 << bits, chunk & mask))
            per_row *= (high if once else _signs(every_row, chunk >> bits))[first:first + rows]
            c[g:g + step] += per_row.sum(axis=0)
            del per_row  # before the next chunk's signs
    return tuple(_bit_sums(per_offset)), int(per_offset.sum()), _divide_exactly(c.astype(np.int64), s.n)


def verify_identities(f: TruthTable) -> list[dict]:
    """Run the spectral identity suite on one function.

    Checks, all in exact integer arithmetic:
      * per-variable equality of the definitional influences
        (:func:`influence_vector`) and the spectral masses,
      * Parseval: sum_y W(y)^2 equals 4^n, summed over the finished
        spectrum, not off G's square sums, which would test only the
        transform of the high bits,
      * the autocorrelation transform identity C = FWHT(W^2) / 2^n: the
        transform-route C is compared with C(gamma) evaluated directly from
        f at every gamma up to n = 12, and above that at all-ones and the top
        n bits of k * 0x9E3779B97F4A7C15 mod 2^64, k = 1..8 (no generator); the
        unit vectors are left to the first check and Parseval (module docstring).
        Every direct C comes from one batched pass over the packed words of f;
        the transform route runs at the checked gammas alone, never at all 2^n.

    The spectrum is finished once, in one pass (:func:`_finished_sums`) that
    gives the masses on the bits below the split, the Parseval total and the
    transform-route C.

    Returns one {identity, passed, detail} record per check.
    """
    s, size = walsh_spectrum(f), 1 << f.n
    if f.n <= 12:
        gammas = range(size)
    else:  # check 1 and Parseval decide the unit vectors: 2^n C(e_i) = S - 2 M_i
        gammas = sorted({size - 1, *(k * 0x9E3779B97F4A7C15 % (1 << 64) >> (64 - f.n) for k in range(1, 9))})
    s._low, total, transformed = _finished_sums(s, gammas)  # the masses below the split come from this pass too
    mismatched = [i for i, v in enumerate(influence_vector(f), 1) if v != influence_by_spectrum(s, i)]
    direct = (size - 2 * d for d in _flip_counts_at(_packed(f), gammas))
    wrong = [g for g, c, d in zip(gammas, transformed.tolist(), direct) if c != d]
    return [{
        "identity": "influence_definition_equals_spectral",
        "passed": not mismatched,
        "detail": f"mismatch at variables {mismatched}" if mismatched else "exact match for all variables",
    }, {
        "identity": "parseval",
        "passed": total == 1 << (2 * f.n),
        "detail": f"sum W^2 = {total}, 4^n = {1 << (2 * f.n)}",
    }, {
        "identity": "autocorrelation_transform",
        "passed": not wrong,
        "detail": f"FWHT(W^2) / 2^n != C at {len(wrong)} of {len(gammas)} gammas: {wrong[:8]}" if wrong
        else f"FWHT(W^2) / 2^n == C at {len(gammas)} gammas evaluated directly from f",
    }]
