"""Exact Walsh spectra, influences via two independent routes, autocorrelation.

The definitional route (:func:`influence_vector`) builds no spectrum;
``verify_identities`` checks it against the spectral masses.
The autocorrelation has one route, C = FWHT(W^2) / 2^n: ``correlation_fast``
returns it at every gamma, and ``verify_identities`` evaluates it, by one
split of y at every n, at the gammas it checks alone, against C(gamma) taken
directly from f; it checks Parseval on the sampler's last running sum. With
the influence check, that decides C at the unit vectors: 2^n C(e_i) = 4^n - 2 M_i.
The definitional counts, the flips behind each influence and the direct
C(gamma), are taken with XOR and popcount on f packed into 64-bit words.

Walsh coefficients are kept in their integer form
``W(y) = sum_x (-1)^(f(x) + y.x)``; the normalized transform is
``W(y) / 2^n``. Influences come out as ``Fraction`` values with
power-of-two denominators and are only converted to floats at the
reporting boundary.

The transform runs as float matrix products in two sweeps over the
array, and it is exact. Every intermediate value, and every partial sum
inside a product, is a signed sum of a subset of the inputs, so its
magnitude is at most the sum of the inputs' magnitudes. float32 holds
every integer up to 2^24 and float64 every integer up to 2^53. The
spectrum transforms the +-1 signs in float32 (the sum is 2^n <= 2^24),
casts each chunk back to the int32 ``WalshSpectrum.w`` and sums its
squares in float64 for the masses and for the running sums the sampler
reads, one at each ``_SEGMENT`` boundary (at most 4^n <= 2^48, Parseval).
The autocorrelation transforms the squares in float64 into the int64
array ``correlation_fast`` returns; ``verify_identities`` sums the same
signed squares at its gammas in float64 products. ``fwht`` runs in
float64 and refuses inputs with max|v| * length > 2^53. Squares are
int64; ``w * w`` wraps for n >= 16, so square with ``WalshSpectrum.squares()``.
"""

from __future__ import annotations

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


def _signs(count: int, cols: np.ndarray) -> np.ndarray:
    """The float64 matrix (-1)^(a . cols[b]) for a < count; values below 2^16 are anded in uint16."""
    parity = np.bitwise_count(np.arange(count, dtype=np.uint16)[:, None] & cols.astype(np.uint16)) & 1
    return np.where(parity, -1.0, 1.0)


# H_16[a, b] = (-1)^(a.b), per float type; its leading r x r block is H_r.
_H16 = {t: _signs(16, np.arange(16)).astype(t) for t in (np.float32, np.float64)}


def _grid(size: int) -> tuple[int, int, int]:
    """(rows, tile, width) of a 2^n array's grid and its column chunks."""
    tile = min(_TILE, size)
    rows = size // tile
    if rows == 1:  # sweep 2 only casts and squares: a quarter of the tile at a time, or all of a short one
        return rows, tile, tile if tile <= _BLOCK else tile // 4
    return rows, tile, min(tile, max(_BLOCK, _CHUNK // rows))


def _modes(src: np.ndarray, bufs, below: int, stop: int) -> np.ndarray:
    """src times H_16 (H_r for a shorter last digit) along each index digit of place value below..stop.

    Each product goes into the next of ``bufs`` in turn: rows times H_r at
    the lowest digit, H_r times slabs above it. Returns the array holding
    the result, ``src`` itself if no digit is in range.
    """
    while below < stop:
        dst = bufs[src is bufs[0]]  # the one of the two that src is not
        r = min(16, stop // below)
        h = _H16[dst.dtype.type][:r, :r]
        if below == 1:
            k = min(_BLOCK, src.size // r)
            np.matmul(src.reshape(-1, k, r), h, out=dst.reshape(-1, k, r))
        else:
            k = min(_BLOCK, below)
            slabs = (-1, r, below // k, k)
            np.matmul(h, src.reshape(slabs).swapaxes(1, 2), out=dst.reshape(slabs).swapaxes(1, 2))
        src, below = dst, below * r
    return src


def _hadamard(out: np.ndarray, load):
    """Walsh-Hadamard transform into the int32 or int64 ``out``, run in its float view (module docstring).

    H_{2^n} is a Kronecker power of H_16. Sweep 1 runs on the call, per
    2^16-entry tile: ``load(tile, start, scratch)`` writes the input from
    ``start`` on into the tile, and may use ``scratch``, a free buffer of
    the tile's size; then the index digits inside the tile run in cache.
    Sweep 2 is the returned generator (:func:`_columns`), which yields each
    finished chunk of ``out``; the transform is done when it is exhausted.
    """
    values = out.view(f"f{out.itemsize}")
    rows, tile, width = _grid(out.size)
    buf = np.empty(tile, values.dtype)
    for start in range(0, out.size, tile):
        x = values[start:start + tile]
        load(x, start, buf)
        if (done := _modes(x, (buf, x), 1, tile)) is not x:
            x[...] = done
    return _columns(out, values, rows, tile, width)


def _columns(out: np.ndarray, values: np.ndarray, rows: int, tile: int, width: int):
    """Sweep 2 of :func:`_hadamard`, per column chunk of the (rows x tile) grid.

    The higher digits run in two chunk buffers, and the result is cast back
    into ``out``. With one row, n <= 16, no digit is left and the sweep
    only casts, with no buffers.
    """
    pair = tuple(np.empty((2, rows, width), values.dtype)) if rows > 1 else ()
    shape = (rows, tile) if rows > 1 else (tile,)  # one row casts back in place in 1-D, with no temporary
    grid, float_grid = out.reshape(shape), values.reshape(shape)
    for c in range(0, tile, width):
        grid[..., c:c + width] = _modes(float_grid[..., c:c + width], pair, width, rows * width)
        yield grid[..., c:c + width]


_ONES = np.ones(_BLOCK)  # no ones vector below is longer


def _bit_sums(sums: np.ndarray) -> list[int]:
    """For 2^k sums indexed by k bits: per bit j, the sum of those whose index has bit j set."""
    return [int(sums.reshape(-1, 2, 1 << j)[:, 1].sum()) for j in range(sums.size.bit_length() - 1)]


def _square_sums(chunks, size: int) -> tuple[tuple[int, ...], np.ndarray]:
    """Half-cube masses and running sums at each ``_SEGMENT`` boundary of the squares of a 2^n array's chunks.

    Each chunk is squared into one float64 buffer. Products with ones sum it
    down its _BLOCK-entry segments, into the sums per offset, and along
    them, into the (rows x segments) grid of segment sums; :func:`_bit_sums`
    takes the masses on the bits inside a segment, above it and above the
    tile, and the grid, summed per ``_SEGMENT`` entries and run on in place
    from 0, gives the running sums, the last the total. Every sum is of non-negative
    integers no larger than the total: exact up to 2^53, and 2^53 or more above it.
    """
    rows, tile, width = _grid(size)
    q = min(_BLOCK, width)
    squares = np.empty((rows, width // q, q))
    per_offset, segments = np.zeros(q), np.empty((rows, tile // q))
    flat, ones = squares.reshape(rows, width), _ONES[:rows * width // q]
    for k, chunk in enumerate(chunks):
        flat[...] = chunk
        flat *= flat
        per_offset += ones @ squares.reshape(-1, q)
        np.matmul(squares, _ONES[:q], out=segments[:, k * width // q:(k + 1) * width // q])
    masses = (m for part in (per_offset, segments.sum(axis=0), segments.sum(axis=1)) for m in _bit_sums(part))
    sums = np.zeros(size // min(_SEGMENT, size) + 1, np.int64)
    np.cumsum(segments.reshape(sums.size - 1, -1).sum(axis=1, dtype=np.int64, out=sums[1:]), out=sums[1:])
    return tuple(masses), sums


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
    int32 ``w`` and the masses of its squares; ``w * w`` wraps for n >= 16,
    so square it with :meth:`squares`. ``_segment_sums`` holds the running
    sums of the squares at every ``_SEGMENT`` boundary, 0 to 4^n (only
    those two below n = 10), which the sampler and :meth:`square_sum` read.
    """

    def __init__(self, n: int, w: np.ndarray, masses: tuple):
        self.n, self.w, (self._ones, self._segment_sums) = n, w, masses

    def squares(self) -> np.ndarray:
        """W(y)^2 for every y, as a new int64 array."""
        return np.multiply(self.w, self.w, dtype=np.int64)

    def square_sum(self) -> int:
        return int(self._segment_sums[-1])

    def ones_square_sum(self, i: int) -> int:
        """Sum of W(y)^2 over y with y_i = 1."""
        return self._ones[_check_index(i, self.n) - 1]

    def __eq__(self, other):
        if not isinstance(other, WalshSpectrum):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.w, other.w)

    def __repr__(self):
        return f"WalshSpectrum(n={self.n})"


# _BYTE_SIGNS[v] holds (-1)^b for the 8 bits b of the byte v, low bit first.
_BYTE_SIGNS = (1 - 2 * (np.arange(256)[:, None] >> np.arange(8) & 1)).astype(np.float32)


def _load_signs(packed: np.ndarray, tile: np.ndarray, start: int, scratch: np.ndarray) -> None:
    """Write the signs 1 - 2 f(x) of a packed table into ``tile``, from x = ``start`` on.

    Each byte picks its 8 signs from ``_BYTE_SIGNS``; the byte values are
    cast to indices in ``scratch``, a float buffer of the tile's size.
    """
    if tile.size < 8:  # n < 3: the low 2^n bits of the one byte
        tile[...] = _BYTE_SIGNS[packed[0], :tile.size]
        return
    index = scratch.view(np.intp)[:tile.size >> 3]
    np.copyto(index, packed[start >> 3:(start + tile.size) >> 3])
    np.take(_BYTE_SIGNS, index, axis=0, out=tile.reshape(-1, 8), mode="clip")


def walsh_spectrum(f: TruthTable) -> WalshSpectrum:
    """Exact spectrum of f by FWHT on the (-1)^f(x) table; O(n 2^n).

    Computed once per table and cached on it, so repeated calls on one
    table return the same object.
    """
    if _check_table(f)._spectrum is None:
        w = np.empty(1 << f.n, np.int32)
        chunks = _hadamard(w, lambda tile, start, scratch: _load_signs(f.packed, tile, start, scratch))
        masses = _square_sums(chunks, w.size)
        w.flags.writeable = False
        object.__setattr__(f, "_spectrum", WalshSpectrum(f.n, w, masses))
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

    Transform route, C = FWHT(W^2) / 2^n, O(n 2^n): the squares go tile by
    tile into the float64 view of the result; divisibility by 2^n is checked
    block by block.
    """
    w = walsh_spectrum(f).w
    def load(tile, start, _):  # cast, then square: a casting np.square goes through a ufunc buffer
        tile[...] = w[start:start + tile.size]
        tile *= tile
    c = np.empty(w.size, np.int64)
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


def _correlation_at(s: WalshSpectrum, gammas) -> np.ndarray:
    """C(gamma) at each of ``gammas`` by the transform route, 2^n C(gamma) = sum_y W(y)^2 (-1)^(gamma.y); int64.

    y splits at its low ceil(n/2) bits; gammas and rows of ``w`` go in chunks of
    2^16 >> ceil(n/2): each tile of rows is cast to float64, squared in place and
    multiplied by the chunk's low-bit signs, and its row sums are folded with the
    high-bit signs. Every partial sum is a signed subset sum of squares: exact.
    """
    gammas = np.asarray(gammas, np.int64)
    bits = (s.n + 1) // 2
    rows, step = s.w.reshape(-1, 1 << bits), _TILE >> bits
    c = np.empty(gammas.size, np.int64)
    for g in range(0, gammas.size, step):
        squares, low_signs = np.empty(rows[:step].shape), _signs(1 << bits, gammas[g:g + step] & ((1 << bits) - 1))
        per_row = np.empty((rows.shape[0], low_signs.shape[1]))
        for r in range(0, rows.shape[0], step):
            squares[...] = rows[r:r + step]
            squares *= squares
            np.matmul(squares, low_signs, out=per_row[r:r + step])
        del squares, low_signs  # before the high-bit signs
        per_row *= _signs(rows.shape[0], gammas[g:g + step] >> bits)
        c[g:g + step] = per_row.sum(axis=0)
        del per_row
    return _divide_exactly(c, s.n)


def verify_identities(f: TruthTable) -> list[dict]:
    """Run the spectral identity suite on one function.

    Checks, all in exact integer arithmetic:
      * per-variable equality of the definitional and spectral influences,
      * Parseval: the sampler's last running sum of W^2 equals 4^n,
      * the autocorrelation transform identity C = FWHT(W^2) / 2^n: the
        transform-route C is compared with C(gamma) evaluated directly from
        f at every gamma up to n = 12, and above that at all-ones and the top
        n bits of k * 0x9E3779B97F4A7C15 mod 2^64, k = 1..8 (no generator); the
        unit vectors are left to the first check and Parseval (module docstring).
        Up to n = 12 direct C(e_i) = 2^n - 2|V_1(i)| comes off the first check's
        flip counts, other gammas from one batched pass over the packed words of
        f; the transform route runs at the checked gammas alone, never at all 2^n.

    Returns one {identity, passed, detail} record per check.
    """
    s = walsh_spectrum(f)
    checks = []

    size = 1 << f.n
    words = _packed(f)
    changed = [_flip_count(words, i) for i in range(1, f.n + 1)]
    mismatched = [
        i for i, v1 in enumerate(changed, 1)
        if Fraction(v1, size) != influence_by_spectrum(s, i)
    ]
    checks.append({
        "identity": "influence_definition_equals_spectral",
        "passed": not mismatched,
        "detail": "exact match for all variables" if not mismatched
        else f"mismatch at variables {mismatched}",
    })

    total = s.square_sum()
    checks.append({
        "identity": "parseval",
        "passed": total == 1 << (2 * f.n),
        "detail": f"sum W^2 = {total}, 4^n = {1 << (2 * f.n)}",
    })

    direct = {1 << b: size - 2 * v1 for b, v1 in enumerate(changed)}
    if f.n <= 12:
        gammas = range(size)
    else:  # check 1 and Parseval decide the unit vectors: 2^n C(e_i) = S - 2 M_i
        gammas = sorted({size - 1, *(k * 0x9E3779B97F4A7C15 % (1 << 64) >> (64 - f.n) for k in range(1, 9))})
    rest = sorted(set(gammas) - set(direct))
    direct.update((g, size - 2 * d) for g, d in zip(rest, _flip_counts_at(words, rest)))
    del words
    wrong = [g for g, c in zip(gammas, _correlation_at(s, gammas).tolist()) if c != direct[g]]
    ok = not wrong
    detail = (f"FWHT(W^2) / 2^n == C at {len(gammas)} gammas evaluated directly from f" if ok
              else f"FWHT(W^2) / 2^n != C at {len(wrong)} of {len(gammas)} gammas: {wrong[:8]}")
    checks.append({"identity": "autocorrelation_transform", "passed": ok, "detail": detail})

    return checks
