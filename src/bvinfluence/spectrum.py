"""Exact Walsh spectra, influences via two independent routes, autocorrelation.

The autocorrelation has one route, C = FWHT(W^2) / 2^n: ``correlation_fast``
returns it at every gamma, and ``verify_identities`` evaluates it only at the
gammas it checks, against C(gamma) evaluated directly from f.
The definitional counts, the flips behind each influence and the direct
C(gamma), are taken with XOR and popcount on f packed into 64-bit words.

Walsh coefficients are kept in their integer form
``W(y) = sum_x (-1)^(f(x) + y.x)``; the normalized transform is
``W(y) / 2^n``. Influences come out as ``Fraction`` values with
power-of-two denominators and are only converted to floats at the
reporting boundary.

The transform runs as float matrix products, and it is exact. Every
intermediate value, and every partial sum inside a product, is a signed
sum of a subset of the inputs, so its magnitude is at most the sum of
the inputs' magnitudes. float32 holds every integer up to 2^24 and
float64 every integer up to 2^53. The spectrum transforms the +-1 signs
in float32 (the sum is 2^n <= 2^24) and is cast in place to the int32
``WalshSpectrum.w``. The autocorrelation transforms the squares in
float64 (the sum is 4^n <= 2^48, Parseval) and is cast in place to the
int64 array ``correlation_fast`` returns; ``verify_identities`` sums the
same signed squares at its gammas in float64 products. ``fwht`` runs in
float64 and refuses inputs with max|v| * length > 2^53. Squares are
int64; ``w * w`` wraps for n >= 16, so square with ``WalshSpectrum.squares()``.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .boolfn import TruthTable, _check_index, _frozen
from .rng import make_generator

# Entries per cache tile: 256 KiB of float32 or 512 KiB of float64, which
# stays in a 2 MiB per-core L2 while every mode inside the tile passes
# over it. Measured at n=24 on a 2-core Xeon (2 MiB L2 per core, 105 MiB
# L3), one BLAS thread, against a tiled in-place integer butterfly:
# walsh_spectrum 0.6 s -> 0.19 s, correlation_fast 1.1 s -> 0.4 s.
_TILE = 1 << 16

# Index bits of y below the split in _correlation_at.
_LOW_BITS = 12


def _signs(count: int, cols: np.ndarray) -> np.ndarray:
    """The float64 matrix (-1)^(a . cols[b]) for a < count; values below 2^16 are anded in uint16."""
    parity = np.bitwise_count(np.arange(count, dtype=np.uint16)[:, None] & cols.astype(np.uint16)) & 1
    return np.where(parity, -1.0, 1.0)


# H_16[a, b] = (-1)^(a.b); its leading r x r block is H_r.
_H16 = _signs(16, np.arange(16))


def _hadamard(values: np.ndarray) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform of a float32 or float64 buffer, in place; returns it.

    H_{2^n} is a Kronecker power of H_16, so the transform multiplies by
    H_16 along each 4-bit mode of the index (by H_r for a last mode of
    fewer bits). The modes inside a tile run tile by tile, in cache; the
    higher ones run on column chunks of one tile each. The caller checks
    the length and that the dtype holds the result (module docstring).
    """
    h16 = _H16.astype(values.dtype)
    tile = min(_TILE, values.size)
    for start in range(0, values.size, tile):
        _modes(values[start:start + tile], 1, h16)
    _modes(values, tile, h16)
    return values


def _modes(values: np.ndarray, below: int, h16: np.ndarray) -> None:
    """Multiply by H_r along each mode of up to 4 index bits, from bit log2(below) up."""
    while below < values.size:
        r = min(16, values.size // below)
        if below == 1:
            rows = values.reshape(-1, r)
            rows[...] = rows @ h16[:r, :r]
        else:
            view = values.reshape(-1, r, below)
            width = max(1, below * _TILE // values.size)
            for c in range(0, below, width):
                view[:, :, c:c + width] = np.matmul(h16[:r, :r], view[:, :, c:c + width])
        below *= r


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
    floats = out.view(np.float64)
    floats[...] = arr.reshape(-1)
    out[...] = _hadamard(floats)
    return out.reshape(arr.shape)


def _half_cube_masses(weights: np.ndarray) -> tuple[tuple[int, ...], int]:
    """Every half-cube mass sum_{y_i = 1} weights[y], i = 1..n, and the total.

    One halving fold in O(2^n): the top half of the current array is the
    mass with the highest remaining bit set, and adding the halves sums
    that bit out. The fold runs in place, so ``weights`` is consumed.
    """
    ones = []
    s = weights
    while s.size > 1:
        h = s.size // 2
        ones.append(int(s[h:].sum()))
        s[:h] += s[h:]
        s = s[:h]
    return tuple(reversed(ones)), int(s[0])


class WalshSpectrum:
    """Integer Walsh coefficients W(y) for all 2^n values of y, in enc order.

    ``w`` is a read-only int32 array; ``w * w`` wraps for n >= 16, so
    square it with :meth:`squares`. The half-cube masses of the squared
    spectrum are computed once, on first use; the squares themselves are
    not kept. A hand-built spectrum must satisfy Parseval: sum W^2 = 4^n.
    """

    def __init__(self, n: int, w):
        arr = np.asarray(w)
        if arr.size != (1 << n):
            raise ValueError(f"spectrum for n={n} needs {1 << n} coefficients, got {arr.size}")
        # Checked on the input's own dtype: the int32 cast would read 2^33 and 0.5 as 0.
        # walsh_spectrum's owned read-only buffer is in range and skips the pass.
        if arr.dtype != np.int32 or arr.flags.writeable or not arr.flags.owndata:
            if arr.dtype.kind not in "iu" or arr.min() < -(1 << n) or arr.max() > 1 << n:
                raise ValueError(f"Walsh coefficients for n={n} must be integers in [-2^{n}, 2^{n}]")
            # Summed in float64, as an int64 sum can wrap onto 4^n. Squares are <= 2^48 and
            # partial sums only grow, so a sum of 4^n is exact and no other sum rounds onto it.
            floats = arr.astype(np.float64).ravel()
            if np.dot(floats, floats) != 1 << (2 * n):
                raise ValueError(f"Walsh coefficients for n={n} must satisfy Parseval: sum W^2 = 4^{n}")
        self.n = n
        self.w = _frozen(arr, np.int32)
        self._masses = None

    def squares(self) -> np.ndarray:
        """W(y)^2 for every y, as a new int64 array."""
        return np.multiply(self.w, self.w, dtype=np.int64)

    def _half_masses(self) -> tuple[tuple[int, ...], int, np.ndarray]:
        """Cached :func:`_half_cube_masses` of the squares, folded one tile at a time.

        Each tile of ``w`` is squared into one reused int64 buffer whose fold
        gives the masses on the tile's low bits; the per-tile totals are then
        folded for the bits above. Their running sums come third: entry t is
        the sum of the squares up to the end of tile t, the sampler's coarse
        table.
        """
        if self._masses is None:
            tile = min(_TILE, self.w.size)
            squares = np.empty(tile, np.int64)
            totals = np.empty(self.w.size // tile, np.int64)
            low = [0] * (tile.bit_length() - 1)
            for t in range(totals.size):
                chunk = self.w[t * tile:(t + 1) * tile]
                ones, totals[t] = _half_cube_masses(np.multiply(chunk, chunk, out=squares, dtype=np.int64))
                low = [a + b for a, b in zip(low, ones)]
            tile_ends = np.cumsum(totals)
            high, total = _half_cube_masses(totals)
            self._masses = tuple(low) + high, total, tile_ends
        return self._masses

    def square_sum(self) -> int:
        return self._half_masses()[1]

    def ones_square_sum(self, i: int) -> int:
        """Sum of W(y)^2 over y with y_i = 1."""
        _check_index(i, self.n)
        return self._half_masses()[0][i - 1]

    def __eq__(self, other):
        if not isinstance(other, WalshSpectrum):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.w, other.w)

    def __repr__(self):
        return f"WalshSpectrum(n={self.n})"


def walsh_spectrum(f: TruthTable) -> WalshSpectrum:
    """Exact spectrum of f by FWHT on the (-1)^f(x) table; O(n 2^n).

    Computed once per table and cached on it, so repeated calls on one
    table return the same object.
    """
    if not isinstance(f, TruthTable):
        raise TypeError(f"need a TruthTable (tabulate an Anf with to_truth_table), got {type(f).__name__}")
    if f._spectrum is None:
        w = np.empty(f.bits.size, np.int32)
        signs = np.multiply(f.bits, np.float32(-2), out=w.view(np.float32))
        signs += 1
        w[...] = _hadamard(signs)
        w.flags.writeable = False
        object.__setattr__(f, "_spectrum", WalshSpectrum(f.n, w))
    return f._spectrum


# _LOW[k] has the bits whose position inside a word has bit k clear.
_LOW = tuple(np.uint64(m) for m in (
    0x5555555555555555, 0x3333333333333333, 0x0F0F0F0F0F0F0F0F,
    0x00FF00FF00FF00FF, 0x0000FFFF0000FFFF, 0x00000000FFFFFFFF,
))


def _packed(f: TruthTable) -> tuple[np.ndarray, int]:
    """f as little-endian 64-bit words, bit b of word j = f at enc 64j + b, and a repeat factor.

    Below n = 6 the table is repeated to fill one word, so every count
    taken on the words is ``repeat`` times the count on f.
    """
    repeat = max(1, 64 >> f.n)
    bits = np.tile(f.bits, repeat) if repeat > 1 else f.bits
    return np.packbits(bits, bitorder="little").view("<u8"), repeat


def _flip_count(words: np.ndarray, repeat: int, i: int) -> int:
    """|V_1(i)|, the inputs x with f(x) != f(x xor e_i), on :func:`_packed` words.

    For i <= 6 the partner bit is 2^(i-1) places up in the same word;
    above that it is the same bit of the word 2^(i-7) places up.
    """
    k = i - 1
    if k < 6:
        diff = words >> (1 << k)
        diff ^= words
        diff &= _LOW[k]
    else:
        pairs = words.reshape(-1, 2, 1 << (k - 6))
        diff = pairs[:, 0] ^ pairs[:, 1]
    return 2 * int(np.bitwise_count(diff).sum()) // repeat


def _flip_counts_at(words: np.ndarray, repeat: int, gammas) -> list[int]:
    """The inputs x with f(x) != f(x xor gamma), for each gamma, on :func:`_packed` words.

    Word j of f(. xor gamma) is word j xor (gamma >> 6), with gamma's low 6
    bits applied as delta swaps inside it (Knuth, TAOCP 4A, 7.1.3). The
    gammas go through in chunks of at most ``_TILE`` words, and at least
    one gamma.
    """
    gammas = np.asarray(gammas, np.int64)
    index = np.arange(words.size)
    per_chunk = max(1, _TILE // words.size)
    counts = []
    for start in range(0, gammas.size, per_chunk):
        g = gammas[start:start + per_chunk, None]
        moved = words[index ^ (g >> 6)]
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
        moved ^= words
        counts += (np.bitwise_count(moved).sum(axis=1) // repeat).tolist()
        del moved, t  # before the next chunk's are built
    return counts


def influence_counts(f: TruthTable, i: int) -> tuple[int, int]:
    """(|V_0|, |V_1|): how many inputs keep / change f when bit i is flipped.

    Exhaustive enumeration; the definitional ground truth for influence.
    """
    _check_index(i, f.n)
    changed = _flip_count(*_packed(f), i)
    return (1 << f.n) - changed, changed


def influence_by_definition(f: TruthTable, i: int) -> Fraction:
    """|V_1| / 2^n, straight from the definition of influence."""
    _, v1 = influence_counts(f, i)
    return Fraction(v1, 1 << f.n)


def influence_by_spectrum(s: WalshSpectrum, i: int) -> Fraction:
    """Influence of variable i as the spectral mass on y_i = 1.

    Equals influence_by_definition for every function; the equality is
    exercised exactly (integer arithmetic) in the test suite.
    """
    return Fraction(s.ones_square_sum(i), 1 << (2 * s.n))


class InfluenceVector:
    """All n influences of a function, as exact rationals, plus their sum."""

    def __init__(self, n: int, values):
        values = tuple(Fraction(v) for v in values)
        if len(values) != n:
            raise ValueError(f"expected {n} influence values, got {len(values)}")
        for v in values:
            if not 0 <= v <= 1:
                raise ValueError(f"influence {v} outside [0, 1]")
        self.n = n
        self.values = values
        self.total = sum(values, Fraction(0))

    def __getitem__(self, i: int) -> Fraction:
        """1-based access, matching variable numbering."""
        _check_index(i, self.n)
        return self.values[i - 1]

    def __iter__(self):
        return iter(self.values)

    def __eq__(self, other):
        if not isinstance(other, InfluenceVector):
            return NotImplemented
        return self.n == other.n and self.values == other.values

    def __repr__(self):
        return f"InfluenceVector({[str(v) for v in self.values]}, total={self.total})"


def influence_vector(f: TruthTable) -> InfluenceVector:
    """Every variable's influence from one spectrum pass."""
    s = walsh_spectrum(f)
    return InfluenceVector(f.n, [influence_by_spectrum(s, i) for i in range(1, f.n + 1)])


def correlation_fast(f: TruthTable) -> np.ndarray:
    """Autocorrelation C(gamma) = sum_x (-1)^(f(x) + f(x xor gamma)), all gamma, read-only int64.

    Transform route, C = FWHT(W^2) / 2^n, O(n 2^n): W^2 goes into the float64 view of the
    result, is transformed there and cast back in place; divisibility by 2^n is checked
    block by block.
    """
    w = walsh_spectrum(f).w
    c = np.empty(w.size, np.int64)
    c[...] = _hadamard(np.multiply(w, w, out=c.view(np.float64), dtype=np.float64))
    _divide_exactly(c, f.n)
    c.flags.writeable = False
    return c


def _divide_exactly(c: np.ndarray, n: int) -> np.ndarray:
    """c / 2^n in place, checked tile by tile to be exact; returns c."""
    if any((c[k:k + _TILE] & ((1 << n) - 1)).any() for k in range(0, c.size, _TILE)):
        raise AssertionError("transform-route autocorrelation was not exactly divisible by 2^n")
    c >>= n
    return c


def _correlation_at(s: WalshSpectrum, gammas) -> np.ndarray:
    """C(gamma) at each of ``gammas`` by the transform route, 2^n C(gamma) = sum_y W(y)^2 (-1)^(gamma.y); int64.

    Up to n = 12 this is FWHT(W^2) of 32 KiB of squares. Above it, y splits
    into its low 12 bits and the rest, and so does the sign: each tile of
    ``w`` rows is squared into one reused float64 buffer and multiplied by
    the 2^12 x G low-bit sign matrix, and the per-row sums are folded with
    the high-bit signs. Every partial sum is a signed subset sum of squares,
    so it is exact (module docstring).
    """
    gammas = np.asarray(gammas, np.int64)
    if s.n <= _LOW_BITS:
        sums = _hadamard(np.multiply(s.w, s.w, dtype=np.float64))[gammas]
    else:
        low = 1 << _LOW_BITS
        rows = s.w.reshape(-1, low)
        k = min(_TILE // low, rows.shape[0])
        squares = np.empty((k, low))
        low_signs = _signs(low, gammas & (low - 1))
        per_row = np.empty((rows.shape[0], gammas.size))
        for r in range(0, rows.shape[0], k):
            np.matmul(np.multiply(rows[r:r + k], rows[r:r + k], out=squares, dtype=np.float64), low_signs,
                      out=per_row[r:r + k])
        per_row *= _signs(rows.shape[0], gammas >> _LOW_BITS)
        sums = per_row.sum(axis=0)
    return _divide_exactly(sums.astype(np.int64), s.n)


def verify_identities(f: TruthTable) -> list[dict]:
    """Run the spectral identity suite on one function.

    Checks, all in exact integer arithmetic:
      * per-variable equality of the definitional and spectral influences,
      * Parseval: sum of squared coefficients equals 4^n,
      * the autocorrelation transform identity C = FWHT(W^2) / 2^n: the
        transform-route C is compared with C(gamma) evaluated directly from
        f at every gamma up to n = 12, and above that at the unit vectors,
        all-ones and 8 gammas drawn from seed 0, so the report stays
        deterministic. C(e_i) = 2^n - 2|V_1(i)| comes off the first check's
        flip counts; the other gammas go through one batched pass over the
        packed words of f. The transform route is evaluated at the checked
        gammas alone (``_correlation_at``), never at all 2^n.

    Returns one {identity, passed, detail} record per check.
    """
    s = walsh_spectrum(f)
    checks = []

    size = 1 << f.n
    words, repeat = _packed(f)
    changed = [_flip_count(words, repeat, i) for i in range(1, f.n + 1)]
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
    else:
        gammas = set(direct) | {size - 1}
        gammas |= set(make_generator(0).integers(1, size, size=8).tolist())
    rest = sorted(set(gammas) - set(direct))
    direct.update((g, size - 2 * d) for g, d in zip(rest, _flip_counts_at(words, repeat, rest)))
    del words
    gammas = sorted(gammas)
    wrong = [g for g, c in zip(gammas, _correlation_at(s, gammas).tolist()) if c != direct[g]]
    ok = not wrong
    detail = (f"FWHT(W^2) / 2^n == C at {len(gammas)} gammas evaluated directly from f" if ok
              else f"FWHT(W^2) / 2^n != C at {len(wrong)} of {len(gammas)} gammas: {wrong[:8]}")
    checks.append({"identity": "autocorrelation_transform", "passed": ok, "detail": detail})

    return checks
