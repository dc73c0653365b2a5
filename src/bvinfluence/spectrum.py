"""Exact Walsh spectra, influences via two independent routes, autocorrelation.

Everything here is integer arithmetic. Walsh coefficients are kept in
their integer form ``W(y) = sum_x (-1)^(f(x) + y.x)``; the normalized
transform is ``W(y) / 2^n``. Influences come out as ``Fraction`` values
with power-of-two denominators and are only converted to floats at the
reporting boundary.

Widths: for n <= 24 every coefficient is bounded by 2^n <= 2^24, so the
spectrum is transformed in an int32 buffer (the in-place butterfly's
largest intermediate, -2 times a coefficient, stays within 2^25) that
is kept as the int32 ``WalshSpectrum.w``. Squares and their partial sums
are bounded by 4^n <= 2^48 (Parseval) and are int64; ``w * w`` wraps
for n >= 16, so square with ``WalshSpectrum.squares()``.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .boolfn import TruthTable, _check_index, _frozen
from .rng import make_generator

NAIVE_CORRELATION_MAX_N = 16


# Elements per block in the first transform stages: 1 MiB of int64, so a
# block stays in a per-core L2 cache of 2 MiB while it passes through
# those stages. Measured at n=24 on a 2-core Xeon (2 MiB L2 per core,
# 105 MiB L3): int32 0.8 s -> 0.5 s, int64 1.4 s -> 0.9 s.
_TILE = 1 << 17


def _butterfly(values: np.ndarray) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform of ``values``, in place; returns it.

    The stages that pair entries less than a block apart run block by
    block, while the block is in cache; the rest run over the whole
    array. The caller checks the length and that its dtype holds the
    result.
    """
    tile = min(_TILE, values.size)
    for start in range(0, values.size, tile):
        _stages(values[start:start + tile], 1)
    _stages(values, tile)
    return values


def _stages(values: np.ndarray, h: int) -> None:
    """Butterfly stages pairing entries h, 2h, ... apart, up to the length of ``values``.

    Each stage maps a pair (low, high) to (low + high, low - high) with
    ``low += high; high *= -2; high += low``, so no temporary is made.
    """
    while h < values.size:
        view = values.reshape(-1, 2, h)
        low = view[:, 0, :]
        high = view[:, 1, :]
        # Rows shorter than 8 would make numpy's inner loop that short;
        # walking down the columns instead keeps it long.
        order = "F" if h < 8 else "K"
        np.add(low, high, out=low, order=order)
        np.multiply(high, -2, out=high, order=order)
        np.add(high, low, out=high, order=order)
        h *= 2


def fwht(values) -> np.ndarray:
    """Unnormalized fast Walsh-Hadamard transform, out[y] = sum_x v[x]*(-1)^(x.y).

    Self-inverse up to a factor 2^n. Input length must be a power of two.
    Returns a new int64 array; ``values`` is not modified.
    """
    out = np.array(values, dtype=np.int64)
    size = out.size
    if size == 0 or size & (size - 1):
        raise ValueError(f"transform length must be a power of two, got {size}")
    return _butterfly(out)


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
    not kept.
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
        self.n = n
        self.w = _frozen(arr, np.int32)
        self._masses = None
        # Filled by bvsim.bv_distribution, which owns the distribution type.
        self._distribution = None

    def squares(self) -> np.ndarray:
        """W(y)^2 for every y, as a new int64 array."""
        return np.multiply(self.w, self.w, dtype=np.int64)

    def _half_masses(self) -> tuple[tuple[int, ...], int]:
        """Cached :func:`_half_cube_masses` of the squares."""
        if self._masses is None:
            self._masses = _half_cube_masses(self.squares())
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
        signs = f.bits.astype(np.int32)
        signs *= -2
        signs += 1
        _butterfly(signs).flags.writeable = False
        object.__setattr__(f, "_spectrum", WalshSpectrum(f.n, signs))
    return f._spectrum


def influence_counts(f: TruthTable, i: int) -> tuple[int, int]:
    """(|V_0|, |V_1|): how many inputs keep / change f when bit i is flipped.

    Exhaustive enumeration; the definitional ground truth for influence.
    """
    _check_index(i, f.n)
    half = 1 << (i - 1)
    pairs = f.bits.reshape(-1, 2, half)
    changed = 2 * int(np.count_nonzero(pairs[:, 0, :] != pairs[:, 1, :]))
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

    def as_floats(self) -> list[float]:
        return [float(v) for v in self.values]


def influence_vector(f: TruthTable) -> InfluenceVector:
    """Every variable's influence from one spectrum pass."""
    s = walsh_spectrum(f)
    denom = 1 << (2 * f.n)
    return InfluenceVector(f.n, [Fraction(s.ones_square_sum(i), denom) for i in range(1, f.n + 1)])


class Correlation:
    """Autocorrelation C(gamma) = sum_x (-1)^(f(x) + f(x xor gamma)), all gamma."""

    def __init__(self, n: int, c):
        arr = _frozen(c, np.int64)
        if arr.size != (1 << n):
            raise ValueError(f"correlation for n={n} needs {1 << n} entries, got {arr.size}")
        self.n = n
        self.c = arr

    def __eq__(self, other):
        if not isinstance(other, Correlation):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.c, other.c)

    def __repr__(self):
        return f"Correlation(n={self.n})"


def correlation(f: TruthTable) -> Correlation:
    """Autocorrelation by direct O(4^n) summation; the verification oracle.

    Capped at n <= 16; use correlation_fast for larger functions.
    """
    if f.n > NAIVE_CORRELATION_MAX_N:
        raise ValueError(f"naive autocorrelation capped at n={NAIVE_CORRELATION_MAX_N}, got n={f.n}")
    size = 1 << f.n
    index = np.arange(size, dtype=np.intp)
    bits = f.bits
    out = np.empty(size, dtype=np.int64)
    for gamma in range(size):
        mismatches = int(np.count_nonzero(bits != bits[index ^ gamma]))
        out[gamma] = size - 2 * mismatches
    return Correlation(f.n, out)


def _correlation_of_squares(n: int, squares: np.ndarray) -> Correlation:
    """C = FWHT(W^2) / 2^n, transformed and divided in place in ``squares``.

    Divisibility is checked block by block, with no 2^n-entry temporary.
    """
    c = _butterfly(squares)
    mask = (1 << n) - 1
    if any((c[k:k + _TILE] & mask).any() for k in range(0, c.size, _TILE)):
        raise AssertionError("transform-route autocorrelation was not exactly divisible by 2^n")
    c >>= n
    c.flags.writeable = False
    return Correlation(n, c)


def _correlation_at(f: TruthTable, gamma: int) -> int:
    """C(gamma) straight from f in O(2^n): 2^n minus twice the inputs where f(x) != f(x xor gamma).

    Reversing the axes of gamma's set bits in the ``(2,)*n`` view of the
    table maps x to x xor gamma; axis k of the view is bit n-1-k.
    """
    cube = f.bits.reshape((2,) * f.n)
    axes = tuple(f.n - 1 - b for b in range(f.n) if gamma >> b & 1)
    return (1 << f.n) - 2 * int(np.count_nonzero(cube != np.flip(cube, axes)))


def correlation_fast(f: TruthTable) -> Correlation:
    """Autocorrelation via the transform route: C = FWHT(W^2) / 2^n, O(n 2^n)."""
    return _correlation_of_squares(f.n, walsh_spectrum(f).squares())


def verify_identities(f: TruthTable) -> list[dict]:
    """Run the spectral identity suite on one function.

    Checks, all in exact integer arithmetic:
      * per-variable equality of the definitional and spectral influences,
      * Parseval: sum of squared coefficients equals 4^n,
      * the autocorrelation transform identity C = FWHT(W^2) / 2^n. Up to
        n = 12 the naive O(4^n) autocorrelation is the ground truth and
        FWHT(C) == W^2 is checked at every y. Above, the transform-route C
        is compared with C(gamma) evaluated directly from f at every unit
        vector, the all-ones vector and 8 gammas drawn from seed 0, so
        the report stays deterministic.

    Returns one {identity, passed, detail} record per check.
    """
    s = walsh_spectrum(f)
    checks = []

    mismatched = [
        i for i in range(1, f.n + 1)
        if influence_by_definition(f, i) != influence_by_spectrum(s, i)
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

    if f.n <= 12:
        ok = bool(np.array_equal(fwht(correlation(f).c), s.squares()))
        detail = "FWHT(C) == W^2 via naive autocorrelation"
    else:
        c = _correlation_of_squares(f.n, s.squares()).c
        gammas = {1 << b for b in range(f.n)} | {(1 << f.n) - 1}
        gammas |= set(make_generator(0).integers(1, 1 << f.n, size=8).tolist())
        wrong = sorted(g for g in gammas if c[g] != _correlation_at(f, g))
        ok = not wrong
        detail = (f"FWHT(W^2) / 2^n == C at {len(gammas)} gammas evaluated directly from f" if ok
                  else f"FWHT(W^2) / 2^n != C at gammas {wrong}")
    checks.append({"identity": "autocorrelation_transform", "passed": ok, "detail": detail})

    return checks
