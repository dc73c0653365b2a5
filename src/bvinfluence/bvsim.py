"""Output statistics of the Bernstein-Vazirani circuit on a Boolean function.

Measuring the circuit H^n -> phase oracle -> H^n yields y with
probability (W(y) / 2^n)^2, so the full measurement law is already
determined by the Walsh spectrum. The sampler therefore draws from that
analytic distribution instead of simulating gates shot by shot; a dense
statevector route (:func:`statevector_bv`) exists as an independent
gate-level cross-check. The oracle's ancilla qubit is absorbed
analytically through phase kickback, so only the n-bit register is ever
materialized.

:class:`BvDistribution` reads its law off the spectrum. Sampling is
exact: a draw is a uniform integer in [0, 4^n) located in a cumulative
table of the integer weights W(y)^2, the one array the distribution
holds, so outcomes with zero spectral weight are impossible, not merely
improbable. Draws come from one generator in blocks of ``_BLOCK`` and
are looked up block by block. Only :func:`bv_sample` keeps them, in one
int64 array of m entries; the estimators and learners read per-position
one-counts, which the counting path adds up per block in O(``_BLOCK``)
memory, whatever m.
"""

from __future__ import annotations

import weakref
from fractions import Fraction

import numpy as np

from .boolfn import TruthTable, _frozen
from .rng import make_generator, resolve_seed
from .spectrum import WalshSpectrum, influence_by_spectrum, walsh_spectrum

STATEVECTOR_MAX_N = 12

_INV_SQRT2 = 1.0 / np.sqrt(2.0)

# Keys sorted and looked up per block: 2 MiB of int64 keys stay in cache
# while the sorted search walks the cumulative table front to back.
_BLOCK = 1 << 18

# _BYTE_BITS[v, k] is bit k of the byte value v.
_BYTE_BITS = (np.arange(256)[:, None] >> np.arange(8)) & 1


class BvDistribution:
    """Exact measurement distribution of a spectrum: Pr(y) = W(y)^2 / 4^n.

    A view of ``spectrum``: weights, probabilities, marginals and support
    are read off it. Its one array is the sampler's read-only int64
    cumulative table, built once in place in the squares; Parseval makes
    it non-decreasing, ending at 4^n <= 2^48.
    """

    def __init__(self, spectrum: WalshSpectrum):
        self.spectrum = spectrum
        self.n = spectrum.n
        self.denominator = 1 << (2 * spectrum.n)
        cum = spectrum.squares()
        np.cumsum(cum, out=cum)
        cum.flags.writeable = False
        self._cumulative = cum

    @property
    def weights(self) -> np.ndarray:
        """The integer weights W(y)^2, as a new array."""
        return self.spectrum.squares()

    def prob(self, y: int) -> Fraction:
        if not 0 <= y < 1 << self.n:
            raise ValueError(f"outcome {y} outside [0, 2^{self.n})")
        return Fraction(int(self.spectrum.w[y]) ** 2, self.denominator)

    def marginal_one(self, i: int) -> Fraction:
        """Pr(y_i = 1); equals the influence of variable i exactly."""
        return influence_by_spectrum(self.spectrum, i)

    def support(self) -> np.ndarray:
        return np.flatnonzero(self.spectrum.w)

    def cumulative(self) -> np.ndarray:
        """Read-only running sums of the weights; the sampler's lookup table."""
        return self._cumulative

    def __repr__(self):
        return f"BvDistribution(n={self.n}, support={np.count_nonzero(self.spectrum.w)})"


class SampleBatch:
    """m measured outputs y^1..y^m, each an encoded n-bit value.

    Reproducible bit for bit from (distribution, m, seed); ``seed`` is
    the seed actually used, even when the caller left it to entropy.
    """

    def __init__(self, n: int, outcomes, seed: int):
        arr = _frozen(outcomes, np.int64)
        self.n = n
        self.m = int(arr.size)
        self.outcomes = arr
        self.seed = seed

    def ones_counts(self) -> tuple[int, ...]:
        """Per position i, how many outcomes have y_i = 1."""
        return _ones_counts(self.n, (self.outcomes[s:s + _BLOCK] for s in range(0, self.m, _BLOCK)))

    def __repr__(self):
        return f"SampleBatch(n={self.n}, m={self.m}, seed={self.seed})"


def _ones_counts(n: int, blocks) -> tuple[int, ...]:
    """Per position i, how many of the int64 outcomes in ``blocks`` have y_i = 1.

    A 256-bin histogram of each of the ceil(n/8) low bytes, added up
    block by block, then one product with the per-byte bit table. The
    cost is O(m * ceil(n/8)), whatever 2^n.
    """
    hist = np.zeros(((n + 7) // 8, 256), dtype=np.int64)
    for outcomes in blocks:
        raw = outcomes.astype("<i8", copy=False).view(np.uint8).reshape(-1, 8)
        for b, row in enumerate(hist):
            row += np.bincount(raw[:, b], minlength=256)
    return tuple(int(c) for c in (hist @ _BYTE_BITS).ravel()[:n])


def _blocks(bound: int, m: int, seed: int | None):
    """The resolved seed, and m uniform int64 draws in [0, bound) from it, in blocks.

    Bounded draws consume the stream in order, so the blocks join into
    exactly the array that one ``rng.integers(0, bound, m)`` returns.
    """
    if m < 1:
        raise ValueError(f"sample count must be >= 1, got {m}")
    seed = resolve_seed(seed)
    rng = make_generator(seed)
    return seed, (rng.integers(0, bound, size=min(_BLOCK, m - start), dtype=np.int64) for start in range(0, m, _BLOCK))


def bv_distribution(s: WalshSpectrum) -> BvDistribution:
    """The distribution of s, shared while held; s refers to it weakly, or the two would form a cycle."""
    d = s._distribution and s._distribution()
    if d is None:
        d = BvDistribution(s)
        s._distribution = weakref.ref(d)
    return d


def bv_sample(d: BvDistribution, m: int, seed: int | None = None) -> SampleBatch:
    """m independent draws from d by exact inverse-CDF lookup.

    Each draw maps a uniform integer in [0, 4^n) through the cumulative
    integer weight table, so the sample law matches d exactly. Each block
    of keys is looked up in sorted order and its outcomes are written
    back in draw order, so the outcome stream is the same as an unsorted
    ``searchsorted`` of all keys: 8 bytes per draw, in one m-sized array.
    """
    seed, blocks = _blocks(d.denominator, m, seed)
    cum = d.cumulative()
    outcomes = np.empty(m, dtype=np.int64)
    for start, keys in zip(range(0, m, _BLOCK), blocks):
        order = np.argsort(keys)
        outcomes[start:start + keys.size][order] = np.searchsorted(cum, keys[order], side="right")
    outcomes.flags.writeable = False
    return SampleBatch(d.n, outcomes, seed)


def _sampled_ones(f: TruthTable, m: int, seed: int | None) -> tuple[tuple[int, ...], int]:
    """Per-position one-counts of m draws from f's distribution, and the seed used.

    The counts are those of ``bv_sample(bv_distribution_of(f), m,
    seed).ones_counts()``. They do not depend on draw order, so each
    block of keys is sorted in place and looked up as is, and no
    m-sized array is ever held.
    """
    d = bv_distribution_of(f)
    cum = d.cumulative()
    seed, blocks = _blocks(d.denominator, m, seed)

    def outcomes():
        for keys in blocks:
            keys.sort()
            yield np.searchsorted(cum, keys, side="right")

    return _ones_counts(d.n, outcomes()), seed


def _apply_hadamard(psi: np.ndarray, qubit: int) -> None:
    """In-place H on one qubit; qubit q pairs amplitudes differing in bit q."""
    half = 1 << qubit
    view = psi.reshape(-1, 2, half)
    low = view[:, 0, :].copy()
    high = view[:, 1, :]
    view[:, 0, :] = (low + high) * _INV_SQRT2
    view[:, 1, :] = (low - high) * _INV_SQRT2


def statevector_bv(f: TruthTable) -> np.ndarray:
    """Gate-level simulation of the circuit; returns the final amplitudes.

    Runs H on every qubit of |0..0>, multiplies amplitude x by
    (-1)^f(x), and applies H again. The result at index y equals
    W(y) / 2^n up to float roundoff; the analytic distribution path is
    cross-checked against this in the tests.
    """
    if f.n > STATEVECTOR_MAX_N:
        raise ValueError(f"statevector route capped at n={STATEVECTOR_MAX_N}, got n={f.n}")
    psi = np.zeros(1 << f.n, dtype=np.float64)
    psi[0] = 1.0
    for qubit in range(f.n):
        _apply_hadamard(psi, qubit)
    psi *= f.signs()
    for qubit in range(f.n):
        _apply_hadamard(psi, qubit)
    return psi


def bv_distribution_of(f: TruthTable) -> BvDistribution:
    """Spectrum + distribution in one call; the table holds both, so they are freed with it."""
    d = bv_distribution(walsh_spectrum(f))
    object.__setattr__(f, "_distribution", d)
    return d
