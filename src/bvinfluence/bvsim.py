"""Output statistics of the Bernstein-Vazirani circuit on a Boolean function.

Measuring the circuit H^n -> phase oracle -> H^n yields y with
probability (W(y) / 2^n)^2, so the full measurement law is already
determined by the Walsh spectrum. The sampler therefore draws from that
analytic distribution instead of simulating gates shot by shot; a dense
statevector route (:func:`statevector_bv`) exists as an independent
gate-level cross-check. The oracle's ancilla qubit is absorbed
analytically through phase kickback, so only the n-bit register is ever
materialized.

Sampling is exact: a draw is a uniform integer in [0, 4^n) located in a
cumulative table of the integer weights W(y)^2, so outcomes with zero
spectral weight are impossible, not merely improbable.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .boolfn import TruthTable, _check_index, _frozen
from .rng import make_generator, resolve_seed
from .spectrum import WalshSpectrum, _half_cube_masses, walsh_spectrum

STATEVECTOR_MAX_N = 12

_INV_SQRT2 = 1.0 / np.sqrt(2.0)


class BvDistribution:
    """Exact measurement distribution: Pr(y) = weights[y] / 4^n.

    ``weights`` are the squared integer Walsh coefficients, so all
    probabilities are exact rationals over the common denominator 4^n.
    Only their cumulative table is stored; the weights, probabilities and
    support are derived from it on demand.
    """

    def __init__(self, n: int, weights):
        arr = np.asarray(weights, dtype=np.int64)
        if arr.size != (1 << n):
            raise ValueError(f"distribution for n={n} needs {1 << n} weights, got {arr.size}")
        if arr.min(initial=0) < 0:
            raise ValueError("weights must be non-negative")
        cum = np.cumsum(arr)
        if int(cum[-1]) != 1 << (2 * n):
            raise ValueError(f"weights sum to {int(cum[-1])}, expected 4^n = {1 << (2 * n)}")
        cum.flags.writeable = False
        self.n = n
        self.denominator = 1 << (2 * n)
        self._cumulative = cum

    @property
    def weights(self) -> np.ndarray:
        """The integer weights W(y)^2, as a new array."""
        return np.diff(self._cumulative, prepend=0)

    def prob(self, y: int) -> Fraction:
        below = int(self._cumulative[y - 1]) if y else 0
        return Fraction(int(self._cumulative[y]) - below, self.denominator)

    @property
    def probs(self) -> tuple[Fraction, ...]:
        """All 2^n probabilities as exact rationals. Sums to 1 by Parseval."""
        return tuple(Fraction(int(w), self.denominator) for w in self.weights)

    def marginal_one(self, i: int) -> Fraction:
        """Pr(y_i = 1); equals the influence of variable i exactly."""
        _check_index(i, self.n)
        return Fraction(_half_cube_masses(self.weights)[0][i - 1], self.denominator)

    def support(self) -> np.ndarray:
        return np.flatnonzero(self.weights)

    def cumulative(self) -> np.ndarray:
        """Read-only running sums of the weights; the sampler's lookup table."""
        return self._cumulative

    def __repr__(self):
        return f"BvDistribution(n={self.n}, support={self.support().size})"


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
        return tuple(int(np.count_nonzero(self.outcomes & (1 << pos))) for pos in range(self.n))

    def __repr__(self):
        return f"SampleBatch(n={self.n}, m={self.m}, seed={self.seed})"


def bv_distribution(s: WalshSpectrum) -> BvDistribution:
    """Squared, normalized spectrum; Parseval guarantees the total is 1.

    Built once per spectrum and cached on it.
    """
    if s._distribution is None:
        s._distribution = BvDistribution(s.n, s.squares())
    return s._distribution


def bv_sample(d: BvDistribution, m: int, seed: int | None = None) -> SampleBatch:
    """m independent draws from d by exact inverse-CDF lookup.

    Each draw maps a uniform integer in [0, 4^n) through the cumulative
    integer weight table, so the sample law matches d exactly.
    """
    if m < 1:
        raise ValueError(f"sample count must be >= 1, got {m}")
    seed = resolve_seed(seed)
    rng = make_generator(seed)
    u = rng.integers(0, d.denominator, size=m, dtype=np.int64)
    outcomes = np.searchsorted(d.cumulative(), u, side="right")
    del u
    outcomes.flags.writeable = False
    return SampleBatch(d.n, outcomes, seed)


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
    """Convenience: spectrum + distribution in one call."""
    return bv_distribution(walsh_spectrum(f))
