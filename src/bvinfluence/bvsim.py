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
exact: a draw is a uniform integer in [0, 4^n) located among the running
sums of the integer weights W(y)^2, so outcomes with zero spectral weight
are impossible, not merely improbable. The running sums are never held
whole: a coarse table of per-tile sums finds each key's 2^16-entry tile,
and each tile touched is squared and summed into one reused buffer (a
two-level inverse CDF, after the guide tables of Chen and Asau, 1974).
Draws come from one generator in blocks of ``_KEY_BLOCK``, and each block
is sorted and looked up in one pass over the spectrum. :func:`_blocks`
reads the draws off the generator's raw words; for the power-of-two
bounds used here that is identical to ``Generator.integers``
(``test_raw_word_draws_match_integers`` pins it; :mod:`.rng` gives the
mapping). Only
:func:`bv_sample` keeps them, in one int64 array of m entries; the
estimators and learners read per-position one-counts, which the counting
path adds up per block in O(``_KEY_BLOCK``) memory, whatever m.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .boolfn import TruthTable, _check_n
from .rng import _check_int, make_generator, resolve_seed
from .spectrum import WalshSpectrum, influence_by_spectrum, walsh_spectrum

STATEVECTOR_MAX_N = 12

_INV_SQRT2 = 1.0 / np.sqrt(2.0)

# Draws per block for the classical baseline and for counting a kept sample.
_BLOCK = 1 << 18

# Keys per sampler block; each block costs one pass over the spectrum.
# Measured at n=20, m=4*10^6 as CLI subprocesses on a 2-vCPU host: 2^18
# ran 4-9% slower than 2^19, and 2^20 was no faster and peaked 9 MiB
# (17%) higher.
_KEY_BLOCK = 1 << 19

# _BYTE_BITS[v, k] is bit k of the byte value v.
_BYTE_BITS = (np.arange(256)[:, None] >> np.arange(8)) & 1


class BvDistribution:
    """Exact measurement distribution of a spectrum: Pr(y) = W(y)^2 / 4^n.

    A view of ``spectrum``: probabilities and marginals are read off it.
    The sampler's coarse table is the running sums of the spectrum's
    per-tile squares, one entry per 2^16 outcomes, which the spectrum
    takes with its masses and keeps; no 2^n array is held beside it.
    """

    def __init__(self, spectrum: WalshSpectrum):
        self.spectrum = spectrum
        self.n = spectrum.n
        self.denominator = 1 << (2 * spectrum.n)
        self._tile_ends = spectrum._tile_ends

    def prob(self, y: int) -> Fraction:
        y = _check_int(y, "outcome", 0, (1 << self.n) - 1, f"outcome {{value}} outside [0, 2^{self.n})")
        return Fraction(int(self.spectrum.w[y]) ** 2, self.denominator)

    def marginal_one(self, i: int) -> Fraction:
        """Pr(y_i = 1); equals the influence of variable i exactly."""
        return influence_by_spectrum(self.spectrum, i)

    def cumulative(self) -> np.ndarray:
        """Read-only running sums of the squares W(y)^2, ending at 4^n, built anew on each call.

        The sampler never builds this 2^n int64 table; it gives the same
        outcomes as ``np.searchsorted(cumulative(), keys, side="right")``.
        """
        cum = self.spectrum.squares()
        np.cumsum(cum, out=cum)
        cum.flags.writeable = False
        return cum

    def __repr__(self):
        return f"BvDistribution(n={self.n}, support={np.count_nonzero(self.spectrum.w)})"


class SampleBatch:
    """m measured outputs y^1..y^m, each an encoded n-bit value.

    Reproducible bit for bit from (distribution, m, seed); ``seed`` is
    the seed actually used, even when the caller left it to entropy.
    ``outcomes`` is a read-only int64 copy, which no caller can change.
    """

    def __init__(self, n: int, outcomes, seed: int):
        n = _check_n(n)
        arr = np.array(outcomes)
        # Refused before the cast could truncate them.
        if arr.dtype.kind not in "iub":
            raise ValueError(f"expected integer values, got dtype {arr.dtype}")
        arr = arr.astype(np.int64, copy=False)
        arr.flags.writeable = False
        if arr.size and not (0 <= arr.min() and arr.max() < 1 << n):
            raise ValueError(f"outcomes must lie in [0, 2^{n})")
        self.n = n
        self.m = int(arr.size)
        self.outcomes = arr
        self.seed = _check_int(seed, "seed", 0)

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


def _blocks(bits: int, m: int, seed: int | None, block: int):
    """The resolved seed, and m uniform int64 draws in [0, 2^bits) from it, in blocks.

    Each draw is read off the generator's raw words, as :mod:`.rng`
    describes, so the blocks join into exactly the array that one
    ``rng.integers(0, 2**bits, m, dtype=np.int64)`` returns, whatever the
    block size. The block size is even, so no block ends inside a raw
    word. A block is valid only until the next one is drawn: at
    ``bits <= 32`` every block is the same reused buffer.
    """
    if block < 2 or block % 2 or not 0 < bits < 64:
        raise ValueError(f"need an even block and 0 < bits < 64, got block={block}, bits={bits}")
    seed = resolve_seed(seed)
    return seed, _draws(make_generator(seed).bit_generator.random_raw, bits, m, block)


def _draws(raw, bits: int, m: int, block: int):
    """The blocks of :func:`_blocks`, from the raw-word source ``raw``."""
    if bits > 32:  # the top bits of whole words, shifted in place
        for start in range(0, m, block):
            keys = raw(min(block, m - start))
            keys >>= 64 - bits
            yield keys.view(np.int64)
        return
    buf = np.empty(min(block, m), np.int64)  # the top bits of half-words, low half first
    for start in range(0, m, block):
        k = min(block, m - start)
        halves = raw((k + 1) // 2).astype("<u8", copy=False).view("<u4")
        yield np.right_shift(halves[:k], 32 - bits, out=buf[:k])


def _locate(d: BvDistribution, keys: np.ndarray) -> None:
    """Replace each of the sorted keys in [0, 4^n) by its outcome, in place.

    The outcome of a key is ``np.searchsorted(d.cumulative(), key,
    side="right")``. The spectrum's per-tile sums give each tile's slice of
    the keys; each tile holding a key is squared and summed into one reused
    int64 buffer, and its keys are looked up there, less the sums before it.
    A tile of zero weight holds no key.
    """
    w = d.spectrum.w
    tile = w.size // d._tile_ends.size
    sums = np.empty(tile, np.int64)
    start, before = 0, 0
    for t, (stop, end) in enumerate(zip(np.searchsorted(keys, d._tile_ends).tolist(), d._tile_ends.tolist())):
        if stop > start:
            sums[...] = w[t * tile:(t + 1) * tile]
            np.cumsum(np.multiply(sums, sums, out=sums), out=sums)
            part = keys[start:stop]
            part -= before
            part[...] = np.searchsorted(sums, part, side="right")
            part += t * tile
        start, before = stop, end


def bv_distribution(s: WalshSpectrum) -> BvDistribution:
    """The distribution of s; O(1) once s has its masses, which it caches."""
    return BvDistribution(s)


def bv_sample(d: BvDistribution, m: int, seed: int | None = None) -> SampleBatch:
    """m independent draws from d by exact inverse-CDF lookup.

    Each draw maps a uniform integer in [0, 4^n) through the running sums
    of the integer weights, so the sample law matches d exactly. Each
    block of keys is looked up in sorted order and its outcomes are
    written back in draw order, so the outcome stream is the same as an
    unsorted ``searchsorted`` of all keys: 8 bytes per draw, in one
    m-sized array.
    """
    m = _check_int(m, "sample count", 1)
    seed, blocks = _blocks(2 * d.n, m, seed, _KEY_BLOCK)
    outcomes = np.empty(m, dtype=np.int64)
    for start, keys in zip(range(0, m, _KEY_BLOCK), blocks):
        order = np.argsort(keys)
        ordered = keys[order]
        _locate(d, ordered)
        outcomes[start:start + keys.size][order] = ordered
    return SampleBatch(d.n, outcomes, seed)


def _sampled_ones(f: TruthTable, m: int, seed: int | None) -> tuple[tuple[int, ...], int]:
    """Per-position one-counts of m draws from f's distribution, and the seed used.

    The counts are those of ``bv_sample(bv_distribution_of(f), m,
    seed).ones_counts()``. They do not depend on draw order, so each
    block of keys is sorted and located in place, and no m-sized array is
    ever held.
    """
    d = bv_distribution_of(f)
    seed, blocks = _blocks(2 * d.n, m, seed, _KEY_BLOCK)

    def outcomes():
        for keys in blocks:
            keys.sort()
            _locate(d, keys)
            yield keys

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
    """The distribution of f's spectrum, which the table caches."""
    return bv_distribution(walsh_spectrum(f))
