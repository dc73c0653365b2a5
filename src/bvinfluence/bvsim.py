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
whole: the spectrum keeps them at every 2^10-entry segment boundary, a
guide table (after Chen and Asau, 1974) that finds each key's segment,
and the lookup squares only the segments that hold a key. Draws come
from one generator in blocks of :func:`_key_block` keys, read off its raw
words into one reused buffer by :func:`_blocks`; for the power-of-two
bounds used here that is identical to ``Generator.integers``
(``test_raw_word_draws_match_integers`` pins it; :mod:`.rng` gives the
mapping). :func:`_locate` sorts each block in place and looks it up in
one walk over the segments that hold its keys. Only a
:class:`SampleBatch`, drawn by :func:`bv_sample` or ``SampleBatch(d, m,
seed)`` and never built from outcomes handed in, keeps the outcomes, in
draw order in one int64 array of m entries; the estimators and learners read
per-position one-counts, which the counting path takes in place from
each located block, holding one block and no other of its size, whatever m.

The counting path samples a junta on its core (Atici and Servedio, 2007).
If f depends only on the k variables R, and g is its restriction to them,
then W_f(y) = 2^(n-k) W_g(y_R) for y that is 0 off R, and 0 elsewhere.
Placing g's outcomes at R keeps their order, and f's running sums there
are 4^(n-k) times g's, so a key K in [0, 4^n) lands on the placement of
the outcome that ``K >> 2(n-k)`` gets in g: f's spectrum is never built.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .boolfn import TruthTable, _check_table
from .rng import _check_int, make_generator, resolve_seed
from .spectrum import (
    _CHUNK, _SEGMENT, _TILE, WalshSpectrum, _bit_sums, _flip_count, _flips, _packed, influence_by_spectrum,
    walsh_spectrum,
)

STATEVECTOR_MAX_N = 12

_INV_SQRT2 = 1.0 / np.sqrt(2.0)

# Keys per sampler block: 2^19 (at n=20, m=4*10^6, 2^18 ran 4-9% slower and 2^20 peaked 9 MiB
# higher, as CLI subprocesses), or 2^(n-3) above n=22, where every block touches every segment.
def _key_block(n: int) -> int:
    return 1 << max(19, n - 3)


class BvDistribution:
    """Exact measurement distribution of a spectrum: Pr(y) = W(y)^2 / 4^n.

    A view of ``spectrum``: probabilities, marginals and the sampler's
    guide table, its running sums at every 2^10-entry segment boundary
    (:func:`_locate`), are read off it; it holds no array.
    """

    def __init__(self, spectrum: WalshSpectrum):
        self.spectrum = spectrum
        self.n = spectrum.n
        self.denominator = 1 << (2 * spectrum.n)

    def prob(self, y: int) -> Fraction:
        y = _check_int(y, "outcome", 0, (1 << self.n) - 1)
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
    """m measured outputs y^1..y^m of d's circuit, each an encoded n-bit value.

    A batch is drawn, never assembled: ``SampleBatch(d, m, seed)``, which
    :func:`bv_sample` calls, is its one constructor, and no caller can
    hand in outcomes. Reproducible bit for bit from (d, m, seed); ``seed``
    is the seed actually used, even when the caller left it to entropy.
    ``outcomes`` is the read-only int64 array the draw filled, in draw
    order, kept without a copy.
    """

    def __init__(self, d: BvDistribution, m: int, seed: int | None = None):
        if not isinstance(d, BvDistribution):
            raise TypeError(f"need a BvDistribution, got {type(d).__name__}")
        m, block = _check_int(m, "sample count", 1), _key_block(d.n)
        self.seed, blocks = _blocks(2 * d.n, m, seed, block)
        self.n, self.m, self.outcomes = d.n, m, np.empty(m, dtype=np.int64)
        for start, keys in zip(range(0, m, block), blocks):
            order = np.argsort(keys)
            _locate(d.spectrum, keys)
            self.outcomes[start:start + keys.size][order] = keys
        self.outcomes.flags.writeable = False

    def ones_counts(self) -> tuple[int, ...]:
        """Per position i, how many outcomes have y_i = 1, counted in copies of slices of 2^15."""
        bits = min(self.n, _SEGMENT.bit_length() - 1)  # 2^bits outcomes per segment
        parts = [self.outcomes[s:s + _CHUNK] for s in range(0, self.m, _CHUNK)]
        ends = (np.cumsum(np.bincount(p >> bits, minlength=1 << (self.n - bits))) for p in parts)
        return _ones_counts(self.n, ((p.copy(), e) for p, e in zip(parts, ends)))

    def __repr__(self):
        return f"SampleBatch(n={self.n}, m={self.m}, seed={self.seed})"


def _ones_counts(n: int, located) -> tuple[int, ...]:
    """Per position i, how many outcomes y in [0, 2^n) have y_i = 1, from the pairs in ``located``.

    A pair is an int64 block of outcomes, overwritten here, and its segment
    ends (:func:`_locate`): ``ends[h]`` outcomes lie below the end of the
    h-th run of 2^n / ends.size outcomes. Added up in place, the ends give
    the bits above a segment; the blocks, masked in place to the offsets
    inside one and each counted by one ``bincount``, the bits inside.
    """
    low, total = 0, None
    for outcomes, ends in located:
        width = (1 << n) // ends.size
        outcomes &= width - 1
        low = low + np.bincount(outcomes, minlength=width)
        total = ends if total is None else np.add(total, ends, out=total)
    return tuple(_bit_sums(low) + _bit_sums(np.diff(total, prepend=0)))


def _blocks(bits: int, m: int, seed: int | None, block: int):
    """The resolved seed, and m uniform int64 draws in [0, 2^bits) from it, in blocks.

    Each draw is read off the generator's raw words, as :mod:`.rng`
    describes, so the blocks join into exactly the array that one
    ``rng.integers(0, 2**bits, m, dtype=np.int64)`` returns, whatever the
    block size. The block size is even, so no block ends inside a raw
    word. Every block is the same reused buffer, valid until the next.
    """
    if block < 2 or block % 2 or not 0 < bits < 64:
        raise ValueError(f"need an even block and 0 < bits < 64, got block={block}, bits={bits}")
    seed = resolve_seed(seed)
    return seed, _draws(make_generator(seed).bit_generator.random_raw, bits, m, block)


def _draws(raw, bits: int, m: int, block: int):
    """The blocks of :func:`_blocks`, from the raw-word source ``raw``, in one buffer, ``_CHUNK`` words at a time."""
    half = bits <= 32  # the top bits of half-words, low half first, or of whole words
    buf = np.empty(min(block, m), np.int64)
    for start in range(0, m, block):
        keys = buf[:min(block, m - start)]
        for s in range(0, keys.size, _CHUNK << half):
            part = keys[s:s + (_CHUNK << half)].view(np.uint64)
            words = raw((part.size + half) >> half).astype("<u8", copy=False).view(f"<u{8 >> half}")
            np.right_shift(words[:part.size], (64 >> half) - bits, out=part)
        del words  # before the block is read
        yield keys


def _locate(s: WalshSpectrum, keys: np.ndarray, shift: int = 0) -> np.ndarray:
    """Sort the keys, shifted right by ``shift`` into [0, 4^n), and replace each by its outcome under s, in place.

    A key's outcome is ``np.searchsorted(bv_distribution(s).cumulative(),
    key, side="right")``. The spectrum's running sums at its 2^10-entry
    segment boundaries give each segment's slice of the sorted keys; a
    segment of zero weight holds none. The segments that hold a key are
    gathered, up to 2^16 entries at a time, into rows of one reused int64
    buffer, squared and summed on from the running sum before each: the
    rows run on as one sorted array, a key's index in it falls in its own
    segment's row, and that row's place in the spectrum maps it back.
    Returns the segment ends: ``ends[h]`` keys lie below the end of segment h.
    """
    keys >>= shift
    keys.sort()
    w, bounds = s.w, s._segment_sums
    width = w.size // (bounds.size - 1)
    stops = np.searchsorted(keys, bounds)
    held = np.flatnonzero(np.diff(stops))
    per = _TILE // width
    sums = np.empty(min(held.size, per) * width, np.int64)
    for c in range(0, held.size, per):
        h = held[c:c + per]
        rows = sums[:h.size * width].reshape(-1, width)
        rows[...] = w.reshape(-1, width)[h]
        rows *= rows
        rows[:, 0] += bounds[h]
        np.cumsum(rows, axis=1, out=rows)
        part = keys[stops[h[0]]:stops[h[-1] + 1]]
        part[...] = np.searchsorted(sums[:rows.size], part, side="right")
        part += np.repeat((h - np.arange(h.size)) * width, stops[h + 1] - stops[h])
    return stops[1:]


def bv_distribution(s: WalshSpectrum) -> BvDistribution:
    """The distribution of s; O(1) once s has its masses, which it caches."""
    return BvDistribution(s)


def bv_sample(d: BvDistribution, m: int, seed: int | None = None) -> SampleBatch:
    """m independent draws from d by exact inverse-CDF lookup.

    Each draw maps a uniform integer in [0, 4^n) through the running sums
    of the integer weights, so the sample law matches d exactly. Each
    block of keys is located in sorted order, in place, and its outcomes
    are scattered back by the keys' draw order, so the outcome stream is
    the same as an unsorted ``searchsorted`` of all keys: 8 bytes per
    draw, in one m-sized array, which the batch keeps.
    """
    return SampleBatch(d, m, seed)


def _shows_flip(words: np.ndarray, i: int) -> bool:
    """Whether the first 64 pairs of partner words of :func:`_packed` ``words`` hold a flip of variable i."""
    step = 1 << max(0, i - 7)  # the partner word's distance, for i > 6
    if step <= 64:  # whole pairs inside the first 128 words
        return bool(_flips(words[:128], i).any())
    return bool((words[:64] ^ words[step:step + 64]).any())


def _core(f: TruthTable) -> tuple[tuple[int, ...], TruthTable]:
    """The variables R that f depends on, ascending, and g, f restricted to them; cached on f.

    g's variable j is R[j-1], and g is f itself when R holds every variable or
    none. Only a variable with no flip in its first partner words is counted
    in full. g gathers f at each z in [0, 2^k) deposited into R's positions.
    """
    if _check_table(f)._core is None:
        words = _packed(f)
        relevant = tuple(i for i in range(1, f.n + 1) if _shows_flip(words, i) or _flip_count(words, i))
        g = None
        if 0 < len(relevant) < f.n:
            index = np.zeros(1, np.intp)
            for r in relevant:
                index = np.concatenate((index, index | 1 << (r - 1)))
            bits = f.packed[index >> 3] >> (index & 7) & 1
            g = TruthTable._of_packed(len(relevant), np.packbits(bits, bitorder="little"))
        object.__setattr__(f, "_core", (relevant, g))  # g is None for f itself: no cycle holds f
    relevant, g = f._core
    return relevant, f if g is None else g


def _sampled_ones(f: TruthTable, m: int, seed: int | None) -> tuple[tuple[int, ...], int]:
    """Per-position one-counts of m draws from f's distribution, and the seed used.

    The counts are those of ``bv_sample(bv_distribution_of(f), m,
    seed).ones_counts()``. They do not depend on draw order, so each
    block of keys is located in place and counted, and no m-sized array is
    ever held. The draws are f's 2n-bit keys, each shifted right by 2(n-k)
    and located in the distribution of f's core g (:func:`_core`; module
    docstring); g's counts go to R's positions, and every other count is 0.
    """
    relevant, g = _core(f)
    s, shift = walsh_spectrum(g), 2 * (f.n - g.n)
    seed, blocks = _blocks(2 * f.n, m, seed, _key_block(f.n))
    counts = dict(zip(relevant, _ones_counts(g.n, ((keys, _locate(s, keys, shift)) for keys in blocks))))
    return tuple(counts.get(i, 0) for i in range(1, f.n + 1)), seed


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
