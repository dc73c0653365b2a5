import gc
import weakref
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
import scipy.stats

from bvinfluence import (
    STATEVECTOR_MAX_N,
    SampleBatch,
    algorithm1,
    bv_distribution,
    bv_distribution_of,
    bv_sample,
    from_anf,
    influence_by_spectrum,
    random_function,
    statevector_bv,
    to_truth_table,
    walsh_spectrum,
)
from bvinfluence import bvsim
from bvinfluence.bvsim import _BLOCK, _KEY_BLOCK, _sampled_ones
from bvinfluence.rng import make_generator
from conftest import BENT24, PARITY24, corpus, lift

AND2 = to_truth_table(from_anf("x1*x2", 2))


def test_distribution_linear_point_mass():
    f = to_truth_table(from_anf("x1 + x3", 3))  # a = 101
    d = bv_distribution_of(f)
    assert d.prob(0b101) == 1
    assert all(d.prob(y) == 0 for y in range(8) if y != 0b101)


def test_distribution_and2_uniform():
    d = bv_distribution_of(AND2)
    assert [d.prob(y) for y in range(4)] == [Fraction(1, 4)] * 4


def test_distribution_constant_mass_at_zero():
    const = to_truth_table(from_anf("1", 3))
    d = bv_distribution_of(const)
    assert d.prob(0) == 1


def test_distribution_normalization_exact():
    for t in corpus(40, ns=range(1, 11)):
        d = bv_distribution(walsh_spectrum(t))
        probs = [d.prob(y) for y in range(1 << t.n)]
        assert sum(probs, Fraction(0)) == 1
        assert all(p >= 0 for p in probs)


def test_prob_rejects_outcomes_outside_the_cube():
    # an index wrap in the table would read prob(-15) at n=4 as Pr(1)
    d = bv_distribution_of(random_function(4, seed=2))
    for y in (-1, -16, 16):
        with pytest.raises(ValueError):
            d.prob(y)


@pytest.mark.parametrize("anf", ["1", PARITY24, BENT24], ids=["constant1", "parity24", "bent24"])
def test_distribution_closed_forms_at_the_cap(anf):
    # n=24, where the table's top entry is 4^24 = 2^48: all mass at y = 0
    # for a constant, all of it at y = 1...1 for the full parity, and 2^24
    # at every y for the inner-product bent function.
    n, size = 24, 1 << 24
    d = bv_distribution_of(to_truth_table(from_anf(anf, n)))
    cum = d.cumulative()
    assert cum[-1] == 1 << 48
    marginals = {d.marginal_one(i) for i in range(1, n + 1)}
    if anf == "1":
        assert cum[0] == 1 << 48
        assert np.flatnonzero(d.spectrum.w).tolist() == [0]
        assert np.all(bv_sample(d, 1000, seed=24).outcomes == 0)
        assert marginals == {0}
    elif anf == BENT24:
        chunk = 1 << 20
        for start in range(0, size, chunk):
            expected = np.arange(start + 1, start + chunk + 1, dtype=np.int64) << 24
            assert np.array_equal(cum[start:start + chunk], expected), f"from y={start}"
        assert marginals == {Fraction(1, 2)}
        assert repr(d) == f"BvDistribution(n=24, support={size})"
    else:
        assert not cum[:-1].any()
        assert np.all(bv_sample(d, 1000, seed=24).outcomes == size - 1)
        assert marginals == {1}


def test_marginal_law_exact():
    # Pr(y_i = 1) under the output distribution IS the influence
    for t in corpus(30, ns=range(1, 9)):
        d = bv_distribution_of(t)
        s = walsh_spectrum(t)
        for i in range(1, t.n + 1):
            assert d.marginal_one(i) == influence_by_spectrum(s, i), f"i={i}, n={t.n}"


def test_sampler_linear_always_returns_a():
    f = to_truth_table(from_anf("x2 + x4", 4))  # a = 1010
    batch = bv_sample(bv_distribution_of(f), 300, seed=11)
    assert np.all(batch.outcomes == 0b1010)


def test_sampler_constant_always_zero():
    const = to_truth_table(from_anf("0", 4))
    batch = bv_sample(bv_distribution_of(const), 300, seed=11)
    assert np.all(batch.outcomes == 0)


def test_sampler_and2_frequencies():
    m = 100_000
    batch = bv_sample(bv_distribution_of(AND2), m, seed=5)
    counts = np.bincount(batch.outcomes, minlength=4)
    assert np.all(np.abs(counts / m - 0.25) < 0.01)


def test_zero_influence_positions_never_sampled():
    # dead variables (high, low, and middle embeddings) must never show a 1
    inner = random_function(5, seed=77)
    for n, shift in ((8, 0), (8, 3), (7, 1)):
        t = lift(inner, n, shift)
        dead = [i for i in range(1, n + 1) if not (shift < i <= shift + inner.n)]
        batch = bv_sample(bv_distribution_of(t), 20_000, seed=n * 100 + shift)
        for i in dead:
            assert not np.any((batch.outcomes >> (i - 1)) & 1), f"dead variable {i} sampled"


def test_full_influence_positions_always_sampled():
    # a variable in the linear part has influence 1: its bit is always set
    f = to_truth_table(from_anf("x2 + x1*x3", 3))
    batch = bv_sample(bv_distribution_of(f), 5000, seed=21)
    assert np.all((batch.outcomes >> 1) & 1)


def test_sampler_deterministic_and_records_seed():
    d = bv_distribution_of(AND2)
    a = bv_sample(d, 50, seed=123)
    b = bv_sample(d, 50, seed=123)
    assert np.array_equal(a.outcomes, b.outcomes)
    assert a.seed == 123

    c = bv_sample(d, 50)  # seed drawn from entropy, but recorded
    replay = bv_sample(d, 50, seed=c.seed)
    assert np.array_equal(c.outcomes, replay.outcomes)


@pytest.mark.parametrize(
    "draw",
    [partial(random_function, 3), partial(bv_sample, bv_distribution_of(AND2), 10), partial(algorithm1, AND2, 10)],
    ids=["random_function", "bv_sample", "algorithm1"],
)
def test_seed_must_be_a_non_negative_integer(draw):
    # a float is refused, not truncated to the seed below it, and a bool
    # is not read as seed 1
    for seed in (1.5, True):
        with pytest.raises(TypeError):
            draw(seed=seed)
    with pytest.raises(ValueError, match="non-negative"):
        draw(seed=-1)
    # numpy integers are integers
    result = draw(seed=np.int64(5))
    assert getattr(result, "seed", 5) == 5


def test_sampler_rejects_bad_m():
    with pytest.raises(ValueError):
        bv_sample(bv_distribution_of(AND2), 0)


@pytest.mark.parametrize("bits", range(1, 49))
def test_raw_word_draws_match_integers(bits):
    # Draws are read off raw words; they must join into numpy's bounded
    # draws. bits=32 is numpy's unbounded 32-bit branch (keys at n=16).
    # Odd m and small even blocks end blocks on both halves of a word.
    for m, block in ((1, 2), (7, 2), (1001, 6), (1000, 1 << 10)):
        expected = make_generator(bits).integers(0, 2**bits, m, dtype=np.int64)
        seed, blocks = bvsim._blocks(bits, m, bits, block)
        assert seed == bits
        assert np.array_equal(np.concatenate([b.copy() for b in blocks]), expected)


@pytest.mark.parametrize("block, bits", [(3, 10), (1, 40), (0, 10), (4, 0), (4, 64)])
def test_blocks_reject_odd_blocks_and_bad_widths(block, bits):
    # an odd block would drop the high half of its last word mid-stream
    with pytest.raises(ValueError):
        bvsim._blocks(bits, 10, 1, block)


def _near_the_top(n):
    """Seeded outcomes past one block, plus 0 and the values next to 2^n - 1."""
    top = (1 << n) - 1
    drawn = np.random.default_rng(n).integers(0, top + 1, _BLOCK + 3)
    return SampleBatch(n, np.concatenate([drawn, [0, top, top - 1, top >> 1]]), seed=n)


BYTE_EDGE_NS = (1, 8, 9, 16, 17, 24)


@pytest.mark.parametrize(
    "make_batch",
    [lambda: bv_sample(bv_distribution_of(AND2), 500, seed=3)]
    + [partial(_near_the_top, n) for n in BYTE_EDGE_NS],
    ids=["and2", *(f"n{n}" for n in BYTE_EDGE_NS)],
)
def test_ones_counts_bookkeeping(make_batch):
    batch = make_batch()
    naive = tuple(int(((batch.outcomes >> pos) & 1).sum()) for pos in range(batch.n))
    assert batch.ones_counts() == naive


# three sampler blocks, the last one partial: a fault at a block boundary
# changes draws that no single-block golden report covers
PAST_TWO_BLOCKS = 2 * _KEY_BLOCK + 5
BLOCK_TABLES = pytest.mark.parametrize(
    "table",
    [random_function(12, seed=31), to_truth_table(from_anf("x1 + x2*x3 + x4*x5*x6", 16))],
    ids=["random12", "planted16"],
)


@BLOCK_TABLES
def test_blockwise_lookup_matches_one_unsorted_search(table):
    m = PAST_TWO_BLOCKS
    d = bv_distribution_of(table)
    keys = make_generator(19).integers(0, 4**table.n, m)
    reference = np.searchsorted(d.cumulative(), keys, side="right")
    assert np.array_equal(bv_sample(d, m, seed=19).outcomes, reference)


@BLOCK_TABLES
def test_counting_path_matches_the_kept_sample(table):
    # the estimator sorts each block in place and never keeps the draws;
    # its counts must be those of the order-preserving sample
    m = PAST_TWO_BLOCKS
    expected = bv_sample(bv_distribution_of(table), m, seed=23).ones_counts()
    assert algorithm1(table, m, seed=23).ones == expected


WALK_TABLES = {
    "random12": lambda: random_function(12, seed=31),
    "random20": lambda: random_function(20, seed=32),
    # all the weight in one 2^16 tile, at y = e1 + e20; every other tile is empty
    "x1+x20": lambda: to_truth_table(from_anf("x1 + x20", 20)),
    "constant20": lambda: to_truth_table(from_anf("1", 20)),
    "bent24": lambda: to_truth_table(from_anf(BENT24, 24)),
    "parity24": lambda: to_truth_table(from_anf(PARITY24, 24)),
}


@pytest.mark.parametrize("name", WALK_TABLES)
def test_tiled_walk_matches_the_full_table(monkeypatch, name):
    # The sampler locates keys tile by tile; keys on either side of every
    # tile boundary, 0 and 4^n - 1 must land where a search of the whole
    # table puts them, in bv_sample's draw order and in the counting path.
    table = WALK_TABLES[name]()
    d = bv_distribution_of(table)
    cum = d.cumulative()
    ends = d._tile_ends
    keys = np.concatenate([[0, d.denominator - 1], ends - 1, ends, make_generator(7).integers(0, d.denominator, 1000)])
    keys = make_generator(8).permutation(keys[(keys >= 0) & (keys < d.denominator)])
    reference = np.searchsorted(cum, keys, side="right")
    del cum
    monkeypatch.setattr(bvsim, "_blocks", lambda bits, m, seed, block: (seed, iter([keys.copy()])))
    assert np.array_equal(bv_sample(d, keys.size, seed=1).outcomes, reference)
    naive = tuple(int(((reference >> pos) & 1).sum()) for pos in range(table.n))
    assert _sampled_ones(table, keys.size, seed=1) == (naive, 1)


def test_sampler_matches_exact_law_chisq():
    # seeded goodness-of-fit against the exact distribution, restricted
    # to the support (off-support outcomes are impossible by construction)
    m = 100_000
    for t in corpus(6, ns=range(1, 7), master_seed=0xC1D):
        d = bv_distribution_of(t)
        batch = bv_sample(d, m, seed=t.n)
        support = np.flatnonzero(d.spectrum.w)
        observed = np.bincount(batch.outcomes, minlength=1 << t.n)[support]
        assert observed.sum() == m
        if support.size < 2:  # point mass: chi-squared is degenerate
            assert observed[0] == m
            continue
        expected = np.array([float(d.prob(y)) * m for y in support])
        _, pvalue = scipy.stats.chisquare(observed, expected)
        assert pvalue > 1e-4, f"n={t.n}: p={pvalue}"


def test_statevector_matches_spectrum():
    worst = 0.0
    for t in corpus(50, ns=range(1, 11), master_seed=0xABCD):
        amps = statevector_bv(t)
        exact = walsh_spectrum(t).w / float(1 << t.n)
        worst = max(worst, float(np.max(np.abs(amps - exact))))
    assert worst < 1e-12, worst


def test_statevector_linear_is_basis_state():
    f = to_truth_table(from_anf("x1 + x2 + x4", 4))
    amps = statevector_bv(f)
    expected = np.zeros(16)
    expected[0b1011] = 1.0
    assert np.allclose(amps, expected, atol=1e-14)


def test_statevector_unit_norm():
    for t in corpus(10, ns=[3, 6, 9]):
        amps = statevector_bv(t)
        assert abs(np.dot(amps, amps) - 1.0) < 1e-12


def test_statevector_cap():
    with pytest.raises(ValueError):
        statevector_bv(random_function(STATEVECTOR_MAX_N + 1, seed=0))


def test_distribution_rejects_bad_weights():
    # refused on the input's own dtype: an int64 cast would read [1, 3]
    with pytest.raises(ValueError):
        SampleBatch(2, [1.7, 3.2], seed=0)


@pytest.mark.parametrize("n, outcomes", [(2, [5]), (2, [-1]), (2, [4]), (2, [0, 3, 4]), (0, [0])])
def test_sample_batch_rejects_outcomes_outside_the_cube(n, outcomes):
    # ones_counts reads only the low n bits: [5, 4] at n=2 would count (1, 0)
    with pytest.raises(ValueError):
        SampleBatch(n, outcomes, seed=0)


def test_arrays_handed_to_results_are_not_shared():
    d = bv_distribution_of(AND2)
    outcomes = np.array([3, 1, 0])
    batch = SampleBatch(2, outcomes, seed=1)
    outcomes[0] = 0
    d.spectrum.squares()[0] = 0
    assert d.spectrum.squares().tolist() == [4, 4, 4, 4]
    assert [d.prob(y) for y in range(4)] == [Fraction(1, 4)] * 4
    assert batch.outcomes.tolist() == [3, 1, 0]
    assert batch.ones_counts() == (2, 1)
    with pytest.raises(ValueError):
        batch.outcomes[0] = 0
    with pytest.raises(ValueError):
        d.cumulative()[0] = 0
    # a read-only array its caller can make writable again is copied too
    a = np.array([3, 1, 0])
    a.flags.writeable = False
    b = SampleBatch(2, a, 0)
    a.flags.writeable = True
    a[0] = 0
    assert b.outcomes.tolist() == [3, 1, 0]
    assert b.ones_counts() == (2, 1)


def test_distribution_cached_on_the_table():
    # a distribution is a view: each call builds a new one over the same
    # cached spectrum and per-tile sums, so nothing is computed twice
    t = random_function(6, seed=8)
    d = bv_distribution_of(t)
    for other in (bv_distribution_of(t), bv_distribution(walsh_spectrum(t))):
        assert other.spectrum is d.spectrum is walsh_spectrum(t)
        assert other._tile_ends is d._tile_ends
    # the 2^n table is built on demand and never held
    assert d.cumulative() is not d.cumulative()


def test_dropped_table_or_distribution_frees_the_spectrum():
    # The table is the spectrum's only owner, so with the garbage collector
    # off a dropped table frees it at once: nothing may hold it in a cycle.
    # A distribution is a view that holds the spectrum: while one is held
    # the spectrum lives on past its table, and dropping it frees the
    # spectrum too.
    gc.disable()
    try:
        t = random_function(6, seed=8)
        s = weakref.ref(walsh_spectrum(t))
        del t
        assert s() is None
        t = random_function(6, seed=8)
        d = bv_distribution_of(t)
        s = weakref.ref(walsh_spectrum(t))
        del t
        assert s() is d.spectrum
        del d
        assert s() is None
    finally:
        gc.enable()
