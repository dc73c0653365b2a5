import gc
import io
import tracemalloc
import weakref
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
import scipy.stats

from bvinfluence import (
    STATEVECTOR_MAX_N,
    Anf,
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
from bvinfluence.bvsim import _core, _key_block, _sampled_ones
from bvinfluence.cli import run
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
        with pytest.raises(ValueError, match=rf"^outcome must be in 0\.\.15, got {y}$"):
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
    with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
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


@pytest.mark.parametrize("bits", [40, 20])
def test_blocks_reuse_one_buffer(bits):
    # whole-word and half-word draws alike fill one int64 buffer: every block
    # is a view of the first one's memory, so a block must be copied to be kept
    m, block = 3 * (1 << 16) + 7, 1 << 17
    blocks = bvsim._blocks(bits, m, 9, block)[1]
    first = next(blocks)
    kept = [first.copy()]
    for b in blocks:
        assert np.shares_memory(b, first) and b.ctypes.data == first.ctypes.data
        kept.append(b.copy())
    assert [b.size for b in kept] == [block, m - block]
    assert np.array_equal(np.concatenate(kept), make_generator(9).integers(0, 2**bits, m, dtype=np.int64))


@pytest.mark.parametrize("block, bits", [(3, 10), (1, 40), (0, 10), (4, 0), (4, 64)])
def test_blocks_reject_odd_blocks_and_bad_widths(block, bits):
    # an odd block would drop the high half of its last word mid-stream
    with pytest.raises(ValueError):
        bvsim._blocks(bits, 10, 1, block)


def _near_the_top(n):
    """Batches over several 2^15-outcome slices, each with its one outcome or None.

    First a spread from a random table, then the linear functions 0,
    x1 + ... + xn, x2 + ... + xn and x1 + ... + x(n-1), whose every draw
    is 0, 2^n - 1, 2^n - 2 and 2^(n-1) - 1.
    """
    spread = bv_sample(bv_distribution_of(random_function(n, seed=n)), (1 << 18) + 3, seed=n)
    terms, top = [f"x{i}" for i in range(1, n + 1)], (1 << n) - 1
    edges = [([], 0), (terms, top), (terms[1:], top - 1), (terms[:-1], top >> 1)]
    return [(spread, None)] + [
        (bv_sample(bv_distribution_of(to_truth_table(from_anf(" + ".join(t) or "0", n))), (1 << 15) + 3, seed=n), y)
        for t, y in edges
    ]


# byte edges, and below, at and above one 2^10-outcome segment
EDGE_NS = (1, 3, 8, 9, 10, 16, 17, 24)


@pytest.mark.parametrize(
    "make_batches",
    [lambda: [(bv_sample(bv_distribution_of(AND2), 500, seed=3), None)]]
    + [partial(_near_the_top, n) for n in EDGE_NS],
    ids=["and2", *(f"n{n}" for n in EDGE_NS)],
)
def test_ones_counts_bookkeeping(make_batches):
    for batch, only in make_batches():
        if only is not None:
            assert np.all(batch.outcomes == only)
        naive = tuple(int(((batch.outcomes >> pos) & 1).sum()) for pos in range(batch.n))
        assert batch.ones_counts() == naive


def test_ones_counts_of_a_kept_sample_hold_no_block():
    # slices of 2^15 outcomes: one copy, its segment indices and its counts at
    # a time, 0.54 MiB at n=20 (tracemalloc, numpy 2.4); three byte
    # histograms of 2^18-outcome blocks peaked at 2.01 MiB
    batch = bv_sample(bv_distribution_of(random_function(20, seed=1)), 4_000_000, seed=3)
    tracemalloc.start()
    try:
        batch.ones_counts()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.04 * 2**20, peak / 2**20


def test_key_blocks_grow_only_above_n22():
    # 2^(n-3) keys above n = 22, where every block touches every segment
    assert [_key_block(n) for n in (1, 20, 22, 23, 24)] == [1 << 19] * 3 + [1 << 20, 1 << 21]


# three sampler blocks, the last one partial: a fault at a block boundary
# changes draws that no single-block golden report covers
PAST_TWO_BLOCKS = 2 * _key_block(17) + 5
BLOCK_TABLES = pytest.mark.parametrize(
    "table",
    # random17's 34-bit keys take _draws' whole-word branch
    [random_function(12, seed=31), to_truth_table(from_anf("x1 + x2*x3 + x4*x5*x6", 16)), random_function(17, seed=33)],
    ids=["random12", "planted16", "random17"],
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


def test_sample_holds_its_array_once():
    # bv_sample fills one m-sized array and keeps it, with no copy; beyond
    # it the peak holds a raw key block, the next block and the sort order
    d = bv_distribution_of(random_function(20, seed=1))
    m = 4_000_000
    tracemalloc.start()
    try:
        batch = bv_sample(d, m, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert batch.outcomes.nbytes == 8 * m
    assert peak <= batch.outcomes.nbytes + (16 << 20), (peak - batch.outcomes.nbytes) / 2**20


@pytest.mark.parametrize("m, bound_mib", [(4_000_000, 5.3), (1060, 1.18)])
def test_counting_path_stays_within_its_memory_budget(m, bound_mib):
    # On a warm n=20 table the counting path holds one key block, drawn into
    # one reused buffer and counted in place, and one 2^16-entry buffer of
    # running sums: 4.80 MiB at m = 4*10^6 and 0.78 MiB at m = 1060
    # (tracemalloc, numpy 2.4). A fresh array per block, with the one
    # counted before it still held, and byte histograms peaked at 8.78 MiB;
    # squaring whole tiles, at 0.68 MiB at m = 1060. The bounds are 4.80
    # and 0.68 MiB plus 0.5 MiB.
    t = random_function(20, seed=1)
    _sampled_ones(t, 1000, seed=0)
    tracemalloc.start()
    try:
        _sampled_ones(t, m, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound_mib * 2**20, peak / 2**20


WALK_TABLES = {
    # one segment: all 2^6 entries, and exactly 2^10
    "random6": lambda: random_function(6, seed=33),
    "random10": lambda: random_function(10, seed=34),
    "random12": lambda: random_function(12, seed=31),
    "random20": lambda: random_function(20, seed=32),
    # all the weight in one segment, at y = e1 + e20; every other segment is empty
    "x1+x20": lambda: to_truth_table(from_anf("x1 + x20", 20)),
    "constant20": lambda: to_truth_table(from_anf("1", 20)),
    # weight only where y is 0 off six variables: 16 segments, with empty ones between them
    "junta20": lambda: to_truth_table(_junta(20, (2, 5, 11, 13, 16, 20), seed=35)),
    "bent24": lambda: to_truth_table(from_anf(BENT24, 24)),
    "parity24": lambda: to_truth_table(from_anf(PARITY24, 24)),
}

# One key in each of this many segments, where a table has that many of nonzero weight.
SCATTERED = 150


def _segments(d) -> tuple[int, np.ndarray]:
    """Entries per sampler segment of d's spectrum, and the running sums at every segment boundary."""
    bounds = d.spectrum._segment_sums
    return (1 << d.n) // (bounds.size - 1), bounds


def _walk_keys(d) -> list[np.ndarray]:
    """Three key blocks for d, in draw order: spread, mixed and scattered over the segments of nonzero weight.

    The first two hold 0, 4^n - 1 and the keys on either side of every
    segment boundary. The first adds 1000 uniform keys. In the second,
    every fourth segment of nonzero weight holds 64 more uniform keys, and
    the second of every four one more. The third holds one uniform key in
    each of ``SCATTERED`` segments of nonzero weight spread over the
    spectrum, or in each of them if there are fewer.
    """
    _, bounds = _segments(d)
    edges = np.concatenate([[0, d.denominator - 1], bounds[1:-1] - 1, bounds[1:-1]])
    spread = np.concatenate([edges, make_generator(7).integers(0, d.denominator, 1000)])
    nonzero, rng = np.flatnonzero(np.diff(bounds)), make_generator(9)
    mixed = [edges] + [rng.integers(bounds[j], bounds[j + 1], (64, 0, 1, 0)[k % 4])
                       for k, j in enumerate(nonzero)]
    picked = nonzero[np.linspace(0, nonzero.size - 1, min(SCATTERED, nonzero.size)).astype(int)]
    scattered = rng.integers(bounds[picked], bounds[picked + 1])
    keys = (k[(k >= 0) & (k < d.denominator)] for k in (spread, np.unique(np.concatenate(mixed)), scattered))
    return [make_generator(8).permutation(k) for k in keys]


@pytest.mark.parametrize("name", WALK_TABLES)
def test_tiled_walk_matches_the_full_table(monkeypatch, name):
    # The sampler squares only the segments that hold a key, 64 of them
    # at a time. Keys on either side of every segment boundary, 0 and
    # 4^n - 1, rows of 1 to 66 keys, and one key in each of 150 segments
    # spread over the spectrum (three lots of rows, the last partial, each
    # spanning many 2^16-entry tiles) must land where a search of the whole
    # table puts them, in bv_sample's draw order and in the counting path.
    table = WALK_TABLES[name]()
    d = bv_distribution_of(table)
    cum = d.cumulative()
    blocks = _walk_keys(d)
    references = [np.searchsorted(cum, keys, side="right") for keys in blocks]
    del cum
    width, bounds = _segments(d)
    assert width == min(1 << 10, 1 << table.n)
    segments = np.searchsorted(bounds, blocks[2], side="right") - 1
    assert np.unique(segments).size == blocks[2].size == min(SCATTERED, np.count_nonzero(np.diff(bounds)))
    if name in ("random20", "bent24"):  # no two adjacent: a lot of 64 rows spans several tiles
        assert np.diff(np.sort(segments)).min() > 1
    for keys, reference in zip(blocks, references):
        monkeypatch.setattr(bvsim, "_blocks", lambda bits, m, seed, block: (seed, iter([keys.copy()])))
        assert np.array_equal(bv_sample(d, keys.size, seed=1).outcomes, reference)
        naive = tuple(int(((reference >> pos) & 1).sum()) for pos in range(table.n))
        assert _sampled_ones(table, keys.size, seed=1) == (naive, 1)


def _junta(n: int, relevant: tuple[int, ...], seed: int) -> Anf:
    """A random ANF on exactly ``relevant``: f depends on a variable iff its ANF holds it."""
    rng = make_generator(seed)
    monomials = [[r for r in relevant if rng.integers(2)] for _ in range(3 * len(relevant))]
    monomials += [[r] for r in relevant if not any(r in mono for mono in monomials)]
    return Anf(monomials, n)


# (n, the relevant variables): spread over the first table word and, where
# n allows, above bit 16; k = 1, k = n and k = 0 too
JUNTAS = {
    "n7": (7, (1, 3, 4, 7)),
    "n17": (17, (2, 5, 6, 9, 14, 17)),
    "n24": (24, (1, 3, 6, 8, 12, 17, 19, 22, 24)),
    "k1": (24, (20,)),
    "k=n": (7, tuple(range(1, 8))),
    "constant": (24, ()),
}


@pytest.mark.parametrize("name", JUNTAS)
def test_junta_counts_come_off_its_core(name):
    # The counting path locates shifted keys in the restriction g's
    # distribution; its counts must be those of f's own full distribution.
    n, relevant = JUNTAS[name]
    anf = _junta(n, relevant, seed=n)
    f = to_truth_table(anf)
    core, g = _core(f)
    assert core == relevant
    if 0 < len(relevant) < n:
        # g is f's ANF with variable R[j-1] renamed j
        rename = {r: j for j, r in enumerate(relevant, 1)}
        assert g == to_truth_table(Anf([[rename[v] for v in mono] for mono in anf.monomials], len(relevant)))
    else:
        assert g is f
    assert _core(f)[1] is g  # cached on f
    d = bv_distribution(walsh_spectrum(to_truth_table(anf)))  # f's own spectrum, on a fresh table
    for seed in range(3):
        for m in (1, 1000):
            assert _sampled_ones(f, m, seed) == (bv_sample(d, m, seed).ones_counts(), seed), (m, seed)
    if name == "n17":  # three key blocks, the last one partial
        assert _sampled_ones(f, PAST_TWO_BLOCKS, 3) == (bv_sample(d, PAST_TWO_BLOCKS, 3).ones_counts(), 3)
    assert f._spectrum is None or g is f  # f itself is never transformed on a junta


def test_a_table_on_every_variable_keeps_the_full_path():
    # k = n: the relevance test reads the first partner words only, holds
    # nothing table-sized, and g is f itself
    f = random_function(20, seed=4)
    tracemalloc.start()
    try:
        core, g = _core(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert core == tuple(range(1, 21)) and g is f
    assert peak < 1 << 14, peak


def test_influence_and_verify_never_read_the_core(monkeypatch):
    # both check or report f's own spectrum, so neither rests on the identity the core uses
    def refuse(f):
        raise AssertionError("the core was read")

    monkeypatch.setattr(bvsim, "_core", refuse)
    for command in ("influence", "verify"):
        out, err = io.StringIO(), io.StringIO()
        assert run([command, "--anf", "x1 + x2*x9", "--n", "9"], out=out, err=err) == 0, err.getvalue()


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


@pytest.mark.parametrize(
    "call",
    [
        lambda: SampleBatch(2, [1, 3], seed=0),
        lambda: SampleBatch(2, np.array([1, 3]), 0),
        lambda: SampleBatch(3, 5, seed=0),
        lambda: bv_sample(3, 10),
    ],
    ids=["list", "array", "int", "bv_sample"],
)
def test_a_batch_is_drawn_never_handed_its_outcomes(call):
    # the one constructor draws from a distribution: outcomes handed in, or
    # a variable count in its place, are refused before anything is built
    with pytest.raises(TypeError, match=r"^need a BvDistribution, got int$"):
        call()


def test_arrays_handed_to_results_are_not_shared():
    d = bv_distribution_of(AND2)
    batch = bv_sample(d, 3, seed=1)
    kept = batch.outcomes.tolist()
    d.spectrum.squares()[0] = 0
    assert d.spectrum.squares().tolist() == [4, 4, 4, 4]
    assert [d.prob(y) for y in range(4)] == [Fraction(1, 4)] * 4
    with pytest.raises(ValueError):
        batch.outcomes[0] = 0
    with pytest.raises(ValueError):
        d.cumulative()[0] = 0
    assert batch.outcomes.tolist() == kept
    assert batch.ones_counts() == tuple(sum(y >> pos & 1 for y in kept) for pos in range(2))


def test_distribution_cached_on_the_table():
    # a distribution is a view: each call builds a new one over the same
    # cached spectrum and per-tile sums, so nothing is computed twice
    t = random_function(6, seed=8)
    d = bv_distribution_of(t)
    for other in (bv_distribution_of(t), bv_distribution(walsh_spectrum(t))):
        assert other.spectrum is d.spectrum is walsh_spectrum(t)
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
