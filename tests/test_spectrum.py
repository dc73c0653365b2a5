"""Spectral identities, checked in exact integer arithmetic.

Ground truth comes from the naive O(4^n) summation oracles in conftest;
the package's transform routes must agree with them bit for bit.
"""

import tracemalloc
from fractions import Fraction
from functools import partial

import numpy as np
import pytest

from bvinfluence import (
    InfluenceVector,
    TruthTable,
    WalshSpectrum,
    algorithm1,
    algorithm2,
    algorithm3,
    bv_distribution_of,
    correlation_fast,
    from_anf,
    fwht,
    influence_by_definition,
    influence_by_spectrum,
    influence_vector,
    influential_list,
    random_function,
    to_truth_table,
    verify_identities,
    walsh_spectrum,
)
from bvinfluence import spectrum
from bvinfluence.rng import make_generator
from conftest import BENT24, PARITY24, corpus, lift, naive_correlation, naive_walsh, parity_signs, strided_half_mass

AND2 = to_truth_table(from_anf("x1*x2", 2))
# majority of three bits, as ANF
MAJ3 = to_truth_table(from_anf("x1*x2 + x1*x3 + x2*x3", 3))


def test_fwht_matches_naive_summation():
    for t in corpus(40, ns=range(1, 9)):
        assert np.array_equal(walsh_spectrum(t).w, naive_walsh(t)), f"n={t.n}"
    # Past the transform's cache block: g(x_1..x_9) xor h(x_10..x_18) has
    # W(y) = W_g(y_1..y_9) * W_h(y_10..y_18), with both factors summed naively.
    g, h = corpus(2, ns=[9])
    t = TruthTable(18, (h.bits[:, None] ^ g.bits[None, :]).ravel())
    assert np.array_equal(walsh_spectrum(t).w, np.outer(naive_walsh(h), naive_walsh(g)).ravel())


def test_walsh_examples():
    const0 = to_truth_table(from_anf("0", 2))
    assert walsh_spectrum(const0).w.tolist() == [4, 0, 0, 0]
    linear11 = to_truth_table(from_anf("x1 + x2", 2))
    assert walsh_spectrum(linear11).w.tolist() == [0, 0, 0, 4]
    # worked by hand from the defining sum over the four inputs
    assert walsh_spectrum(AND2).w.tolist() == [2, 2, 2, -2]


def test_walsh_maj3_frozen():
    # hand calculation: mass 4 on the three unit vectors, -4 on 111
    assert walsh_spectrum(MAJ3).w.tolist() == [0, 4, 4, 0, 4, 0, 0, -4]


def test_spectrum_coefficient_bounds():
    for t in corpus(30, ns=range(1, 11)):
        w = walsh_spectrum(t).w
        assert int(np.abs(w).max()) <= 1 << t.n
        assert not np.any(w & 1), "coefficients must be even for n >= 1"


def test_parseval_exact():
    for t in corpus(60, ns=range(1, 11)):
        s = walsh_spectrum(t)
        assert s.square_sum() == 1 << (2 * t.n)


def test_spectral_influence_identity_exact():
    # the central identity, with zero tolerance, on 200 random functions
    for t in corpus(200, ns=range(1, 11)):
        s = walsh_spectrum(t)
        for i in range(1, t.n + 1):
            assert influence_by_definition(t, i) == influence_by_spectrum(s, i), (
                f"variable {i}, n={t.n}"
            )


def test_influence_by_definition_examples():
    assert influence_by_definition(AND2, 1) == Fraction(1, 2)
    const = to_truth_table(from_anf("1", 3))
    assert all(influence_by_definition(const, i) == 0 for i in (1, 2, 3))
    assert influence_by_definition(MAJ3, 1) == Fraction(1, 2)


def test_influence_by_spectrum_examples():
    assert influence_by_spectrum(walsh_spectrum(AND2), 1) == Fraction(1, 2)
    linear = to_truth_table(from_anf("x1 + x3", 3))
    s = walsh_spectrum(linear)
    assert influence_by_spectrum(s, 1) == 1
    assert influence_by_spectrum(s, 2) == 0
    const0 = to_truth_table(from_anf("0", 2))
    assert influence_by_spectrum(walsh_spectrum(const0), 1) == 0


def test_influence_vector_examples():
    f = to_truth_table(from_anf("x1 + x2*x3", 3))
    vec = influence_vector(f)
    assert vec.values == (Fraction(1), Fraction(1, 2), Fraction(1, 2))
    assert vec.total == Fraction(2)

    f = to_truth_table(from_anf("x1*x2*x3", 3))
    assert influence_vector(f).values == (Fraction(1, 4),) * 3

    const1 = to_truth_table(from_anf("1", 4))
    vec = influence_vector(const1)
    assert vec.values == (Fraction(0),) * 4
    assert vec.total == 0


def test_influence_vector_access():
    vec = influence_vector(AND2)
    assert vec[1] == Fraction(1, 2)  # 1-based, like the variables
    with pytest.raises(ValueError):
        vec[0]
    with pytest.raises(ValueError):
        vec[3]


def test_correlation_examples():
    c = correlation_fast(AND2)
    assert c[0] == 4  # gamma = 0 compares f with itself
    assert c[1] == 0  # |V_0| - |V_1| = 2 - 2 at the first unit vector
    assert np.array_equal(c, naive_correlation(AND2))
    const = to_truth_table(from_anf("1", 3))
    assert correlation_fast(const).tolist() == [8] * 8


def test_correlation_matches_naive_and_fast():
    for t in corpus(30, ns=range(1, 9)):
        assert np.array_equal(correlation_fast(t), naive_correlation(t)), f"n={t.n}"


def test_correlation_invariants():
    for t in corpus(12, ns=[3, 5, 7]):
        c = correlation_fast(t)
        assert np.array_equal(c, naive_correlation(t)), f"n={t.n}"
        assert c[0] == 1 << t.n
        assert int(np.abs(c).max()) <= 1 << t.n
        assert not np.any(c & 1)


def test_correlation_transform_link_exact():
    # the Walsh transform of the autocorrelation equals the squared
    # spectrum, integer for integer
    for t in corpus(40, ns=range(1, 9)):
        c = naive_correlation(t)
        w = walsh_spectrum(t).w
        assert np.array_equal(fwht(c), w * w), f"n={t.n}"
        assert np.array_equal(correlation_fast(t), c), f"n={t.n}"
        # verify's direct evaluation of C on packed words agrees everywhere
        size = 1 << t.n
        direct = spectrum._flip_counts_at(spectrum._packed(t), range(size))
        assert [size - 2 * d for d in direct] == c.tolist(), f"n={t.n}"
    # the transform route divides by 2^n only where the division is exact
    assert spectrum._divide_exactly(np.array([8, -4, 0, 12]), 2).tolist() == [2, -1, 0, 3]
    with pytest.raises(AssertionError, match="not exactly divisible by 2\\^n"):
        spectrum._divide_exactly(np.array([8, 6, 0, 4]), 2)


def test_correlation_at_unit_vectors_decomposition():
    # C(alpha^i) * 2^n = (sum over y_i=0 of W^2) - (sum over y_i=1 of W^2)
    for t in corpus(24, ns=range(1, 9)):
        s = walsh_spectrum(t)
        c = correlation_fast(t)
        assert np.array_equal(c, naive_correlation(t)), f"n={t.n}"
        total = s.square_sum()
        for i in range(1, t.n + 1):
            v1sum = s.ones_square_sum(i)
            v0sum = total - v1sum
            assert c[1 << (i - 1)] * (1 << t.n) == v0sum - v1sum, f"i={i}, n={t.n}"


def test_half_cube_mass_equals_flip_counts():
    # both halves of the squared spectrum recover the exact counts of
    # unchanged/changed inputs, and the fold's masses equal one strided
    # pass per variable
    for t in corpus(36, ns=range(1, 13)):
        s = walsh_spectrum(t)
        squares = s.squares()
        total = s.square_sum()
        assert total == int(squares.sum())
        for i in range(1, t.n + 1):
            v1 = influence_by_definition(t, i) * (1 << t.n)
            v1sum = s.ones_square_sum(i)
            assert v1sum == strided_half_mass(squares, i), f"i={i}, n={t.n}"
            assert Fraction(v1sum, 1 << (2 * t.n)) == Fraction(v1, 1 << t.n)
            assert Fraction(total - v1sum, 1 << (2 * t.n)) == Fraction((1 << t.n) - v1, 1 << t.n)


def test_packed_flip_counts_match_a_byte_pair_comparison():
    # n = 1..5 pad the table with zeros to one word; i = 6 is the last
    # in-word shift and i = 7 the first word-pair XOR
    for t in corpus(24, ns=range(1, 9)):
        words = spectrum._packed(t)
        assert words.dtype == np.dtype("<u8") and words.size == max(1, (1 << t.n) // 64)
        bits = t.bits
        for i in range(1, t.n + 1):
            changed = sum(bits[x] != bits[x ^ (1 << (i - 1))] for x in range(1 << t.n))
            assert spectrum._flip_count(words, i) == changed, f"i={i}, n={t.n}"
            assert influence_by_definition(t, i) * (1 << t.n) == changed


def test_batched_direct_correlation_matches_naive_summation():
    # every gamma at n = 1..13; at n=13 the 8192 gammas of 128 words each
    # go through in 16 chunks of _TILE words
    assert (1 << 13) * (1 << 13) // 64 == 16 * spectrum._TILE
    for n in range(1, 14):
        t = corpus(1, ns=[n], master_seed=n)[0]
        size = 1 << n
        direct = spectrum._flip_counts_at(spectrum._packed(t), range(size))
        assert [size - 2 * d for d in direct] == naive_correlation(t).tolist(), f"n={n}"


def test_direct_correlation_in_word_chunks_matches_the_transform_route():
    # at n=22 each gamma's 2^16 words go through in two chunks of _CHUNK words
    assert (1 << 22) // 64 == 2 * spectrum._CHUNK
    t = random_function(22, seed=6)
    gammas = [1, 63, 64, 1 << 15, 1 << 21, (1 << 22) - 1, *make_generator(6).integers(1, 1 << 22, 6).tolist()]
    direct = spectrum._flip_counts_at(spectrum._packed(t), gammas)
    assert [(1 << 22) - 2 * d for d in direct] == spectrum._correlation_at(walsh_spectrum(t), gammas).tolist()


@pytest.mark.parametrize("n", [15, 16, 17])
def test_tiled_masses_match_strided_sums(n):
    # below, at and above one _TILE of the spectrum
    t = random_function(n, n)
    s = walsh_spectrum(t)
    squares = s.squares()
    assert s.square_sum() == int(squares.sum()) == 1 << (2 * n)
    assert [s.ones_square_sum(i) for i in range(1, n + 1)] == [
        strided_half_mass(squares, i) for i in range(1, n + 1)
    ]


def test_fwht_self_inversion():
    for t in corpus(10, ns=range(1, 11)):
        signs = t.signs()
        assert np.array_equal(fwht(fwht(signs)), signs * (1 << t.n))


@pytest.mark.parametrize("anf", ["1", PARITY24], ids=["constant1", "parity24"])
def test_int32_transform_at_the_cap(anf):
    # |W| reaches 2^24 here: W(0) = -2^24 for the constant 1, and
    # W(1...1) = 2^24 for the full parity
    t = to_truth_table(from_anf(anf, 24))
    s = walsh_spectrum(t)
    w = s.w
    assert w.dtype == np.int32
    assert np.array_equal(w, fwht(t.signs()))
    peak = 0 if anf == "1" else (1 << 24) - 1
    assert w[peak] == (-1 if anf == "1" else 1) << 24
    assert np.count_nonzero(w) == 1
    # a square taken in int32 would wrap 2^48 to 0
    squares = s.squares()
    assert squares.dtype == np.int64
    assert squares[peak] == 1 << 48


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_hadamard_kernel_matches_naive_summation(dtype):
    # Every n from 1 to 20 crosses the 4-bit modes, the n mod 4 remainder,
    # the 2^16-entry tile and the column chunks of the second sweep. The
    # kernel is linear, and rank-one inputs a (x) b span every input, so
    # random ones test all of it: the transform of a (x) b is
    # (H a) (x) (H b), each factor summed naively. It runs in the float
    # view of an integer result of the same width, and yields each column
    # chunk of that result once it is cast back.
    rng = np.random.default_rng(8)
    for n in range(1, 21):
        high, low = (n + 1) // 2, n // 2
        a = rng.integers(-3, 4, 1 << high)
        b = rng.integers(-3, 4, 1 << low)
        values = np.outer(a, b).ravel()
        expected = np.outer(parity_signs(high) @ a, parity_signs(low) @ b).ravel()
        out = np.empty(values.size, f"i{np.dtype(dtype).itemsize}")
        chunks = [c.copy() for c in spectrum._hadamard(out, lambda tile, s, _: np.copyto(tile, values[s:s + tile.size]))]
        assert np.array_equal(out, expected), f"n={n}"
        rows, tile, width = spectrum._grid(out.size)
        assert np.array_equal(np.hstack(chunks).reshape(rows, tile), out.reshape(rows, tile)), f"n={n}"


@pytest.mark.parametrize("anf", ["1", PARITY24, BENT24], ids=["constant1", "parity24", "bent24"])
def test_correlation_transform_at_the_cap(anf):
    # Closed forms at n=24, where the squares reach 2^48 and their
    # transform 2^48 too: C = 2^24 everywhere for a constant,
    # 2^24 (-1)^|gamma| for the full parity, and 2^24 at gamma = 0 only
    # for the inner-product bent function.
    t = to_truth_table(from_anf(anf, 24))
    c = correlation_fast(t)
    assert c.dtype == np.int64
    if anf == "1":
        assert np.all(c == 1 << 24)
    elif anf == BENT24:
        assert c[0] == 1 << 24
        assert np.count_nonzero(c) == 1
    else:
        odd = np.bitwise_count(np.arange(1 << 24, dtype=np.int32)) & 1
        assert np.array_equal(c, np.where(odd, -(1 << 24), 1 << 24))


def test_transform_runs_once_per_table(monkeypatch):
    calls = []
    kernel = spectrum._hadamard

    def counted(out, load):
        calls.append((out.dtype, out.size))
        return kernel(out, load)

    monkeypatch.setattr(spectrum, "_hadamard", counted)
    t = random_function(9, seed=5)
    # influence_vector counts flips on the packed table: no transform, and
    # nothing cached on the table
    first = influence_vector(t)
    assert calls == [] and t._spectrum is None
    s = walsh_spectrum(t)
    assert walsh_spectrum(t) is s
    for seed in range(3):
        bv_distribution_of(t)
        algorithm1(t, 50, seed)
        influential_list(t, 50, seed)
        algorithm2(t, 5, seed)
        algorithm3(t, 50, Fraction(1, 10), seed)
    assert influence_vector(t) == first
    assert calls == [(np.int32, 512)]
    # verify reuses the cached spectrum and its running sums, and runs no
    # transform of its own: the autocorrelation check sums signed squares
    verify_identities(t)
    assert calls == [(np.int32, 512)]
    # a junta on 3 of 9 variables is sampled on its core: one transform of
    # the 8-entry restriction, cached with it on the table, and none of f
    calls.clear()
    junta = to_truth_table(from_anf("x1 + x2*x9", 9))
    for seed in range(3):
        algorithm1(junta, 50, seed)
        influential_list(junta, 50, seed)
        algorithm2(junta, 5, seed)
        algorithm3(junta, 50, Fraction(1, 10), seed)
    assert calls == [(np.int32, 8)]


def test_arrays_handed_to_results_are_not_shared():
    s = walsh_spectrum(AND2)
    assert s.w.tolist() == [2, 2, 2, -2]
    with pytest.raises(ValueError):
        s.w[0] = 0
    with pytest.raises(ValueError):
        correlation_fast(AND2)[0] = 0


def test_spectra_and_influence_vectors_come_only_from_a_table():
    # walsh_spectrum is the only way to build a spectrum, and an influence
    # vector is counted on a table: an (n, w) or (n, values) call, or a
    # spectrum, builds nothing
    with pytest.raises(TypeError):
        WalshSpectrum(2, [2, 2, 2, -2])
    with pytest.raises(TypeError):
        InfluenceVector(2, [Fraction(1, 2), Fraction(1, 2)])
    with pytest.raises(TypeError):
        InfluenceVector(walsh_spectrum(AND2))
    for t in (AND2, MAJ3, random_function(7, seed=3), random_function(17, seed=4), lift(MAJ3, 9, shift=2)):
        vec = InfluenceVector(t)
        assert vec == influence_vector(t)
        assert vec.values == tuple(influence_by_spectrum(walsh_spectrum(t), i) for i in range(1, t.n + 1))
        assert vec.total == sum(vec.values)
    # spectra compare by their coefficients, and with nothing but spectra
    assert walsh_spectrum(AND2) == walsh_spectrum(to_truth_table(from_anf("x1*x2", 2)))
    assert walsh_spectrum(AND2) != walsh_spectrum(to_truth_table(from_anf("x1 + x2", 2)))
    assert walsh_spectrum(AND2) != walsh_spectrum(MAJ3)
    assert walsh_spectrum(AND2).__eq__(AND2) is NotImplemented and walsh_spectrum(AND2) != AND2


FUSED_TABLES = {
    **{f"random{n}": partial(random_function, n, n) for n in (1, 3, 5, 12, 16, 17, 18, 21)},
    "parity24": lambda: to_truth_table(from_anf(PARITY24, 24)),
    "bent24": lambda: to_truth_table(from_anf(BENT24, 24)),
    "constant24": lambda: to_truth_table(from_anf("1", 24)),
}


@pytest.mark.parametrize("name", FUSED_TABLES)
def test_fused_masses_match_the_squares(name):
    # The transform's second sweep squares and sums each chunk on its way
    # out: its masses, total and running sums at every 2^10-entry boundary
    # from 0 (at 0 and 2^n below n = 10) must equal those of the squares.
    # The sizes cover one row (n <= 16), a last mode of fewer than 4 bits,
    # and at n=24 a single square of 2^48.
    t = FUSED_TABLES[name]()
    s = walsh_spectrum(t)
    squares = s.squares()
    ones, total = [strided_half_mass(squares, i) for i in range(1, t.n + 1)], int(squares.sum())
    segment_sums = np.cumsum(squares.reshape(-1, min(1 << 10, squares.size)).sum(axis=1))
    del squares
    assert total == 1 << (2 * t.n)
    assert [s.ones_square_sum(i) for i in range(1, t.n + 1)] == ones
    assert s.square_sum() == total
    assert s._segment_sums.dtype == np.int64
    assert s._segment_sums.size == (1 << max(0, t.n - 10)) + 1
    assert s._segment_sums[0] == 0 and np.array_equal(s._segment_sums[1:], segment_sums)


def test_exact_jobs_stay_within_their_memory_budget():
    # Traced bytes per table entry at n=20. The int32 spectrum is 4; beside
    # it every exact job holds only tile-sized buffers, so one 2^n int64
    # array (8), or a widened spectrum, exceeds 6. A warmed table keeps the
    # spectrum and its running sums per 2^10 entries: about 4.
    # influence_vector builds no spectrum: it counts flips on the 1/8-byte
    # packed table, one 2^15-word chunk of flips at a time.
    size = 1 << 20
    jobs = {
        "influence_vector": influence_vector,
        "verify_identities": verify_identities,
        "bv_distribution_of": bv_distribution_of,
        "algorithm1": lambda t: algorithm1(t, 1060, 1),
    }
    for name, job in jobs.items():
        t = random_function(20, 3)
        tracemalloc.start()
        try:
            job(t)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 6 * size, f"{name}: peak {peak / size:.1f} bytes per entry"
        if name == "influence_vector":
            assert peak <= 0.5 * size, f"{name}: peak {peak / size:.2f} bytes per entry"
        if name == "bv_distribution_of":
            assert retained <= 4.5 * size, f"{name}: retained {retained / size:.1f} bytes per entry"


def test_influence_vector_counts_flips_in_word_chunks():
    # one chunk of 2^15 words of differences and its popcounts at a time:
    # 0.51 MiB on a random n=24 table, against 2.25 MiB for one 2^17-word
    # difference array per variable (tracemalloc, numpy 2.4)
    t = random_function(24, 7)
    tracemalloc.start()
    try:
        influence_vector(t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.0 * 2**20, peak / 2**20


def test_verify_on_a_warm_table_holds_little_beyond_its_spectrum():
    # verify_identities with the spectrum cached: the flip counts and direct
    # correlations run over the packed words in chunks, and the transform
    # route at the checked gammas over tiles of squares, with y split at bit
    # ceil(n/2), and the gammas in chunks of 2^16 >> ceil(n/2). At n=12 it
    # checks all 4096 gammas, 1024 at a time, and the direct counts take 256
    # (1.49 MiB measured, set by the transform route; 4.8 MiB with two
    # 64 x 4096 float64 sign matrices and the per-row sums at once); at n=20
    # 0.65 MiB was measured, and 1.26 MiB with whole difference arrays per
    # variable. Before the chunked direct counts it peaked at 6.3 MiB at
    # n=24, and with the split fixed at bit 12, at 1.59 MiB at n=20.
    for n, bound in ((12, 1.75), (20, 1.0)):
        t = random_function(n, 5)
        walsh_spectrum(t)
        tracemalloc.start()
        try:
            verify_identities(t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * 2**20, f"n={n}: peak {peak / 2**20:.2f} MiB"


def test_transforms_cast_in_place():
    # The float transforms run in the float view of the integer result, and
    # cast back in place: one 2^n buffer plus a tile-sized temporary.
    size = 1 << 20
    t = random_function(20, 4)
    for job, width in ((walsh_spectrum, 4), (correlation_fast, 8)):
        tracemalloc.start()
        try:
            job(t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= (width + 0.75) * size, f"{job.__name__}: peak {peak / size:.2f} bytes per entry"


@pytest.mark.parametrize("n", [10, 13, 16])
def test_correlation_at_one_row_holds_two_arrays(n):
    # One row, n <= 16: the int64 result and sweep 1's float64 tile buffer,
    # 16 bytes per entry, then the result and one tile of remainders. 4 KiB
    # more covers the generator and the array views (about 1.6 KiB
    # measured); squaring the int32 spectrum with a casting np.square, and
    # .any() on the remainders, went through ufunc buffers: 24.8, 24.1 and
    # 17.0 bytes per entry at n = 10, 13 and 16.
    size = 1 << n
    t = random_function(n, 4)
    walsh_spectrum(t)
    tracemalloc.start()
    try:
        correlation_fast(t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * size + 4096, f"peak {peak / size:.2f} bytes per entry"


def test_spectrum_at_n16_is_no_larger_than_before_the_fused_sweep():
    # One row, n <= 16: sweep 1 holds the ping-pong tile buffer (4 bytes per
    # entry) beside the int32 spectrum (4), and sweep 2 only casts and
    # squares a quarter of the row at a time once that buffer is freed. The
    # transform of e49963d, which left the masses for later, peaked at 8.04
    # bytes per entry; the two-sweep transform with 2^15-entry chunk
    # buffers at 13.7.
    size = 1 << 16
    t = random_function(16, 4)
    tracemalloc.start()
    try:
        walsh_spectrum(t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8.05 * size, f"peak {peak / size:.3f} bytes per entry"


def test_fwht_input_validation():
    with pytest.raises(ValueError):
        fwht([1, -1, 1])  # not a power-of-two length
    # An int64 cast would read [0.5, 0] as [0, 0]; 2^62 + 2^62 wraps int64;
    # 2^64 fits no integer dtype.
    for values in ([0.5, 0], [2**62, 2**62], [2**64, 0]):
        with pytest.raises(ValueError):
            fwht(values)
    # max|v| * length = 2^53 is the exact float64 range's edge
    assert fwht([2**52, 2**52]).tolist() == [2**53, 0]
    assert fwht([-(2**52), 2**52]).tolist() == [0, -(2**53)]
    with pytest.raises(ValueError):
        fwht([2**52 + 1, 0])
    assert fwht(np.array([True, False])).tolist() == [1, 1]


def test_verify_identities_all_pass():
    for t in corpus(6, ns=[2, 5, 9, 13]):
        checks = verify_identities(t)
        assert {c["identity"] for c in checks} == {
            "influence_definition_equals_spectral",
            "parseval",
            "autocorrelation_transform",
        }
        assert all(c["passed"] for c in checks)


@pytest.mark.parametrize("n", [5, 12, 13, 16, 20])
def test_correlation_at_checked_gammas_matches_all_gammas(n):
    # verify's kernel splits y at bit ceil(n/2); gammas with only low, only
    # high or all bits set, and seeded ones, must read the all-gamma C
    t = random_function(n, seed=40 + n)
    size = 1 << n
    gammas = [0, size - 1, *(1 << b for b in range(n)), *(g << 12 for g in (1, 3, 5) if g << 12 < size)]
    gammas += np.random.default_rng(n).integers(0, size, 16).tolist()
    c = spectrum._correlation_at(walsh_spectrum(t), gammas)
    assert c.tolist() == correlation_fast(t)[gammas].tolist()
    assert c[0] == size


CORRELATION_TABLES = {
    **{f"random{n}": partial(random_function, n, 50 + n) for n in (*range(1, 15), 17, 20)},
    "junta14": lambda: to_truth_table(from_anf("x1 + x2*x7 + x3*x9*x14", 14)),
    "zero12": lambda: to_truth_table(from_anf("0", 12)),
    "one13": lambda: to_truth_table(from_anf("1", 13)),
}


@pytest.mark.parametrize("name", CORRELATION_TABLES)
def test_correlation_at_matches_the_full_transform(name):
    # verify's transform route at the gammas it checks reads C = FWHT(W^2) / 2^n
    # off the whole-array transform: at every gamma up to n = 12, and above it
    # at 0, the unit vectors, all-ones and 8 seeded gammas
    t = CORRELATION_TABLES[name]()
    size = 1 << t.n
    if t.n <= 12:
        gammas = list(range(size))
    else:
        gammas = [0, *(1 << b for b in range(t.n)), size - 1, *make_generator(t.n).integers(1, size, 8).tolist()]
    assert spectrum._correlation_at(walsh_spectrum(t), gammas).tolist() == correlation_fast(t)[gammas].tolist()


@pytest.mark.parametrize("name", CORRELATION_TABLES)
def test_correlation_at_unit_vectors_is_decided_by_the_masses(name):
    # 2^n C(e_i) = S - 2 M_i: with Parseval (S = 4^n) and check 1
    # (M_i = 2^n |V_1(i)|), the transform route at a unit vector adds no check
    t = CORRELATION_TABLES[name]()
    s = walsh_spectrum(t)
    units = [1 << b for b in range(t.n)]
    assert spectrum._correlation_at(s, units).tolist() == [
        (s.square_sum() - 2 * s.ones_square_sum(i)) >> t.n for i in range(1, t.n + 1)
    ]


def _fixed_gammas(n):
    """The 8 gammas verify adds to all-ones above n = 12: the top n bits of k * 0x9E3779B97F4A7C15 mod 2^64."""
    return [k * 0x9E3779B97F4A7C15 % (1 << 64) >> (64 - n) for k in range(1, 9)]


@pytest.mark.parametrize("n", range(13, 25))
def test_fixed_gammas_are_distinct_and_reach_both_halves_of_y(n):
    # none is 0, a unit vector or all-ones, and each has bits both below and
    # at or above bit ceil(n/2), where _correlation_at splits y
    half = (n + 1) // 2
    gammas = _fixed_gammas(n)
    assert len(set(gammas)) == 8
    for g in gammas:
        assert 0 < g < (1 << n) - 1 and g & (g - 1)
        assert g & ((1 << half) - 1) and g >> half


@pytest.mark.parametrize("n", [13, 17])
def test_verify_checks_all_ones_and_the_fixed_gammas_above_n12(monkeypatch, n):
    t = random_function(n, 8)
    real, seen = spectrum._correlation_at, []
    monkeypatch.setattr(spectrum, "_correlation_at", lambda s, gammas: seen.append(gammas) or real(s, gammas))
    checks = {c["identity"]: c for c in verify_identities(t)}
    assert seen == [sorted({(1 << n) - 1, *_fixed_gammas(n)})]
    assert checks["autocorrelation_transform"]["detail"] == "FWHT(W^2) / 2^n == C at 9 gammas evaluated directly from f"


def test_one_wrong_mass_above_n12_fails_check_1():
    # a wrong transform value at e_i would come with a wrong mass M_i, which
    # check 1 catches; the autocorrelation check no longer reads e_i
    t = random_function(13, 3)
    s = walsh_spectrum(t)
    s._ones = (*s._ones[:4], s._ones[4] + (1 << 14), *s._ones[5:])  # C(e_5) as S - 2 M_5 moves by -4
    checks = {c["identity"]: c for c in verify_identities(t)}
    assert checks["influence_definition_equals_spectral"] == {
        "identity": "influence_definition_equals_spectral", "passed": False, "detail": "mismatch at variables [5]",
    }
    assert checks["parseval"]["passed"] and checks["autocorrelation_transform"]["passed"]


def test_parseval_reads_the_samplers_running_sums():
    # verify's Parseval check is taken on the last running sum, the total
    # the sampler draws its keys against: raising it fails the check alone
    t = random_function(11, 3)
    walsh_spectrum(t)._segment_sums[-1] += 1
    checks = {c["identity"]: c for c in verify_identities(t)}
    assert checks["parseval"] == {
        "identity": "parseval", "passed": False, "detail": f"sum W^2 = {4**11 + 1}, 4^n = {4**11}",
    }
    assert checks["influence_definition_equals_spectral"]["passed"] and checks["autocorrelation_transform"]["passed"]


@pytest.mark.parametrize("n", [10, 12, 13])
def test_verify_transform_route_tests_the_function(monkeypatch, n):
    # C from another function's spectrum must not pass as f's, whether
    # verify checks every gamma (n <= 12) or the seeded set above
    t, other = corpus(2, ns=[n])
    real = spectrum.walsh_spectrum
    monkeypatch.setattr(spectrum, "walsh_spectrum", lambda f: real(other))
    checks = {c["identity"]: c for c in verify_identities(t)}
    assert checks["autocorrelation_transform"]["passed"] is False
    # a count and the first 8 failing gammas, however many fail
    assert len(checks["autocorrelation_transform"]["detail"]) <= 100


@pytest.mark.parametrize("n", [10, 13])
def test_verify_transform_route_fails_one_wrong_gamma(monkeypatch, n):
    # one transform-route entry off by 2 fails the check there: at e_5, whose
    # C is read off the flip counts, at n = 10; at all-ones at n = 13, where
    # the unit vectors are left to check 1 and Parseval
    t = corpus(1, ns=[n])[0]
    real = spectrum._correlation_at
    wrong = 1 << 4 if n == 10 else (1 << n) - 1

    def corrupted(s, gammas):
        c = real(s, gammas)
        c[np.asarray(gammas) == wrong] += 2
        return c

    monkeypatch.setattr(spectrum, "_correlation_at", corrupted)
    checks = {c["identity"]: c for c in verify_identities(t)}
    assert checks["autocorrelation_transform"]["passed"] is False
    assert checks["autocorrelation_transform"]["detail"] == (
        f"FWHT(W^2) / 2^n != C at 1 of {1024 if n == 10 else 9} gammas: [{wrong}]"
    )
    assert checks["parseval"]["passed"] and checks["influence_definition_equals_spectral"]["passed"]
