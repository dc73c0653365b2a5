import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bvinfluence import (
    MAX_VARIABLES,
    Anf,
    AnfSyntaxError,
    TruthTable,
    algorithm1,
    bv_distribution_of,
    from_anf,
    random_function,
    to_truth_table,
)
from bvinfluence.rng import make_generator


def test_enc_is_lsb_first():
    # x_1 occupies the least significant bit of the table index
    assert to_truth_table(from_anf("x1", 3)).bits.tolist() == [0, 1, 0, 1, 0, 1, 0, 1]
    assert to_truth_table(from_anf("x2", 3)).bits.tolist() == [0, 0, 1, 1, 0, 0, 1, 1]
    assert to_truth_table(from_anf("x3", 3)).bits.tolist() == [0, 0, 0, 0, 1, 1, 1, 1]
    assert np.flatnonzero(to_truth_table(from_anf("x1*x2*x3", 3)).bits).tolist() == [7]


def test_from_anf_single_monomial():
    f = from_anf("x1*x2", 2)
    assert f.monomials == frozenset({frozenset({1, 2})})


def test_from_anf_mixed_terms():
    f = from_anf("x1 + x2*x3", 3)
    assert f.monomials == frozenset({frozenset({1}), frozenset({2, 3})})
    # an Anf is immutable and hashes by value, so term order does not matter
    for name in ("n", "monomials", "other"):
        with pytest.raises(AttributeError, match="^Anf is immutable$"):
            setattr(f, name, None)
    assert {f, from_anf("x3*x2 + x1", 3)} == {f} and f != from_anf("x1 + x2*x3", 4)


def test_from_anf_self_cancellation():
    f = from_anf("x1 + x1", 1)
    assert f.monomials == frozenset()


def test_from_anf_constant_and_whitespace():
    assert from_anf("1", 2).monomials == frozenset({frozenset()})
    assert from_anf("  x1 *x2+ 1 ", 2).monomials == frozenset({frozenset({1, 2}), frozenset()})
    # duplicate factor inside one term is just the same variable
    assert from_anf("x1*x1", 1).monomials == frozenset({frozenset({1})})


def test_from_anf_errors_carry_position():
    # (text, n, message, 0-based offset of the offending token); a bad
    # character is found before any grammar error, and a grammar error or an
    # out-of-range variable is reported at the first token that has it
    cases = [
        ("y1", 2, "unexpected character 'y'", 0),
        ("x1 + x2 -", 2, "unexpected character '-'", 8),
        ("+ y", 2, "unexpected character 'y'", 2),
        ("x² + x1", 2, "unexpected character 'x'", 0),
        ("", 2, "empty expression", 0),
        (" \t\n", 2, "empty expression", 0),
        ("x1 +* x2", 2, "expected a term, found '*'", 4),
        ("+ x1", 2, "expected a term, found '+'", 0),
        ("x1 * 1", 2, "expected variable after '*'", 5),
        ("x1*+x2", 2, "expected variable after '*'", 3),
        ("x1 x2", 2, "expected '+', found 'var'", 3),
        ("1 * x1", 2, "expected '+', found '*'", 2),
        ("10", 2, "expected '+', found '0'", 1),
        ("x1 + ", 2, "dangling '+'", 3),
        ("x1 *  ", 2, "dangling '*'", 3),
        ("x3", 2, "variable x3 out of range for n=2", 0),
        ("x1 + x2*x0", 2, "variable x0 out of range for n=2", 8),
        ("x03", 2, "variable x3 out of range for n=2", 0),
        ("x9 +", 2, "variable x9 out of range for n=2", 0),
        ("x1 + x١", 2, "unexpected character 'x'", 5),  # variable numbers are ASCII digits
        ("x" + "9" * 5000, 24, f"variable x{'9' * 5000} out of range for n=24", 0),
        ("x" + "0" * 5000, 24, "variable x0 out of range for n=24", 0),
    ]
    for text, n, message, position in cases:
        with pytest.raises(AnfSyntaxError) as exc:
            from_anf(text, n)
        assert (str(exc.value), exc.value.position) == (f"{message} (at position {position})", position), text
    assert issubclass(AnfSyntaxError, ValueError)  # the CLI reports it with exit code 2
    # leading zeros are read, however many
    assert from_anf("x" + "0" * 5000 + "24", 24) == Anf([[24]], 24)


def test_to_truth_table_examples():
    assert to_truth_table(from_anf("x1*x2", 2)).bits.tolist() == [0, 0, 0, 1]
    assert to_truth_table(Anf([], 2)).bits.tolist() == [0, 0, 0, 0]
    assert to_truth_table(from_anf("x1 + x2", 2)).bits.tolist() == [0, 1, 1, 0]
    assert to_truth_table(from_anf("1", 2)).bits.tolist() == [1, 1, 1, 1]


def test_truth_table_validation():
    with pytest.raises(ValueError):
        TruthTable(2, [0, 1, 0])  # wrong length
    with pytest.raises(ValueError):
        TruthTable(0, [])
    with pytest.raises(ValueError):
        TruthTable(MAX_VARIABLES + 1, np.zeros(2 ** (MAX_VARIABLES + 1), dtype=np.uint8))
    with pytest.raises(ValueError):
        TruthTable(1, [0, 2])
    # rejected on the input's own dtype, before any cast could wrap or truncate
    for bad in (np.array([0, 256]), np.array([0, -1]), np.array([0.0, 0.7]), [1, 0.7]):
        with pytest.raises(ValueError):
            TruthTable(1, bad)
    t = TruthTable(2, np.array([False, True, True, False]))
    assert t.bits.dtype == np.uint8
    assert t.bits.tolist() == [0, 1, 1, 0]
    assert TruthTable(1, [0.0, 1.0]).bits.tolist() == [0, 1]


def test_truth_table_immutable():
    t = to_truth_table(from_anf("x1", 1))
    with pytest.raises(AttributeError):
        t.n = 3
    with pytest.raises(ValueError):
        t.bits[0] = 1
    # the table's own storage is the packed bytes, read-only from every route
    for table in (t, TruthTable(4, [0, 1] * 8), random_function(4, seed=3)):
        with pytest.raises(ValueError):
            table.packed[0] = 1


def test_truth_table_spectrum_cache_is_invisible():
    # equality, immutability and repr ignore the lazily filled spectrum and
    # core slots; x4 is irrelevant, so the core holds a 3-variable table
    warm = to_truth_table(from_anf("x1 + x2*x3", 4))
    cold = to_truth_table(from_anf("x1 + x2*x3", 4))
    before = repr(warm)
    bv_distribution_of(warm)
    algorithm1(warm, 10, seed=0)
    assert warm._spectrum is not None and warm._core[1].n == 3
    assert warm == cold and cold == warm
    assert repr(warm) == repr(cold) == before
    for name in ("n", "bits", "_spectrum", "_core", "other"):
        with pytest.raises(AttributeError):
            setattr(warm, name, None)
    with pytest.raises(ValueError):
        warm.bits[0] = 1
    with pytest.raises(ValueError):
        warm.packed[0] = 1
    assert warm != to_truth_table(from_anf("x1", 4))


def test_random_function_deterministic():
    a = random_function(6, seed=99)
    b = random_function(6, seed=99)
    assert np.array_equal(a.bits, b.bits)
    c = random_function(6, seed=100)
    assert not np.array_equal(a.bits, c.bits)


def test_random_function_shape():
    assert random_function(10, seed=0).bits.size == 1024


@pytest.mark.parametrize("n", [1, 2, 3, 8, 20])
def test_random_function_matches_integers(n):
    # the bits are read off raw bytes; they must be numpy's bounded uint8
    # draws, or every seeded random table (and golden) would move
    for seed in (0, 5):
        expected = make_generator(seed).integers(0, 2, 1 << n, dtype=np.uint8)
        bits = random_function(n, seed=seed).bits
        assert bits.dtype == np.uint8
        assert np.array_equal(bits, expected)


def test_random_function_mean_ones_fraction():
    # each output bit is an independent fair coin; averaged over
    # 100 seeds x 1024 bits the ones-fraction concentrates hard
    fracs = [random_function(10, seed=s).bits.mean() for s in range(100)]
    assert abs(np.mean(fracs) - 0.5) < 0.05


@st.composite
def anf_instances(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    monos = draw(
        st.sets(
            st.frozensets(st.integers(min_value=1, max_value=n), max_size=n),
            max_size=6,
        )
    )
    return Anf(monos, n)


def _anf_value(f: Anf, x: int) -> int:
    """Direct ANF evaluation at encoded input x: XOR over monomials of the AND of their bits."""
    acc = 0
    for mono in f.monomials:
        acc ^= all((x >> (k - 1)) & 1 for k in mono)
    return int(acc)


@given(anf_instances())
@example(Anf([[]], 5))  # the constant term 1
@example(Anf([], 5))  # the empty ANF 0
@example(Anf([[5]], 5))  # a monomial on x_n, the slowest axis of the subcube view
@example(Anf([[], [1, 5], [2, 3, 4], [1, 2, 3, 4, 5]], 5))
@settings(max_examples=60, deadline=None)
def test_table_agrees_with_direct_anf_evaluation(f):
    bits = to_truth_table(f).bits
    for v in range(1 << f.n):
        assert bits[v] == _anf_value(f, v), f"mismatch at input {v} of {f.to_text()}"


def test_bits_unpack_the_packed_bytes_in_enc_order():
    # bit b of packed byte j is f at enc 8j + b; bits is one uint8 per
    # entry in enc order, unpacked afresh and read-only on every access
    f = from_anf("1 + x1 + x2*x5 + x3*x4*x7", 7)
    t = to_truth_table(f)
    want = [_anf_value(f, x) for x in range(1 << 7)]
    assert t.packed.dtype == np.uint8 and not t.packed.flags.writeable
    assert t.packed.tolist() == [sum(want[8 * j + b] << b for b in range(8)) for j in range(16)]
    bits = t.bits
    assert bits.dtype == np.uint8 and bits.tolist() == want
    assert not bits.flags.writeable and t.bits is not bits
    assert TruthTable(7, bits) == t


def test_tabulation_holds_one_bit_per_entry():
    # The packed table is 1/8 byte per entry, built without an unpacked
    # uint8 table (1 byte per entry) or a raw byte per entry.
    size = 1 << 20
    planted = from_anf("x1 + x2*x3 + x4*x5*x6 + x7*x8*x9*x10 + x11*x20 + 1", 20)
    for name, job in (("to_truth_table", lambda: to_truth_table(planted)),
                      ("random_function", lambda: random_function(20, seed=7))):
        tracemalloc.start()
        try:
            job()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.3 * size, f"{name}: peak {peak / size:.3f} bytes per entry"


@given(anf_instances())
@settings(max_examples=60, deadline=None)
def test_parser_idempotent_on_canonical_text(f):
    assert from_anf(f.to_text(), f.n) == f


def test_canonical_text_examples():
    assert from_anf("x2*x3 + x1", 3).to_text() == "x1 + x2*x3"
    assert Anf([], 2).to_text() == "0"
    assert from_anf("0", 3).to_text() == "0"
    assert from_anf("1 + x2", 2).to_text() == "1 + x2"
