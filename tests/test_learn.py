import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bvinfluence import (
    DEFAULT_EPSILON,
    TermClass,
    algorithm2,
    algorithm3,
    bv_distribution_of,
    bv_sample,
    cubic_window,
    from_anf,
    lemma1_influence,
    quadratic_window,
    to_truth_table,
)
from bvinfluence import cli

MIXED6 = to_truth_table(from_anf("x1 + x2*x3", 6))
MIXED_QC = to_truth_table(from_anf("x1 + x2*x3 + x4*x5*x6", 8))


def test_lemma1_closed_form():
    assert lemma1_influence(1) == 1
    assert lemma1_influence(2) == Fraction(1, 2)
    assert lemma1_influence(3) == Fraction(1, 4)
    assert lemma1_influence(6) == Fraction(1, 32)
    with pytest.raises(ValueError):
        lemma1_influence(0)


def test_algorithm2_mixed_function():
    report = algorithm2(MIXED6, rho=20, seed=71)
    assert report.label_of(1) is TermClass.LINEAR
    assert report.label_of(2) is TermClass.QUADRATIC
    assert report.label_of(3) is TermClass.QUADRATIC
    for i in (4, 5, 6):
        assert report.label_of(i) is TermClass.ABSENT
    assert report.algorithm == "linear-quadratic"
    assert report.trials == 20
    # variable 0 used to read classes[-1], variable n's label, and n + 1
    # failed with a bare IndexError
    for i in (0, 7):
        with pytest.raises(ValueError, match=r"variable index must be in 1\.\.6"):
            report.label_of(i)


def test_algorithm2_linear_and_absent_are_certain():
    # influence-1 and influence-0 columns are deterministic, so these
    # labels hold for every seed
    f = to_truth_table(from_anf("x2", 3))
    for seed in range(25):
        report = algorithm2(f, rho=5, seed=seed)
        assert report.label_of(2) is TermClass.LINEAR
        assert report.label_of(1) is TermClass.ABSENT
        assert report.label_of(3) is TermClass.ABSENT


def test_algorithm2_error_budget_values():
    report = algorithm2(MIXED6, rho=10, seed=0)
    assert report.error_budget["quadratic_read_as_linear"] == pytest.approx(2**-10)
    assert report.error_budget["quadratic_misread_total"] == pytest.approx(2**-9)


def test_algorithm2_observed_frequencies_are_exact():
    report = algorithm2(MIXED6, rho=16, seed=5)
    ones = bv_sample(bv_distribution_of(MIXED6), 16, seed=5).ones_counts()
    for vc in report.classes:
        assert vc.observed == Fraction(ones[vc.index - 1], 16)


def test_algorithm2_determinism():
    a = algorithm2(MIXED6, rho=12, seed=99)
    b = algorithm2(MIXED6, rho=12, seed=99)
    assert a == b
    assert a.classes == b.classes


def test_algorithm2_rejects_small_rho():
    with pytest.raises(ValueError, match=r"^repetition count rho must be >= 2, got 1$"):
        algorithm2(MIXED6, rho=1, seed=0)


def test_algorithm2_misread_rate_x1x2():
    # the mixed column of x1*x2 flips a fair coin each run; over 10^5
    # seeded runs the all-equal misread rate stays within the 2^(1-rho)
    # budget plus 3 sigma of binomial noise
    f = to_truth_table(from_anf("x1*x2", 2))
    rho, runs = 10, 100_000
    budget = 2.0 ** (1 - rho)
    bad = 0
    for seed in range(runs):
        if algorithm2(f, rho=rho, seed=seed).label_of(1) is not TermClass.QUADRATIC:
            bad += 1
    slack = 3 * math.sqrt(budget * (1 - budget) / runs)
    assert bad / runs <= budget + slack, f"misread rate {bad / runs}"


def test_algorithm3_mixed_function():
    report = algorithm3(MIXED_QC, lam=2000, epsilon=Fraction(1, 10), seed=2024)
    want = [TermClass.LINEAR] + [TermClass.QUADRATIC] * 2 + [TermClass.CUBIC] * 3 + [TermClass.ABSENT] * 2
    assert [report.label_of(i) for i in range(1, 9)] == want
    assert report.algorithm == "linear-quadratic-cubic"


def test_algorithm3_constant_all_absent():
    const = to_truth_table(from_anf("1", 5))
    report = algorithm3(const, lam=50, epsilon=Fraction(1, 10), seed=8)
    assert all(vc.label is TermClass.ABSENT for vc in report.classes)


def test_algorithm3_degree4_lands_unclassified():
    # a degree-4 variable sits at influence 1/8, outside both windows
    quartic = to_truth_table(from_anf("x1*x2*x3*x4", 6))
    report = algorithm3(quartic, lam=2000, epsilon=Fraction(1, 10), seed=301)
    for i in (1, 2, 3, 4):
        assert report.label_of(i) is TermClass.UNCLASSIFIED
    for i in (5, 6):
        assert report.label_of(i) is TermClass.ABSENT


def test_algorithm3_windows_recorded():
    report = algorithm3(MIXED_QC, lam=400, epsilon=Fraction(1, 10), seed=4)
    assert report.classes[1].window == (Fraction(2, 5), Fraction(3, 5))
    assert report.classes[3].window == (Fraction(3, 20), Fraction(7, 20))
    assert report.classes[0].window is None


def test_algorithm3_parameter_validation():
    with pytest.raises(ValueError, match=r"^repetition count lam must be >= 4, got 3$"):
        algorithm3(MIXED_QC, lam=3, epsilon=Fraction(1, 10), seed=0)
    for eps in (0, Fraction(1, 8), Fraction(1, 5), Fraction(-1, 100)):
        with pytest.raises(ValueError, match=rf"^window half-width epsilon must be in \(0, 1/8\), got {eps}$"):
            algorithm3(MIXED_QC, lam=100, epsilon=eps, seed=0)


def test_window_half_width_refuses_floats():
    # Fraction(0.1) is 3602879701896397/36028797018963968, not 1/10: a float
    # epsilon, a numpy one included, is refused by name, as a float seed is
    t = to_truth_table(from_anf("x1 + x2*x3", 4))
    for call in (lambda e: algorithm3(t, 50, e, 3), quadratic_window, cubic_window):
        for eps in (0.1, np.float64(0.1), np.float32(0.1), 0.0625, math.nan):
            with pytest.raises(TypeError, match=r"^window half-width epsilon must be a Fraction, not a float, got "):
                call(eps)
    assert algorithm3(t, 50, Fraction(1, 10), 3).epsilon == Fraction(1, 10)
    assert quadratic_window(Fraction(1, 16)) == (Fraction(7, 16), Fraction(9, 16))
    assert cubic_window(Fraction(1, 16)) == (Fraction(3, 16), Fraction(5, 16))


def test_algorithm3_determinism():
    a = algorithm3(MIXED_QC, lam=200, epsilon=Fraction(1, 20), seed=17)
    b = algorithm3(MIXED_QC, lam=200, epsilon=Fraction(1, 20), seed=17)
    assert a == b


def test_algorithm3_error_budget():
    report = algorithm3(MIXED_QC, lam=2000, epsilon=Fraction(1, 10), seed=0)
    expected = 2 * math.exp(-2 * 2000 * 0.1**2)
    assert report.error_budget["quadratic_window_miss"] == pytest.approx(expected, rel=1e-6)
    assert report.error_budget["cubic_window_miss"] == pytest.approx(expected, rel=1e-6)
    assert "linear_false_positive_inherited" in report.error_budget


def test_assumed_model_is_flagged():
    assert "assumed, not checked" in algorithm2(MIXED6, rho=4, seed=1).assumed_model
    assert "assumed, not checked" in algorithm3(MIXED_QC, lam=50, seed=1).assumed_model


def test_window_values_at_default_epsilon():
    assert quadratic_window(Fraction(1, 10)) == (Fraction(2, 5), Fraction(3, 5))
    assert cubic_window(Fraction(1, 10)) == (Fraction(3, 20), Fraction(7, 20))
    # The default is exactly 1/10 in the library and in the CLI. As the float
    # 0.1 it was slightly above 1/10, and with lam=2000 a one-count of 1200
    # landed in the library's quadratic window but in none of the CLI's.
    assert algorithm3(MIXED6, lam=50, seed=1).epsilon == Fraction(1, 10)
    args = cli.build_parser().parse_args(["learn3", "--random", "4:1"])
    assert args.epsilon == DEFAULT_EPSILON


@given(st.fractions(min_value=Fraction(1, 10**6), max_value=Fraction(1, 8)))
@settings(max_examples=80)
def test_windows_disjoint_for_admissible_epsilon(eps):
    if eps == Fraction(1, 8):
        return  # boundary excluded by the precondition
    q_lo, q_hi = quadratic_window(eps)
    c_lo, c_hi = cubic_window(eps)
    assert c_hi <= q_lo, "windows must not overlap"
    assert c_lo > 0 and q_hi < 1, "neither window may touch 0 or 1"
