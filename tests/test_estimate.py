import math
from fractions import Fraction

import numpy as np
import pytest

from bvinfluence import (
    DEFAULT_SAMPLES,
    BlackBoxOracle,
    algorithm1,
    algorithm2,
    algorithm3,
    bv_distribution_of,
    classical_estimate,
    evaluate,
    from_anf,
    hoeffding_failure_bound,
    hoeffding_radius,
    influence_vector,
    influential_list,
    random_function,
    samples_needed,
    to_truth_table,
    verify_identities,
    walsh_spectrum,
)
from conftest import lift

AND2 = to_truth_table(from_anf("x1*x2", 2))


def test_algorithm1_linear_exact():
    f = to_truth_table(from_anf("x1 + x3", 3))
    for seed in (1, 2, 3):
        report = algorithm1(f, 40, seed)
        assert report.p == (Fraction(1), Fraction(0), Fraction(1))


def test_algorithm1_constant_all_zero():
    const = to_truth_table(from_anf("1", 4))
    report = algorithm1(const, 25, seed=9)
    assert report.p == (Fraction(0),) * 4
    assert report.total == 0


def test_algorithm1_and2_concentration():
    # both influences are exactly 1/2; at m=10^4 the failure probability
    # for a 0.05 window is 2e^-50
    report = algorithm1(AND2, 10_000, seed=31)
    for p in report.p:
        assert abs(float(p) - 0.5) < 0.05


def test_algorithm1_bookkeeping():
    f = random_function(6, seed=12)
    report = algorithm1(f, 500, seed=13)
    cols = report.batch.ones_counts()
    assert report.ones == cols
    assert report.p == tuple(Fraction(l, 500) for l in cols)
    assert report.total == Fraction(sum(cols), 500)
    assert report.oracle_calls == 500
    assert all(0 <= p <= 1 for p in report.p)


def test_algorithm1_reproducible():
    f = random_function(5, seed=40)
    assert algorithm1(f, 200, seed=8) == algorithm1(f, 200, seed=8)
    run = algorithm1(f, 200)  # entropy seed, recorded in the report
    assert algorithm1(f, 200, seed=run.seed) == run


def test_hoeffding_failure_bound_value():
    # 2e^-2 at m=100, eps=0.1
    assert hoeffding_failure_bound(100, 0.1) == pytest.approx(2 * math.exp(-2), rel=1e-12)


def test_hoeffding_radius_limit():
    # delta -> 1 leaves sqrt(ln 2 / 2m)
    m = 400
    assert hoeffding_radius(m, 1 - 1e-12) == pytest.approx(math.sqrt(math.log(2) / (2 * m)), rel=1e-6)


def test_samples_needed_values():
    assert samples_needed(0.05, 1e-6) == 2902
    assert DEFAULT_SAMPLES == samples_needed(0.05, 0.01) == 1060
    # plugging the count back in gets the radius under the target
    assert hoeffding_radius(samples_needed(0.03, 0.05), 0.05) <= 0.03


def test_hoeffding_domain_errors():
    for delta in (0.0, 1.0, -0.2, 2.0):
        with pytest.raises(ValueError):
            hoeffding_radius(100, delta)
    with pytest.raises(ValueError):
        hoeffding_radius(0, 0.5)
    with pytest.raises(ValueError):
        samples_needed(0.0, 0.5)
    with pytest.raises(ValueError):
        hoeffding_failure_bound(100, -0.1)


def test_epsilon_at_matches_radius():
    report = algorithm1(AND2, 250, seed=1)
    assert report.epsilon_at(0.99) == pytest.approx(hoeffding_radius(250, 0.01))


def test_influential_list_linear_support_always():
    f = to_truth_table(from_anf("x1 + x4", 4))
    for seed in range(20):
        listing = influential_list(f, 30, seed=seed)
        assert listing.variables == (1, 4)


def test_influential_list_soundness_absolute():
    # variables outside the function's support can never be listed
    inner = random_function(4, seed=3)
    t = lift(inner, 9, shift=2)  # live variables are 3..6
    for seed in range(50):
        listing = influential_list(t, 100, seed=seed)
        assert set(listing.variables) <= {3, 4, 5, 6}


def test_influential_list_guarantee_fields():
    listing = influential_list(AND2, 64, seed=0, c=16.0)
    assert listing.guarantee == pytest.approx(1 - math.exp(-16))
    assert listing.threshold_influence == pytest.approx(0.25)
    listing = influential_list(AND2, 100, seed=0)  # default c=3
    assert listing.c == 3.0
    assert listing.guarantee == pytest.approx(0.95021, abs=1e-5)


def test_influential_list_validates_c():
    for c in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            influential_list(AND2, 10, seed=0, c=c)


def test_classical_constant_zero():
    const = to_truth_table(from_anf("0", 3))
    for seed in (5, 6):
        assert classical_estimate(const, 2, 1000, seed=seed).q == 0


def test_classical_and2_concentration():
    est = classical_estimate(AND2, 1, 10_000, seed=17)
    assert abs(float(est.q) - 0.5) < 0.05
    assert est.oracle_calls == 20_000


def test_classical_index_validation():
    with pytest.raises(ValueError):
        classical_estimate(AND2, 3, 100, seed=0)
    with pytest.raises(ValueError):
        classical_estimate(AND2, 1, 0, seed=0)


def test_classical_and_sampling_paths_converge():
    m = 100_000
    f = random_function(6, seed=202)
    exact = influence_vector(f)
    report = algorithm1(f, m, seed=55)
    for i in range(1, 7):
        q = classical_estimate(f, i, m, seed=400 + i).q
        assert abs(float(q) - float(report.p[i - 1])) < 0.02
        assert abs(float(q) - float(exact[i])) < 0.01


def test_black_box_oracle_classical_path():
    table = random_function(5, seed=71)
    black = BlackBoxOracle(lambda x: evaluate(table, x), 5)
    # same draws, same answer, whichever oracle form is used
    a = classical_estimate(table, 2, 2000, seed=90)
    b = classical_estimate(black, 2, 2000, seed=90)
    assert a.q == b.q


def test_black_box_oracle_cannot_sample():
    # the sampling path reads the spectrum, so it takes only a TruthTable
    entries = {
        "walsh_spectrum": walsh_spectrum,
        "influence_vector": influence_vector,
        "verify_identities": verify_identities,
        "bv_distribution_of": bv_distribution_of,
        "algorithm1": lambda f: algorithm1(f, 10, seed=0),
        "influential_list": lambda f: influential_list(f, 10, seed=0),
        "algorithm2": lambda f: algorithm2(f, seed=0),
        "algorithm3": lambda f: algorithm3(f, seed=0),
    }
    inputs = [BlackBoxOracle(lambda x: x & 1, 3), from_anf("x1*x2", 2), "x1*x2"]
    for name, entry in entries.items():
        for f in inputs:
            with pytest.raises(TypeError):
                entry(f)
                pytest.fail(f"{name} accepted {f!r}")


@pytest.mark.parametrize("output", [0.7, 2, 256, -1])
def test_black_box_oracle_rejects_non_bits(output):
    black = BlackBoxOracle(lambda x: output if x == 3 else x & 1, 3)
    with pytest.raises(ValueError):
        black.evaluate_many(np.arange(8))
    with pytest.raises(ValueError):
        classical_estimate(black, 1, 200, seed=0)
