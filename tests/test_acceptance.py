"""Acceptance suite: the package's headline quantitative claims.

One test per criterion, each asserting its stated tolerance and runtime
budget and printing a single summary line (visible with ``pytest -s``;
``pytest -v`` prints one PASSED/FAILED line per criterion regardless).
All randomness is seeded, so every number below is reproducible.
"""

import io
import json
import math
import time
from fractions import Fraction

import numpy as np

from bvinfluence import (
    TermClass,
    algorithm1,
    algorithm2,
    algorithm3,
    bv_distribution_of,
    bv_sample,
    classical_estimate,
    correlation_fast,
    from_anf,
    fwht,
    influence_by_definition,
    influence_by_spectrum,
    influence_vector,
    influential_list,
    random_function,
    statevector_bv,
    to_truth_table,
    walsh_spectrum,
)
from bvinfluence.cli import run as cli_run
from conftest import corpus, lift, naive_correlation


def _pass(name, detail):
    print(f"PASS {name}: {detail}")


def test_criterion_01_spectral_identity_zero_tolerance():
    started = time.perf_counter()
    tables = corpus(500, ns=range(1, 11), master_seed=0xA001)
    checked = 0
    for t in tables:
        s = walsh_spectrum(t)
        for i in range(1, t.n + 1):
            assert influence_by_definition(t, i) == influence_by_spectrum(s, i), (
                f"mismatch at variable {i} of an n={t.n} function"
            )
            checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    _pass("criterion 1", f"{checked} influences on 500 functions matched exactly in {elapsed:.2f}s")


def test_criterion_02_squared_spectrum_total():
    tables = corpus(500, ns=range(1, 11), master_seed=0xA001)  # same corpus as criterion 1
    for t in tables:
        assert walsh_spectrum(t).square_sum() == 1 << (2 * t.n)
    _pass("criterion 2", "sum of squared coefficients equals 4^n on all 500 functions")


def test_criterion_03_correlation_transform_chain():
    started = time.perf_counter()
    tables = corpus(100, ns=range(1, 9), master_seed=0xA003)
    for t in tables:
        w = walsh_spectrum(t)
        c = naive_correlation(t)
        assert np.array_equal(correlation_fast(t), c), f"n={t.n}"
        # transform of the autocorrelation = squared spectrum, exactly
        assert np.array_equal(fwht(c), w.w * w.w), f"n={t.n}"
        # autocorrelation at the unit vectors = the two half-cube masses
        total = w.square_sum()
        for i in range(1, t.n + 1):
            v1sum = w.ones_square_sum(i)
            assert c[1 << (i - 1)] * (1 << t.n) == total - 2 * v1sum, f"i={i}, n={t.n}"
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    _pass("criterion 3", f"both identities exact on 100 functions in {elapsed:.2f}s")


def test_criterion_04_monomial_influences_closed_form():
    for r in range(1, 7):
        expr = "*".join(f"x{k}" for k in range(1, r + 1))
        vec = influence_vector(to_truth_table(from_anf(expr, 12)))
        expected = Fraction(1, 1 << (r - 1))
        for i in range(1, 13):
            want = expected if i <= r else Fraction(0)
            assert vec[i] == want, f"r={r}, variable {i}"
    _pass("criterion 4", "degree 1..6 monomials at n=12 give 2^(1-r) and 0 exactly")


def test_criterion_05_deterministic_outcome_columns():
    rng = np.random.Generator(np.random.PCG64(0xA005))
    # linear functions: every sample equals the coefficient vector
    for _ in range(50):
        a = int(rng.integers(0, 1 << 10))
        expr = " + ".join(f"x{i}" for i in range(1, 11) if (a >> (i - 1)) & 1) or "0"
        t = to_truth_table(from_anf(expr, 10))
        batch = bv_sample(bv_distribution_of(t), 10_000, seed=int(rng.integers(0, 2**63)))
        assert np.all(batch.outcomes == a), f"a={a:010b}"

    # dead variables: their bit never shows up in any sample
    for k in range(20):
        inner = random_function(6, seed=0xB005 + k)
        shift = k % 5
        t = lift(inner, 11, shift)
        dead = [i for i in range(1, 12) if not (shift < i <= shift + 6)]
        batch = bv_sample(bv_distribution_of(t), 100_000, seed=0xC005 + k)
        for i in dead:
            assert not np.any((batch.outcomes >> (i - 1)) & 1), f"function {k}, variable {i}"
    _pass("criterion 5", "50 linear functions always sample their vector; 20x10^5 draws never set a dead bit")


def test_criterion_06_statevector_amplitude_crosscheck():
    worst = 0.0
    for t in corpus(50, ns=range(1, 11), master_seed=0xA006):
        amps = statevector_bv(t)
        exact = walsh_spectrum(t).w / float(1 << t.n)
        worst = max(worst, float(np.max(np.abs(amps - exact))))
    assert worst < 1e-12, f"worst deviation {worst}"
    _pass("criterion 6", f"gate-level amplitudes match the spectrum; worst |diff| = {worst:.2e}")


def test_criterion_07_estimation_coverage():
    started = time.perf_counter()
    m, runs, radius = 500, 1000, Fraction(1, 10)
    worst_violations = 0
    for k in range(20):
        t = random_function(8, seed=0xA007 + k)
        exact = influence_vector(t)
        violations = [0] * 8
        for j in range(runs):
            report = algorithm1(t, m, seed=(k << 20) | j)
            for i in range(8):
                if abs(report.p[i] - exact.values[i]) >= radius:
                    violations[i] += 1
        # the tail bound leaves ~2e-10 per run; anything above a stray
        # handful of hits means the estimator is broken
        assert max(violations) <= 3, f"function {k}: violations {violations}"
        worst_violations = max(worst_violations, max(violations))
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0, f"took {elapsed:.1f}s"
    _pass(
        "criterion 7",
        f"20x{runs} runs at m={m}: worst per-variable violation count {worst_violations} (limit 3), {elapsed:.1f}s",
    )


def test_criterion_08_influential_list_coverage_and_soundness():
    t = to_truth_table(from_anf("x1*x2*x3", 8))
    m, c, trials = 64, 16.0, 1000
    hits = np.zeros(8, dtype=int)
    for j in range(trials):
        listing = influential_list(t, m, seed=0xA008 + j, c=c)
        for i in listing.variables:
            hits[i - 1] += 1
    for i in (1, 2, 3):  # influence 1/4 = c/m, so coverage >= 1 - e^-16
        assert hits[i - 1] / trials >= 0.999, f"variable {i}: {hits[i - 1]}/{trials}"
    for i in range(4, 9):  # zero influence: absolute soundness
        assert hits[i - 1] == 0, f"variable {i} was listed"
    _pass("criterion 8", f"in-support hit rates {hits[:3] / trials}; out-of-support never listed")


def test_criterion_09_two_class_error_budget():
    t = to_truth_table(from_anf("x1 + x2*x3", 6))
    rho, trials = 10, 100_000
    budget = 2.0 ** (1 - rho)
    linear_bad = 0
    quad_bad = [0, 0]
    for j in range(trials):
        report = algorithm2(t, rho=rho, seed=j)
        if report.label_of(1) is not TermClass.LINEAR:
            linear_bad += 1
        for slot, i in enumerate((2, 3)):
            if report.label_of(i) is not TermClass.QUADRATIC:
                quad_bad[slot] += 1
    assert linear_bad == 0, f"{linear_bad} misreads of the influence-1 variable"
    slack = 3 * math.sqrt(budget * (1 - budget) / trials)
    for slot, bad in enumerate(quad_bad):
        rate = bad / trials
        assert rate <= budget + slack, f"variable {slot + 2}: rate {rate} vs {budget + slack}"
    _pass(
        "criterion 9",
        f"linear misreads 0; quadratic misread rates {[b / trials for b in quad_bad]} "
        f"within {budget:.6f}+{slack:.6f}",
    )


def test_criterion_10_three_class_windows_and_out_of_model():
    t = to_truth_table(from_anf("x1 + x2*x3 + x4*x5*x6", 8))
    lam, eps, trials = 2000, Fraction(1, 10), 1000
    wanted = {
        1: TermClass.LINEAR,
        2: TermClass.QUADRATIC, 3: TermClass.QUADRATIC,
        4: TermClass.CUBIC, 5: TermClass.CUBIC, 6: TermClass.CUBIC,
        7: TermClass.ABSENT, 8: TermClass.ABSENT,
    }
    for j in range(trials):
        report = algorithm3(t, lam=lam, epsilon=eps, seed=0xA010 + j)
        for i, want in wanted.items():
            assert report.label_of(i) is want, f"trial {j}, variable {i}: {report.label_of(i)}"

    # out of model: a degree-4 variable (influence 1/8) falls outside
    # both windows; the proven floor for landing unclassified is
    # 1 - 2e^(-2*2000*0.025^2) ~ 0.836, the empirical target is 0.95
    quartic = to_truth_table(from_anf("x1*x2*x3*x4", 8))
    unclassified = np.zeros(4, dtype=int)
    for j in range(trials):
        report = algorithm3(quartic, lam=lam, epsilon=eps, seed=0xB010 + j)
        for i in range(1, 5):
            if report.label_of(i) is TermClass.UNCLASSIFIED:
                unclassified[i - 1] += 1
    floor = 1 - 2 * math.exp(-2 * lam * 0.025**2)
    for i in range(4):
        freq = unclassified[i] / trials
        assert freq >= floor, f"variable {i + 1}: {freq} below the proven floor {floor:.3f}"
        assert freq >= 0.95, f"variable {i + 1}: {freq} below the 0.95 target"
    _pass(
        "criterion 10",
        f"{trials} trials all classified correctly; quartic unclassified rates "
        f"{(unclassified / trials).tolist()} >= 0.95 (floor {floor:.3f})",
    )


def test_criterion_11_classical_parity_and_query_ledger():
    m = 100_000
    worst = 0.0
    for k in range(10):
        t = random_function(8, seed=0xA011 + k)
        report = algorithm1(t, m, seed=0xB011 + k)
        assert report.oracle_calls == m  # one batch covers all 8 variables
        for i in range(1, 9):
            est = classical_estimate(t, i, m, seed=(k << 8) | i)
            assert est.oracle_calls == 2 * m  # per variable
            worst = max(worst, abs(float(est.q) - float(report.p[i - 1])))
    assert worst < 0.02, f"worst |q - p| = {worst}"

    # the emitted report carries the same ledger
    out = io.StringIO()
    code = cli_run(
        ["classical", "--random", "8:77", "--m", str(m), "--seed", "5"],
        out=out, err=io.StringIO(),
    )
    assert code == 0
    results = json.loads(out.getvalue())["results"]
    assert results["oracle_calls_per_variable"] == 2 * m
    assert results["oracle_calls_total"] == 16 * m
    assert results["sampling_path_calls_for_all_variables"] == m
    _pass("criterion 11", f"worst |q - p| = {worst:.4f} < 0.02; ledger shows 2m per variable vs m total")
