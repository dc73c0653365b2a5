"""Sampled influence estimation and its concentration guarantees.

The quantum-style estimator runs the circuit sampler m times and reads
every variable's influence off the per-position ones frequencies, so one
batch of m oracle uses covers all n variables at once. The classical
baseline estimates a single variable from m random input pairs, costing
2m evaluations per variable; both reports carry their oracle-call count
so the n-fold separation is visible in the output rather than asserted.

All frequency bookkeeping is exact (integer counts, Fraction ratios);
Hoeffding radii and failure bounds are the only floating-point values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .boolfn import TruthTable, _check_index, _check_n
from .bvsim import _BLOCK, _blocks, _sampled_ones
from .rng import _check_int
from .spectrum import _flips, _packed


class BlackBoxOracle:
    """Query-only access to f: encoded input -> bit.

    Only the classical estimator takes one; the sampling path reads the
    full spectrum and so needs a TruthTable.
    """

    def __init__(self, fn: Callable[[int], int], n: int):
        self.fn, self.n = fn, _check_n(n)

    def evaluate_many(self, xs: np.ndarray) -> np.ndarray:
        out = np.fromiter((self.fn(int(x)) for x in xs), dtype=object, count=len(xs))
        if not ((out == 0) | (out == 1)).all():  # before the cast, as TruthTable does
            raise ValueError("oracle outputs must be 0 or 1")
        return out.astype(np.uint8)


def _check_real(value, name: str):
    """``value``, unless it is a bool (numpy's too), which raises ``TypeError`` naming ``name``."""
    if isinstance(value, (bool, np.bool_)):
        raise TypeError(f"{name} must be a number, not a bool, got {value!r}")
    return value


def hoeffding_radius(m: int, delta: float) -> float:
    """Accuracy radius eps with Pr(|I - p_i| < eps) > 1 - delta at m samples."""
    m = _check_int(m, "sample count", 1)
    if not 0 < _check_real(delta, "failure probability delta") < 1:
        raise ValueError(f"failure probability must be in (0, 1), got {delta}")
    return math.sqrt(math.log(2.0 / delta) / (2.0 * m))


def hoeffding_failure_bound(m: int, epsilon: float) -> float:
    """The two-sided tail bound 2 exp(-2 m eps^2)."""
    m = _check_int(m, "sample count", 1)
    if _check_real(epsilon, "radius epsilon") <= 0:
        raise ValueError(f"radius must be positive, got {epsilon}")
    return 2.0 * math.exp(-2.0 * m * epsilon * epsilon)


def samples_needed(epsilon: float, delta: float) -> int:
    """Smallest m (by the bound) with radius <= epsilon at failure prob delta."""
    if _check_real(epsilon, "radius epsilon") <= 0:
        raise ValueError(f"radius must be positive, got {epsilon}")
    if not 0 < _check_real(delta, "failure probability delta") < 1:
        raise ValueError(f"failure probability must be in (0, 1), got {delta}")
    return math.ceil(math.log(2.0 / delta) / (2.0 * epsilon * epsilon))


# Radius 0.05 at 99% confidence; surfaced as the CLI default sample count.
DEFAULT_SAMPLES = samples_needed(0.05, 0.01)


@dataclass(frozen=True)
class EstimateReport:
    """Per-variable influence estimates from one sampling run."""

    n: int
    m: int
    seed: int
    ones: tuple[int, ...]
    p: tuple[Fraction, ...]
    total: Fraction
    oracle_calls: int

    def epsilon_at(self, confidence: float) -> float:
        """Radius guaranteed at the given confidence level (e.g. 0.99)."""
        return hoeffding_radius(self.m, 1.0 - confidence)


def algorithm1(f: TruthTable, m: int, seed: int | None = None) -> EstimateReport:
    """Estimate all n influences from m sampler runs.

    Draws m outputs, counts the ones in every position, and reports
    p_i = l_i / m per variable plus the total-influence estimate
    (sum_i l_i) / m. Costs m oracle uses for all n variables together.
    The draws are counted block by block and never kept.
    """
    m = _check_int(m, "sample count", 1)
    ones, seed = _sampled_ones(f, m, seed)
    return EstimateReport(
        n=f.n,
        m=m,
        seed=seed,
        ones=ones,
        p=tuple(Fraction(l, m) for l in ones),
        total=Fraction(sum(ones), m),
        oracle_calls=m,
    )


@dataclass(frozen=True)
class InfluentialList:
    """Variables observed at least once, with the coverage guarantee.

    Soundness is absolute: a zero-influence variable can never appear.
    Any variable with influence >= c/m appears with probability at
    least ``guarantee`` = 1 - e^(-c).
    """

    variables: tuple[int, ...]
    c: float
    guarantee: float
    m: int
    seed: int

    @property
    def threshold_influence(self) -> float:
        return self.c / self.m


def influential_list(f: TruthTable, m: int, seed: int | None = None, c: float = 3.0) -> InfluentialList:
    """List every variable whose position showed a 1 at least once."""
    if not 0 < _check_real(c, "sensitivity constant c") < math.inf:
        raise ValueError(f"sensitivity constant must be finite and positive, got {c}")
    report = algorithm1(f, m, seed)
    variables = tuple(i for i in range(1, report.n + 1) if report.ones[i - 1] >= 1)
    return InfluentialList(
        variables=variables,
        c=float(c),
        guarantee=1.0 - math.exp(-c),
        m=report.m,
        seed=report.seed,
    )


@dataclass(frozen=True)
class ClassicalEstimate:
    """Monte Carlo estimate of one variable's influence from input pairs."""

    i: int
    m: int
    seed: int
    q: Fraction
    oracle_calls: int


def classical_estimate(f: TruthTable | BlackBoxOracle, i: int, m: int, seed: int | None = None) -> ClassicalEstimate:
    """Estimate I(i) by sampling m inputs and testing f(x) vs f(x xor alpha^i).

    Inputs are drawn uniformly with replacement so the same Hoeffding
    bound as the sampling path applies. Costs 2m oracle calls and covers
    a single variable. Inputs are drawn and tested block by block: each by
    one lookup in a table's f(x) xor f(x xor alpha^i), or two black-box queries.
    """
    if not isinstance(f, (TruthTable, BlackBoxOracle)):
        raise TypeError(f"need a TruthTable or a BlackBoxOracle, got {type(f).__name__}")
    i, m = _check_index(i, f.n), _check_int(m, "sample count", 1)
    seed, blocks = _blocks(f.n, m, seed, _BLOCK)
    changed = 0
    if isinstance(f, TruthTable):
        differs = np.unpackbits(_flips(_packed(f), i, both=True).view(np.uint8), count=1 << f.n, bitorder="little")
        for xs in blocks:
            changed += int(np.count_nonzero(differs.take(xs)))
    else:
        for xs in blocks:
            before = f.evaluate_many(xs)
            xs ^= 1 << (i - 1)  # in place, in the reused draw buffer
            changed += int(np.count_nonzero(before != f.evaluate_many(xs)))
    return ClassicalEstimate(i=i, m=m, seed=seed, q=Fraction(changed, m), oracle_calls=2 * m)
