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
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import numpy as np

from .boolfn import TruthTable, _check_index
from .bvsim import SampleBatch, bv_distribution_of, bv_sample
from .rng import make_generator, resolve_seed


class BlackBoxOracle:
    """Query-only access to f: encoded input -> bit.

    Only the classical estimator takes one; the sampling path reads the
    full spectrum and so needs a TruthTable.
    """

    def __init__(self, fn: Callable[[int], int], n: int):
        self.fn = fn
        self.n = n

    def evaluate_many(self, xs: np.ndarray) -> np.ndarray:
        out = np.fromiter((self.fn(int(x)) for x in xs), dtype=object, count=len(xs))
        if not ((out == 0) | (out == 1)).all():  # before the cast, as TruthTable does
            raise ValueError("oracle outputs must be 0 or 1")
        return out.astype(np.uint8)


def hoeffding_radius(m: int, delta: float) -> float:
    """Accuracy radius eps with Pr(|I - p_i| < eps) > 1 - delta at m samples."""
    if m < 1:
        raise ValueError(f"sample count must be >= 1, got {m}")
    if not 0 < delta < 1:
        raise ValueError(f"failure probability must be in (0, 1), got {delta}")
    return math.sqrt(math.log(2.0 / delta) / (2.0 * m))


def hoeffding_failure_bound(m: int, epsilon: float) -> float:
    """The two-sided tail bound 2 exp(-2 m eps^2)."""
    if m < 1:
        raise ValueError(f"sample count must be >= 1, got {m}")
    if epsilon <= 0:
        raise ValueError(f"radius must be positive, got {epsilon}")
    return 2.0 * math.exp(-2.0 * m * epsilon * epsilon)


def samples_needed(epsilon: float, delta: float) -> int:
    """Smallest m (by the bound) with radius <= epsilon at failure prob delta."""
    if epsilon <= 0:
        raise ValueError(f"radius must be positive, got {epsilon}")
    if not 0 < delta < 1:
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
    batch: SampleBatch = field(repr=False, compare=False)

    def epsilon_at(self, confidence: float) -> float:
        """Radius guaranteed at the given confidence level (e.g. 0.99)."""
        return hoeffding_radius(self.m, 1.0 - confidence)


def algorithm1(f: TruthTable, m: int, seed: int | None = None) -> EstimateReport:
    """Estimate all n influences from m sampler runs.

    Draws a batch of m outputs, counts the ones in every position, and
    reports p_i = l_i / m per variable plus the total-influence estimate
    (sum_i l_i) / m. Costs m oracle uses for all n variables together.
    """
    batch = bv_sample(bv_distribution_of(f), m, seed)
    ones = batch.ones_counts()
    p = tuple(Fraction(l, m) for l in ones)
    return EstimateReport(
        n=f.n,
        m=m,
        seed=batch.seed,
        ones=ones,
        p=p,
        total=Fraction(sum(ones), m),
        oracle_calls=m,
        batch=batch,
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
    if not 0 < c < math.inf:
        raise ValueError(f"sensitivity constant must be finite and positive, got {c}")
    report = algorithm1(f, m, seed)
    variables = tuple(i for i in range(1, report.n + 1) if report.ones[i - 1] >= 1)
    return InfluentialList(
        variables=variables,
        c=float(c),
        guarantee=1.0 - math.exp(-c),
        m=m,
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
    a single variable.
    """
    if m < 1:
        raise ValueError(f"sample count must be >= 1, got {m}")
    _check_index(i, f.n)
    seed = resolve_seed(seed)
    rng = make_generator(seed)
    xs = rng.integers(0, 1 << f.n, size=m, dtype=np.int64)
    flipped = xs ^ (1 << (i - 1))
    if isinstance(f, TruthTable):
        changed = int(np.count_nonzero(f.bits[xs] != f.bits[flipped]))
    else:
        changed = int(np.count_nonzero(f.evaluate_many(xs) != f.evaluate_many(flipped)))
    return ClassicalEstimate(i=i, m=m, seed=seed, q=Fraction(changed, m), oracle_calls=2 * m)
