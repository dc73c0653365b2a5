"""Probabilistic structure learners for functions built from disjoint terms.

Both learners assume every variable appears in at most one term of the
target function; under that model a variable in a degree-r monomial has
influence exactly 2^(1-r), so its one-frequency across repeated sampler
runs concentrates on 1, 1/2, or 1/4 for linear, quadratic and cubic
terms. Neither learner can detect a violated model from the marginals
alone, so each report carries the assumption as an explicit field
instead of pretending to validate it.

A one-frequency that lands outside every acceptance region is reported
``UNCLASSIFIED`` rather than snapped to the nearest class; that keeps
the stated error budgets honest for out-of-model inputs (for example a
degree-4 variable sitting at influence 1/8).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction

from .boolfn import TruthTable, _check_index
from .bvsim import _sampled_ones
from .estimate import hoeffding_failure_bound
from .rng import _check_int, _check_real

DEFAULT_RHO = 20
DEFAULT_LAMBDA = 2000
DEFAULT_EPSILON = Fraction(1, 10)

_DISJOINT_TERMS_NOTE = "each variable appears in at most one term (assumed, not checked)"


class TermClass(Enum):
    LINEAR = "linear"
    QUADRATIC = "quadratic"
    CUBIC = "cubic"
    ABSENT = "absent"
    UNCLASSIFIED = "unclassified"


@dataclass(frozen=True)
class VariableClass:
    """Classification of one variable: pure function of (ones, trials, windows)."""

    index: int
    label: TermClass
    observed: Fraction
    window: tuple[Fraction, Fraction] | None


@dataclass(frozen=True)
class LearnReport:
    n: int
    algorithm: str
    trials: int
    epsilon: Fraction | None
    seed: int
    classes: tuple[VariableClass, ...]
    error_budget: dict[str, float] = field(compare=False)
    assumed_model: str = field(compare=False)

    def label_of(self, i: int) -> TermClass:
        return self.classes[_check_index(i, self.n) - 1].label


def lemma1_influence(r: int) -> Fraction:
    """Influence 2^(1-r) of a variable appearing in exactly one degree-r term."""
    r = _check_int(r, "monomial degree", 1)
    return Fraction(1, 1 << (r - 1))


def quadratic_window(epsilon) -> tuple[Fraction, Fraction]:
    """Open acceptance interval around 1/2 for quadratic-term frequencies."""
    eps = _check_epsilon(epsilon)
    return (Fraction(1, 2) - eps, Fraction(1, 2) + eps)


def cubic_window(epsilon) -> tuple[Fraction, Fraction]:
    """Open acceptance interval around 1/4 for cubic-term frequencies."""
    eps = _check_epsilon(epsilon)
    return (Fraction(1, 4) - eps, Fraction(1, 4) + eps)


def _check_epsilon(epsilon) -> Fraction:
    # Refused as a float seed is: Fraction(0.1) would be the float's binary value, not 1/10.
    if isinstance(epsilon, numbers.Real) and not isinstance(epsilon, numbers.Rational):
        raise TypeError(f"window half-width epsilon must be a Fraction, not a float, got {epsilon!r}")
    return Fraction(_check_real(epsilon, "window half-width epsilon", Fraction(1, 8)))


def _in_window(value: Fraction, window: tuple[Fraction, Fraction]) -> bool:
    lo, hi = window
    return lo < value < hi


def _classify(ones_counts: tuple[int, ...], m: int, rules) -> tuple[VariableClass, ...]:
    """Label every variable from its one-count over m runs.

    An all-ones column is linear and an all-zeros column absent. Any other
    frequency takes the label of the first ``(label, window)`` rule whose
    open window holds it, or ``UNCLASSIFIED`` when none does.
    """
    classes = []
    for index, ones in enumerate(ones_counts, start=1):
        observed = Fraction(ones, m)
        if ones == m:
            label, window = TermClass.LINEAR, None
        elif ones == 0:
            label, window = TermClass.ABSENT, None
        else:
            label, window = next(
                (rule for rule in rules if _in_window(observed, rule[1])),
                (TermClass.UNCLASSIFIED, None),
            )
        classes.append(VariableClass(index, label, observed, window))
    return tuple(classes)


def algorithm2(f: TruthTable, rho: int = DEFAULT_RHO, seed: int | None = None) -> LearnReport:
    """Two-class learner for functions of disjoint linear and quadratic terms.

    Runs the sampler rho times per the all-or-mixed rule: a position
    that is 1 in every run is declared linear, all zeros absent, and any
    mixed column (1 <= ones <= rho-1) quadratic. A quadratic variable is
    misread only when its rho fair-coin marginals all agree, so the
    per-variable error is 2 * (1/2)^rho.
    """
    rho = _check_int(rho, "repetition count rho", 2)
    ones, seed = _sampled_ones(f, rho, seed)
    mixed = (Fraction(0), Fraction(1))
    return LearnReport(
        n=f.n,
        algorithm="linear-quadratic",
        trials=rho,
        epsilon=None,
        seed=seed,
        classes=_classify(ones, rho, ((TermClass.QUADRATIC, mixed),)),
        error_budget={
            "quadratic_read_as_linear": 0.5 ** rho,
            "quadratic_read_as_absent": 0.5 ** rho,
            "quadratic_misread_total": 2.0 * 0.5 ** rho,
        },
        assumed_model=f"linear and quadratic terms only; {_DISJOINT_TERMS_NOTE}",
    )


def algorithm3(
    f: TruthTable,
    lam: int = DEFAULT_LAMBDA,
    epsilon=DEFAULT_EPSILON,
    seed: int | None = None,
) -> LearnReport:
    """Three-class learner adding cubic terms, via frequency windows.

    Runs the sampler lam times. All-ones columns are linear and
    all-zeros absent, exactly as before; otherwise the ones-frequency is
    tested against the open windows (1/2 - eps, 1/2 + eps) for quadratic
    and (1/4 - eps, 1/4 + eps) for cubic. eps < 1/8 keeps the windows
    disjoint. Frequencies matching no rule are left unclassified. Each
    in-model window variable lands in its window with probability at
    least 1 - 2 exp(-2 lam eps^2); the linear rule's budget is inherited
    from the two-class analysis, not proved for this setting.
    """
    lam = _check_int(lam, "repetition count lam", 4)
    eps = _check_epsilon(epsilon)
    ones, seed = _sampled_ones(f, lam, seed)
    rules = ((TermClass.QUADRATIC, quadratic_window(eps)), (TermClass.CUBIC, cubic_window(eps)))
    return LearnReport(
        n=f.n,
        algorithm="linear-quadratic-cubic",
        trials=lam,
        epsilon=eps,
        seed=seed,
        classes=_classify(ones, lam, rules),
        error_budget={
            "quadratic_window_miss": hoeffding_failure_bound(lam, float(eps)),
            "cubic_window_miss": hoeffding_failure_bound(lam, float(eps)),
            # Inherited from the two-class analysis (a 1/2-influence
            # variable reading all ones); not proved for this setting.
            "linear_false_positive_inherited": 0.5 ** lam,
        },
        assumed_model=f"linear, quadratic and cubic terms; {_DISJOINT_TERMS_NOTE}",
    )
