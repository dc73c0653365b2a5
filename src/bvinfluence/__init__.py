"""Influences of Boolean-function variables, exactly and by sampling.

The package computes variable influences three ways and keeps them in
agreement: from the definition (count inputs where flipping one bit
flips the output), from the Walsh spectrum (sum of squared coefficients
over the half-cube where that bit is set), and from samples of the
Hadamard-conjugated phase-oracle distribution, whose outcome marginals
equal the influences. On top of the sampler sit estimators with
Hoeffding guarantees and two small procedures that read off the
algebraic role of each variable in low-degree functions.
"""

from types import ModuleType as _ModuleType

from .boolfn import (
    MAX_VARIABLES,
    Anf,
    AnfSyntaxError,
    TruthTable,
    from_anf,
    random_function,
    to_truth_table,
)
from .bvsim import (
    STATEVECTOR_MAX_N,
    BvDistribution,
    SampleBatch,
    bv_distribution,
    bv_distribution_of,
    bv_sample,
    statevector_bv,
)
from .estimate import (
    DEFAULT_SAMPLES,
    BlackBoxOracle,
    ClassicalEstimate,
    EstimateReport,
    InfluentialList,
    algorithm1,
    classical_estimate,
    hoeffding_failure_bound,
    hoeffding_radius,
    influential_list,
    samples_needed,
)
from .learn import (
    DEFAULT_EPSILON,
    DEFAULT_LAMBDA,
    DEFAULT_RHO,
    LearnReport,
    TermClass,
    VariableClass,
    algorithm2,
    algorithm3,
    cubic_window,
    lemma1_influence,
    quadratic_window,
)
from .rng import make_generator, resolve_seed
from .spectrum import (
    InfluenceVector,
    WalshSpectrum,
    correlation_fast,
    fwht,
    influence_by_definition,
    influence_by_spectrum,
    influence_vector,
    verify_identities,
    walsh_spectrum,
)

__version__ = "0.1.0"

# Every public name imported above; the submodules themselves are not exported.
__all__ = [
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]
