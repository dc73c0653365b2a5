"""The package's public surface, pinned so that every change to it is deliberate."""

import numpy as np
import pytest

import bvinfluence
from bvinfluence import (
    Anf,
    BlackBoxOracle,
    SampleBatch,
    TruthTable,
    algorithm1,
    algorithm2,
    algorithm3,
    bv_distribution_of,
    bv_sample,
    classical_estimate,
    from_anf,
    hoeffding_failure_bound,
    hoeffding_radius,
    influence_by_definition,
    influence_by_spectrum,
    influence_vector,
    influential_list,
    lemma1_influence,
    random_function,
    resolve_seed,
    samples_needed,
    walsh_spectrum,
)

PUBLIC = [
    "Anf", "AnfSyntaxError", "BlackBoxOracle", "BvDistribution", "ClassicalEstimate",
    "DEFAULT_EPSILON", "DEFAULT_LAMBDA", "DEFAULT_RHO", "DEFAULT_SAMPLES", "EstimateReport",
    "InfluenceVector", "InfluentialList", "LearnReport", "MAX_VARIABLES", "STATEVECTOR_MAX_N",
    "SampleBatch", "TermClass", "TruthTable", "VariableClass", "WalshSpectrum",
    "algorithm1", "algorithm2", "algorithm3", "bv_distribution", "bv_distribution_of",
    "bv_sample", "classical_estimate", "correlation_fast", "cubic_window", "from_anf",
    "fwht", "hoeffding_failure_bound", "hoeffding_radius", "influence_by_definition",
    "influence_by_spectrum", "influence_vector", "influential_list", "lemma1_influence",
    "make_generator", "quadratic_window", "random_function", "resolve_seed",
    "samples_needed", "statevector_bv", "to_truth_table", "verify_identities",
    "walsh_spectrum",
]


def test_all_is_the_pinned_public_surface():
    # adding or removing a public name means editing this list
    assert PUBLIC == sorted(PUBLIC)
    assert sorted(bvinfluence.__all__) == PUBLIC


T = random_function(3, seed=1)

# Per public entry that takes a count, an index, an outcome or a seed: the name its
# TypeError gives, the call with that value, a value in range, and where the
# result keeps the value (None when it does not).
INTEGER_ENTRIES = {
    "TruthTable-n": ("variable count", lambda v: TruthTable(v, np.zeros(8, np.uint8)), 3, lambda r: r.n),
    "Anf-n": ("variable count", lambda v: Anf([[1]], v), 3, lambda r: r.n),
    "Anf-index": ("variable index", lambda v: Anf([[v]], 3), 3, lambda r: min(*r.monomials)),
    "from_anf-n": ("variable count", lambda v: from_anf("x1", v), 3, lambda r: r.n),
    "random_function-n": ("variable count", lambda v: random_function(v, 1), 3, lambda r: r.n),
    "SampleBatch-n": ("variable count", lambda v: SampleBatch(v, [0], 0), 3, lambda r: r.n),
    "SampleBatch-seed": ("seed", lambda v: SampleBatch(3, [0], v), 3, lambda r: r.seed),
    "BlackBoxOracle-n": ("variable count", lambda v: BlackBoxOracle(lambda x: x & 1, v), 3, lambda r: r.n),
    "influence_by_definition-i": ("variable index", lambda v: influence_by_definition(T, v), 3, None),
    "influence_by_spectrum-i": ("variable index", lambda v: influence_by_spectrum(walsh_spectrum(T), v), 3, None),
    "InfluenceVector-getitem": ("variable index", lambda v: influence_vector(T)[v], 3, None),
    "marginal_one-i": ("variable index", lambda v: bv_distribution_of(T).marginal_one(v), 3, None),
    "classical_estimate-i": ("variable index", lambda v: classical_estimate(T, v, 10, seed=0), 3, lambda r: r.i),
    "label_of-i": ("variable index", lambda v: algorithm2(T, seed=0).label_of(v), 3, None),
    "bv_sample-m": ("sample count", lambda v: bv_sample(bv_distribution_of(T), v, seed=0), 3, lambda r: r.m),
    "algorithm1-m": ("sample count", lambda v: algorithm1(T, v, seed=0), 3, lambda r: r.m),
    "influential_list-m": ("sample count", lambda v: influential_list(T, v, seed=0), 3, lambda r: r.m),
    "classical_estimate-m": ("sample count", lambda v: classical_estimate(T, 1, v, seed=0), 3, lambda r: r.m),
    "hoeffding_radius-m": ("sample count", lambda v: hoeffding_radius(v, 0.1), 3, None),
    "hoeffding_failure_bound-m": ("sample count", lambda v: hoeffding_failure_bound(v, 0.1), 3, None),
    "algorithm2-rho": ("repetition count rho", lambda v: algorithm2(T, v, seed=0), 3, lambda r: r.trials),
    "algorithm3-lam": ("repetition count lam", lambda v: algorithm3(T, v, seed=0), 4, lambda r: r.trials),
    "lemma1_influence-r": ("monomial degree", lemma1_influence, 3, None),
    "prob-y": ("outcome", lambda v: bv_distribution_of(T).prob(v), 3, None),
    "resolve_seed": ("seed", resolve_seed, 3, lambda r: r),
    "random_function-seed": ("seed", lambda v: random_function(3, v), 3, None),
    "bv_sample-seed": ("seed", lambda v: bv_sample(bv_distribution_of(T), 3, v), 3, lambda r: r.seed),
    "classical_estimate-seed": ("seed", lambda v: classical_estimate(T, 1, 10, v), 3, lambda r: r.seed),
    "algorithm2-seed": ("seed", lambda v: algorithm2(T, seed=v), 3, lambda r: r.seed),
}


@pytest.mark.parametrize("entry", INTEGER_ENTRIES)
def test_counts_indices_and_outcomes_take_integers_only(entry):
    # a bool, a float or a str is refused by name, never read as a count;
    # a numpy integer is an integer, and is kept as an int
    name, call, good, kept = INTEGER_ENTRIES[entry]
    for value in (True, 2.0, "3"):
        with pytest.raises(TypeError, match=name):
            call(value)
    result = call(np.int64(good))
    if kept is not None:
        assert type(kept(result)) is int and kept(result) == good


# Per float parameter: the name its TypeError gives and the call with that value.
FLOAT_ENTRIES = {
    "influential_list-c": ("sensitivity constant c", lambda v: influential_list(T, 10, seed=0, c=v)),
    "samples_needed-epsilon": ("radius epsilon", lambda v: samples_needed(v, 0.5)),
    "samples_needed-delta": ("failure probability delta", lambda v: samples_needed(0.5, v)),
    "hoeffding_radius-delta": ("failure probability delta", lambda v: hoeffding_radius(10, v)),
    "hoeffding_failure_bound-epsilon": ("radius epsilon", lambda v: hoeffding_failure_bound(10, v)),
}


@pytest.mark.parametrize("entry", FLOAT_ENTRIES)
def test_float_parameters_refuse_bools(entry):
    # a bool is refused by name, never read as 1.0 or 0.0; a float is taken
    name, call = FLOAT_ENTRIES[entry]
    for value in (True, np.True_):
        with pytest.raises(TypeError, match=name):
            call(value)
    call(0.5)
