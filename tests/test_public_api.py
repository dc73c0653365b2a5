"""The package's public surface, pinned so that every change to it is deliberate."""

import bvinfluence

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
