"""The package's export list: every name in ``__all__`` exists, and the list is pinned."""

from __future__ import annotations

import jumpga


def test_every_exported_name_resolves():
    missing = [name for name in jumpga.__all__ if not hasattr(jumpga, name)]
    assert not missing
    assert len(set(jumpga.__all__)) == len(jumpga.__all__)


def test_star_import_succeeds():
    namespace: dict = {}
    exec("from jumpga import *", namespace)
    assert set(jumpga.__all__) <= set(namespace)


# Adding or dropping an export is a deliberate edit of this list.
_EXPORTS = [
    "BoundReport",
    "ConditionedEstimate",
    "DriftEstimate",
    "EventClass",
    "GaParams",
    "Genotype",
    "IntegrityError",
    "PairwiseDistanceTracker",
    "Population",
    "RandomStream",
    "SpeciesTracker",
    "StepTrace",
    "StopCondition",
    "SweepCell",
    "SweepResult",
    "close_crossover_decrease_bound",
    "close_crossover_increase_bound",
    "estimate_transition",
    "estimate_unconditioned_drift",
    "exact_optimum_probability",
    "ga_step",
    "hamming_distance",
    "init_monomorphic_plateau",
    "init_uniform",
    "jump_fitness",
    "make_rng",
    "mutation_only_increase_oscale",
    "mutation_only_transition_bounds",
    "no_flip_probability",
    "optimum_creation_lower_bound",
    "run",
    "run_bound_sweep",
    "run_comparison",
    "run_figure1",
    "run_survival",
    "run_takeover",
    "runtime_bound",
    "sample_optimum_creation_frequency",
    "standard_bit_mutation",
    "steps",
    "survival_constant",
    "sweep_grid_ys",
    "takeover_reference",
    "two_species_population",
    "uniform_crossover",
]


def test_export_list_is_pinned():
    assert sorted(jumpga.__all__) == _EXPORTS
