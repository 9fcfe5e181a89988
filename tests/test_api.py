"""The package's export list: every name in ``__all__`` exists, has a user in
the package, and the list is pinned, as are the fields of the records that
every step writes."""

from __future__ import annotations

import ast
from dataclasses import fields
from pathlib import Path

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
    "EventClass",
    "GaParams",
    "IntegrityError",
    "PairwiseDistanceTracker",
    "Population",
    "RandomStream",
    "SpeciesTracker",
    "StepTrace",
    "StopCondition",
    "SweepCell",
    "close_crossover_decrease_bound",
    "close_crossover_increase_bound",
    "estimate_transition",
    "exact_optimum_probability",
    "ga_step",
    "init_monomorphic_plateau",
    "init_uniform",
    "jump_fitness",
    "make_rng",
    "mutation_only_increase_oscale",
    "mutation_only_transition_bounds",
    "optimum_creation_lower_bound",
    "run",
    "run_bound_sweep",
    "run_comparison",
    "run_figure1",
    "run_survival",
    "run_takeover",
    "runtime_bound",
    "sample_optimum_creation_frequency",
    "steps",
    "survival_constant",
    "sweep_grid_ys",
    "takeover_reference",
    "two_species_population",
]


def test_export_list_is_pinned():
    assert sorted(jumpga.__all__) == _EXPORTS


def test_every_export_has_a_user_in_the_package():
    # A public name that only the tests use belongs in the tests.  A user is a
    # Name or an Attribute in a module of the package other than __init__.py,
    # its own definition not counted.
    used = set()
    for path in Path(jumpga.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert sorted(set(jumpga.__all__) - used) == []


# The records every step writes: adding a per-step field is a deliberate edit
# of these lists.
_STEP_TRACE_FIELDS = [
    "event",
    "parent_indices",
    "offspring",
    "removed_index",
    "removed_genotype",
    "optimum_created",
]
_POPULATION_INIT_FIELDS = ["members", "fitnesses"]


def test_step_record_fields_are_pinned():
    assert [f.name for f in fields(jumpga.StepTrace)] == _STEP_TRACE_FIELDS
    assert [f.name for f in fields(jumpga.Population) if f.init] == _POPULATION_INIT_FIELDS
