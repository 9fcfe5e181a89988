"""Simulation and analysis laboratory for the steady-state (mu+1) genetic
algorithm on jump fitness functions: an exact, reproducible implementation of
the algorithm with diversity telemetry, closed-form probability and runtime
bound evaluators, and Monte Carlo machinery that validates every bound against
the behaviour of the production step function.
"""

from .analysis import (
    BoundReport,
    close_crossover_decrease_bound,
    close_crossover_increase_bound,
    exact_optimum_probability,
    mutation_only_increase_oscale,
    mutation_only_transition_bounds,
    no_flip_probability,
    optimum_creation_lower_bound,
    runtime_bound,
    survival_constant,
)
from .core import (
    GaParams,
    Genotype,
    RandomStream,
    hamming_distance,
    jump_fitness,
    make_rng,
    standard_bit_mutation,
    uniform_crossover,
)
from .diversity import (
    PairwiseDistanceTracker,
    SpeciesTracker,
)
from .experiments import (
    ConditionedEstimate,
    DriftEstimate,
    SweepCell,
    SweepResult,
    estimate_transition,
    estimate_unconditioned_drift,
    run_bound_sweep,
    run_comparison,
    run_figure1,
    run_survival,
    run_takeover,
    sample_optimum_creation_frequency,
    sweep_grid_ys,
    takeover_reference,
    two_species_population,
)
from .ga import (
    EventClass,
    IntegrityError,
    Population,
    StepTrace,
    StopCondition,
    ga_step,
    init_monomorphic_plateau,
    init_uniform,
    run,
    steps,
)

__version__ = "0.1.0"

__all__ = [
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
