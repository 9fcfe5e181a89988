"""Simulation and analysis laboratory for the steady-state (mu+1) genetic
algorithm on jump fitness functions: an exact, reproducible implementation of
the algorithm with diversity telemetry, closed-form probability and runtime
bound evaluators, and Monte Carlo machinery that validates every bound against
the behaviour of the production step function.
"""

from .analysis import (
    close_crossover_decrease_bound,
    close_crossover_increase_bound,
    exact_optimum_probability,
    mutation_only_increase_oscale,
    mutation_only_transition_bounds,
    optimum_creation_lower_bound,
    runtime_bound,
    survival_constant,
)
from .core import (
    GaParams,
    RandomStream,
    jump_fitness,
    make_rng,
)
from .diversity import (
    PairwiseDistanceTracker,
    SpeciesTracker,
)
from .experiments import (
    BoundReport,
    ConditionedEstimate,
    SweepCell,
    estimate_transition,
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
