"""What the benchmark tracer (``bench/tracer.py``) relies on in the package.

The tracer wraps ``ga.ga_step`` and divides its per-step metrics by the
number of wrapped calls, reads each step's record as ``ga_step`` returns it,
and replaces listed methods through each class's ``__dict__``.  A refactor
that steps without calling ``ga_step``, returns a record the tracer cannot
read, or moves a listed method to a base class or a slot, breaks
``--trace 1``.
"""

from __future__ import annotations

import importlib.util
from collections import Counter
from pathlib import Path

import jumpga.core
import jumpga.diversity
import jumpga.ga
from jumpga import GaParams, ga_step, init_monomorphic_plateau, init_uniform, make_rng, steps

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_steps_calls_ga_step_once_per_yielded_step(monkeypatch):
    calls = 0
    inner = jumpga.ga.ga_step

    def counting(pop, params, rng):
        nonlocal calls
        calls += 1
        return inner(pop, params, rng)

    monkeypatch.setattr(jumpga.ga, "ga_step", counting)
    params = GaParams(n=30, k=3, mu=8, p_c=0.5, chi=1.0, seed=3)
    for start in (init_uniform, init_monomorphic_plateau):
        rng = make_rng(3, 0)
        pop = start(params, rng)
        calls = 0
        yielded = 0
        for t, _, trace in steps(pop, params, rng, 400):
            yielded += 1
            assert calls == t == trace.t
        assert yielded == calls == 400
        calls = 0
        for t, _, _ in steps(pop, params, rng):
            assert calls == t
            if t == 50:
                break
        assert calls == 50


def test_every_method_the_tracer_wraps_is_defined_on_its_class():
    modules = {"core": jumpga.core, "ga": jumpga.ga, "diversity": jumpga.diversity}
    checked = 0
    for layer, classes in load_tracer().METHODS.items():
        for cls_name, names in classes.items():
            cls = getattr(modules[layer], cls_name)
            for name in names:
                assert callable(vars(cls).get(name)), f"{layer}.{cls_name}.{name}"
                checked += 1
    assert checked > 0


def test_the_tracer_step_hook_reads_each_step_record():
    # The hook runs on ga_step's (pop, trace) as the wrapped call returns it,
    # before the next step rewrites the record.
    params = GaParams(n=30, k=3, mu=8, p_c=0.5, chi=1.0, seed=4)
    events = Counter()
    for start in (init_monomorphic_plateau, init_uniform):
        rng = make_rng(4, 0)
        pop = start(params, rng)
        tracer = load_tracer().Tracer()
        want, rejected = Counter(), 0
        for _ in range(2000):
            result = ga_step(pop, params, rng)
            tracer._after_step((pop, params, rng), result, 0)
            want[result[1].event.value] += 1
            rejected += result[1].removed_index == params.mu
        assert tracer.events == want and tracer.rejected == rejected > 0, start.__name__
        assert len(tracer.step_ns) == 2000
        events += want
    assert set(events) == {"crossover_close", "crossover_distant", "mutation_only"}
