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
import inspect
from collections import Counter
from pathlib import Path

import pytest

import jumpga.cli
import jumpga.core
import jumpga.diversity
import jumpga.ga
from jumpga import (
    GaParams,
    ga_step,
    init_monomorphic_plateau,
    init_uniform,
    make_rng,
    run_survival,
    run_takeover,
    steps,
)
from jumpga.output import render_svg, write_series_csv

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def ga_step_calls(monkeypatch) -> list:
    """A list that grows by one item on each call of ``jumpga.ga.ga_step``."""
    calls = []
    inner = jumpga.ga.ga_step

    def counting(pop, params, rng):
        calls.append(None)
        return inner(pop, params, rng)

    monkeypatch.setattr(jumpga.ga, "ga_step", counting)
    return calls


def test_steps_calls_ga_step_once_per_yielded_step(ga_step_calls):
    params = GaParams(n=30, k=3, mu=8, p_c=0.5, chi=1.0, seed=3)
    for start in (init_uniform, init_monomorphic_plateau):
        rng = make_rng(3, 0)
        pop = start(params, rng)
        ga_step_calls.clear()
        yielded = 0
        for t, _, _ in steps(pop, params, rng, 400):
            yielded += 1
            assert len(ga_step_calls) == t
        assert yielded == len(ga_step_calls) == 400
        ga_step_calls.clear()
        for t, _, _ in steps(pop, params, rng):
            assert len(ga_step_calls) == t
            if t == 50:
                break
        assert len(ga_step_calls) == 50


def test_runner_step_counts_add_up_to_the_ga_step_calls(ga_step_calls):
    # Survival hands the takeover population on to a second chain of steps,
    # and each chain counts its own steps.  The cap of 300 censors one of the
    # eight takeovers; of the others, four end on a focal regrowth, two run
    # to t_max and one stops at the optimum.
    params = GaParams(n=30, k=3, mu=8, p_c=1.0, chi=1.0, seed=3)
    cap = 300
    survival = run_survival(params, 8, 0.6, 300, max_iterations=cap)
    reps = survival.replicates
    assert sum(r.takeover_censored for r in reps) == 1
    assert any(r.optimum_interrupted for r in reps)
    assert any(r.monitored_iterations == 300 for r in reps)
    taken = sum((cap if r.takeover_censored else r.takeover_time) + r.monitored_iterations for r in reps)
    assert taken == len(ga_step_calls)
    ga_step_calls.clear()
    takeover = run_takeover(params, 8, max_iterations=cap)
    assert takeover.censored == 1
    taken = sum(cap if r.censored else r.hitting_time for r in takeover.replicates)
    assert taken == len(ga_step_calls)


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


def test_the_tracer_write_hooks_count_the_bytes_of_a_figure1_job(tmp_path, monkeypatch):
    # The write hooks add getsize(args[1]), so the path stays the second
    # positional argument of both writers, and the job's text cache goes by
    # keyword.  Wrapped as --trace 1 wraps them, the writers of one job count
    # the bytes of the files it wrote.
    writers = {"csv": write_series_csv, "svg": render_svg}
    tracer = load_tracer().Tracer()
    for kind, writer in writers.items():
        params = list(inspect.signature(writer).parameters.values())
        assert params[1].name == "path" and params[1].kind is params[1].POSITIONAL_OR_KEYWORD
        assert params[-1].name == "cache" and params[-1].kind is params[-1].KEYWORD_ONLY
        traced = tracer.wrap(f"output.{writer.__name__}", writer, tracer._after_write(kind))
        monkeypatch.setattr(jumpga.cli, writer.__name__, traced)
    argv = ["figure1", "--out", str(tmp_path), "--n", "16", "--k", "2", "--mu", "6", "--seed", "2",
            "--replicates", "3", "--max-iterations", "150"]
    assert jumpga.cli.main(argv) == 0
    for kind, writer in writers.items():
        files = list(tmp_path.glob(f"figure1_seed*.{kind}"))
        assert tracer.stats[f"output.{writer.__name__}"][0] == len(files) == 3
        assert tracer.bytes[kind] == sum(f.stat().st_size for f in files) > 0
