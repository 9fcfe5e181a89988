"""Per-layer tracing of an unmodified ``jumpga`` package, installed from outside.

Every public function of each layer module and a few public methods are
replaced by timing wrappers.  A replaced function is patched in every loaded
``jumpga`` module that imported it (``jumpga.experiments.ga_step`` as well as
``jumpga.ga.ga_step``), because callers look names up in their own module.

Each wrapped name aggregates a call count, its total (inclusive) time and the
time of its traced children; self time is total minus children.  Calls that
happen at most a few times per job are also kept as spans (job, name, start,
end, depth) and written out at the end; calls made once per step or more
often, such as ``RandomStream.uniform``, are aggregated only.
"""

from __future__ import annotations

import inspect
import json
import statistics
import sys
import time
from array import array
from collections import Counter
from os.path import getsize

LAYERS = ("core", "ga", "diversity", "experiments", "analysis", "output", "cli")

METHODS = {
    "core": {"RandomStream": ("uniform", "index", "random_bits", "binomial")},
    "ga": {"Population": ("__init__",), "StepTrace": ("__init__",)},
    "diversity": {
        "SpeciesTracker": ("__init__", "apply", "count", "largest_class"),
        "PairwiseDistanceTracker": ("__init__", "apply", "frequencies"),
    },
}

# Called at least once per step in some workload: aggregated, no span records.
PER_STEP = {
    "core.RandomStream.uniform",
    "core.RandomStream.index",
    "core.RandomStream.random_bits",
    "core.RandomStream.binomial",
    "core.hamming_distance",
    "core.jump_fitness",
    "core.random_index_subset",
    "core.standard_bit_mutation",
    "core.uniform_crossover",
    "ga.ga_step",
    "ga.Population.__init__",
    "ga.StepTrace.__init__",
    "diversity.SpeciesTracker.apply",
    "diversity.SpeciesTracker.count",
    "diversity.PairwiseDistanceTracker.apply",
    "diversity.PairwiseDistanceTracker.frequencies",
    "output.format_value",
}

# Per-layer metrics that are pure functions of the draws: they must repeat
# exactly across repeats of one seed.
DETERMINISTIC = (
    "core.uniform.calls_per_step",
    "core.index.calls_per_step",
    "core.random_bits.calls_per_step",
    "core.binomial.calls_per_step",
    "ga.ga_step.calls",
    "ga.offspring_rejected_frac",
    "ga.event.crossover_close_frac",
    "ga.event.crossover_distant_frac",
    "ga.event.mutation_only_frac",
    "experiments.accept_frac",
    "analysis.calls",
    "output.csv.bytes",
    "output.svg.bytes",
)


class Tracer:
    def __init__(self):
        self.stats: dict[str, list[int]] = {}  # name -> [calls, total_ns, child_ns]
        self.spans: list[tuple] = []
        self.job = 0
        self.step_ns = array("q")
        self.events: Counter[str] = Counter()
        self.rejected = 0
        self.accepted = 0
        self.attempts = 0
        self.bytes: Counter[str] = Counter()
        self._stack = [0]  # child-time accumulators of the open calls

    def wrap(self, name: str, fn, after=None):
        stat = self.stats.setdefault(name, [0, 0, 0])
        stack = self._stack
        spans = None if name in PER_STEP else self.spans
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            stack.append(0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += stack.pop()
                stack[-1] += elapsed
                if spans is not None:
                    spans.append((self.job, name, start, start + elapsed, len(stack) - 1))
            if after is not None:
                after(args, result, elapsed)
            return result

        return traced

    def install(self) -> None:
        import jumpga.cli  # noqa: F401  (loads every layer module)

        modules = [m for key, m in list(sys.modules.items()) if key.split(".")[0] == "jumpga"]
        after = {
            "ga.ga_step": self._after_step,
            "experiments.estimate_transition": self._after_estimate,
            "output.write_series_csv": self._after_write("csv"),
            "output.render_svg": self._after_write("svg"),
            "output.write_json": self._after_write("json"),
        }
        for layer in LAYERS:
            module = sys.modules[f"jumpga.{layer}"]
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                traced = self.wrap(name, obj, after.get(name))
                for m in modules:
                    for other, value in list(vars(m).items()):
                        if value is obj:
                            setattr(m, other, traced)
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(module, cls_name)
                for meth in methods:
                    setattr(cls, meth, self.wrap(f"{layer}.{cls_name}.{meth}", vars(cls)[meth]))

    def _after_step(self, args, result, elapsed) -> None:
        trace = result[1]
        self.step_ns.append(elapsed)
        self.events[trace.event.value] += 1
        if trace.removed_index == args[1].mu:
            self.rejected += 1

    def _after_estimate(self, args, result, elapsed) -> None:
        self.accepted += result.trials
        self.attempts += result.attempts

    def _after_write(self, kind: str):
        def after(args, result, elapsed) -> None:
            self.bytes[kind] += getsize(args[1])

        return after

    # ------------------------------------------------------------------
    # per-layer metrics

    def self_ns(self) -> dict[str, int]:
        return {name: s[1] - s[2] for name, s in self.stats.items()}

    def metrics(self, jobs: int) -> dict[str, float]:
        """Every per-layer metric except ``trace.overhead_frac``.

        Per-call times are inclusive and 0 for a function the workload never
        calls; ``*.s``, ``*.bytes`` and ``analysis.calls`` are per job.
        """
        stats = self.stats
        steps = stats["ga.ga_step"][0]
        self_ns = self.self_ns()
        layer_self = Counter()
        for name, ns in self_ns.items():
            layer_self[name.split(".")[0]] += ns
        all_self = sum(layer_self.values())

        def calls(name):
            return stats.get(name, (0, 0, 0))[0]

        def per_call(name, unit_ns):
            c, total, _ = stats.get(name, (0, 0, 0))
            return total / c / unit_ns if c else 0.0

        def per_job(name):
            return stats.get(name, (0, 0, 0))[1] / 1e9 / jobs

        out = {}
        for leaf in ("uniform", "index", "random_bits", "binomial"):
            name = f"core.RandomStream.{leaf}"
            out[f"core.{leaf}.calls_per_step"] = calls(name) / steps
            out[f"core.{leaf}.ns_per_call"] = per_call(name, 1)
        for fn in ("uniform_crossover", "standard_bit_mutation", "random_index_subset", "jump_fitness"):
            out[f"core.{fn}.us_per_call"] = per_call(f"core.{fn}", 1e3)

        step_ns = list(self.step_ns)
        out["ga.ga_step.calls"] = steps
        out["ga.ga_step.us_p50"] = statistics.median(step_ns) / 1e3
        out["ga.ga_step.us_p99"] = statistics.quantiles(step_ns, n=100, method="inclusive")[98] / 1e3
        out["ga.ga_step.self_us"] = self_ns["ga.ga_step"] / steps / 1e3
        out["ga.population_build.us_per_call"] = per_call("ga.Population.__init__", 1e3)
        out["ga.step_trace_build.us_per_call"] = per_call("ga.StepTrace.__init__", 1e3)
        out["ga.run.self_us_per_step"] = self_ns.get("ga.run", 0) / steps / 1e3
        out["ga.offspring_rejected_frac"] = self.rejected / steps
        for event in ("crossover_close", "crossover_distant", "mutation_only"):
            out[f"ga.event.{event}_frac"] = self.events[event] / steps

        out["diversity.species_apply.us_per_call"] = per_call("diversity.SpeciesTracker.apply", 1e3)
        out["diversity.species_count.us_per_call"] = per_call("diversity.SpeciesTracker.count", 1e3)
        out["diversity.largest_class.us_per_call"] = per_call(
            "diversity.SpeciesTracker.largest_class", 1e3
        )
        out["diversity.pairwise_apply.us_per_call"] = per_call(
            "diversity.PairwiseDistanceTracker.apply", 1e3
        )
        out["diversity.pairwise_frequencies.us_per_call"] = per_call(
            "diversity.PairwiseDistanceTracker.frequencies", 1e3
        )

        out["experiments.self_s"] = layer_self["experiments"] / 1e9 / jobs
        out["experiments.accept_frac"] = self.accepted / self.attempts if self.attempts else 0.0
        out["experiments.two_species_population.us_per_call"] = per_call(
            "experiments.two_species_population", 1e3
        )

        analysis_calls = sum(s[0] for name, s in stats.items() if name.startswith("analysis."))
        out["analysis.calls"] = analysis_calls / jobs
        out["analysis.us_per_call"] = (
            layer_self["analysis"] / analysis_calls / 1e3 if analysis_calls else 0.0
        )

        for kind, fn in (("csv", "write_series_csv"), ("svg", "render_svg"), ("json", "write_json")):
            out[f"output.{kind}.s"] = per_job(f"output.{fn}")
            if kind != "json":
                out[f"output.{kind}.bytes"] = self.bytes[kind] / jobs

        out["cli.resolve_config.ms"] = per_call("cli.resolve_config", 1e6)
        out["cli.write_resolved_config.ms"] = per_call("cli.write_resolved_config", 1e6)

        for layer in LAYERS:
            out[f"{layer}.self_share"] = layer_self[layer] / all_self if all_self else 0.0
        return out

    def dump_spans(self, path) -> None:
        with open(path, "w") as f:
            json.dump(
                [
                    {"job": job, "name": name, "start_ns": s, "end_ns": e, "depth": d}
                    for job, name, s, e, d in self.spans
                ],
                f,
            )
