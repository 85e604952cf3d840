"""In-memory span tracer and the per-layer numbers derived from its spans.

``Tracer.install`` wraps every public function of every platformsim module
and rebinds the wrapper wherever the package holds a reference to the
original (the defining module, modules that imported it by name, and the
package namespace), so internal calls such as ``presets -> run_scenario``
are traced. It also counts process pools and the jobs mapped onto them.

A span is ``[name, start_ns, end_ns, parent, run_id]``: ``parent`` is the
index of the enclosing span (-1 at the root) and ``run_id`` numbers the
top-level ``cli.main`` / ``presets.run_preset`` calls. Self time is a span's
duration minus the durations of its direct children; calls in one process
are sequential, so children never overlap.

Counts marked *computed* are derived from the traced arguments, not counted
where the work happens.
"""

from __future__ import annotations

import concurrent.futures
import functools
import importlib
import inspect
import json
import statistics
import time

MODULES = (
    "adjust", "cli", "correlation", "designs", "distributions",
    "engine", "metrics", "presets", "sample_size",
)
ROOT_SPANS = {"cli.main", "presets.run_preset", "presets.run_config"}
DESIGN_BUILDERS = {
    "designs.build_fixed_design", "designs.build_staggered_design", "designs.build_budget_design",
}
COMPUTED = ("engine.normals_drawn", "engine.bytes_drawn_computed")
FLOAT64_BYTES = 8


def _scenario_config(args, kwargs):
    return args[0]


def _policy_method(args, kwargs):
    return args[0].method.value


CAPTURE = {"engine.run_scenario": _scenario_config, "adjust.critical_value": _policy_method}


def _quantile_ms(durations_ns, q):
    if not durations_ns:
        return 0.0
    if len(durations_ns) == 1:
        return durations_ns[0] / 1e6
    return statistics.quantiles(durations_ns, n=100, method="inclusive")[q - 1] / 1e6


class Tracer:
    def __init__(self):
        self.spans = []
        self.attrs = {}  # span index -> captured arguments
        self.enabled = False
        self.pool_starts = 0
        self.jobs = 0
        self._stack = []
        self._run_id = -1

    def _wrap(self, name, fn):
        tracer = self
        capture = CAPTURE.get(name)
        is_root = name in ROOT_SPANS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack
            if is_root and not stack:
                tracer._run_id += 1
            index = len(tracer.spans)
            span = [name, 0, 0, stack[-1] if stack else -1, tracer._run_id]
            if capture is not None:
                tracer.attrs[index] = capture(args, kwargs)
            tracer.spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter_ns()
                stack.pop()

        return traced

    def install(self):
        package = importlib.import_module("platformsim")
        modules = [importlib.import_module(f"platformsim.{m}") for m in MODULES]
        namespaces = [package] + modules
        for module in modules:
            short = module.__name__.rsplit(".", 1)[1]
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                wrapper = self._wrap(f"{short}.{attr}", fn)
                for namespace in namespaces:
                    for key, value in list(vars(namespace).items()):
                        if value is fn:
                            setattr(namespace, key, wrapper)
        self._install_pool_counter()

    def _install_pool_counter(self):
        # the engine looks the executor up as concurrent.futures.ProcessPoolExecutor
        tracer = self
        base = concurrent.futures.ProcessPoolExecutor

        class CountingPool(base):
            def __init__(self, *args, **kwargs):
                if tracer.enabled:
                    tracer.pool_starts += 1
                super().__init__(*args, **kwargs)

            def map(self, fn, *iterables, **kwargs):
                first = list(iterables[0])
                if tracer.enabled:
                    tracer.jobs += len(first)
                return super().map(fn, first, *iterables[1:], **kwargs)

        concurrent.futures.ProcessPoolExecutor = CountingPool

    def replay_zstat_blocks(self) -> float:
        """Seconds to redraw every traced scenario's z-statistics, serially."""
        from platformsim import engine

        start = time.perf_counter()
        configs = [self.attrs[i] for i, s in enumerate(self.spans) if s[0] == "engine.run_scenario"]
        for config in configs:
            for _ in engine.iter_zstat_blocks(
                config.design, config.effects, config.reps, config.seed, config.mode
            ):
                pass
        return time.perf_counter() - start

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, run_id in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "run": run_id}))
                fh.write("\n")

    def layer_metrics(self, bytes_written: int) -> dict:
        spans = self.spans
        duration = [end - start for _, start, end, _, _ in spans]
        child_ns = [0] * len(spans)
        in_search = [False] * len(spans)
        for i, (name, _, _, parent, _) in enumerate(spans):
            if parent >= 0:
                child_ns[parent] += duration[i]
                in_search[i] = in_search[parent]
            if name == "sample_size.required_per_arm_n":
                in_search[i] = True

        def picked(names):
            return [i for i, span in enumerate(spans) if span[0] in names]

        def total_s(indices):
            return sum(duration[i] for i in indices) / 1e9

        def self_s(indices):
            return sum(duration[i] - child_ns[i] for i in indices) / 1e9

        scenarios = picked({"engine.run_scenario"})
        configs = [self.attrs[i] for i in scenarios]
        reps = sum(c.reps for c in configs)
        normals = 0
        for c in configs:
            counts = [n for row in c.design.recruitment for n in row if n > 0]
            normals += c.reps * (sum(counts) if c.mode.value == "patient" else len(counts))
        scenario_ns = sorted(duration[i] for i in scenarios)
        searches = picked({"sample_size.required_per_arm_n"})
        search_ns = sorted(duration[i] for i in searches)
        thresholds = picked({"adjust.critical_value"})
        dunnett_policy = sum(1 for i in thresholds if self.attrs[i] == "dunnett")
        solves = picked({"distributions.dunnett_critical_value"})
        solve_ns = sorted(duration[i] for i in solves)
        builds = picked(DESIGN_BUILDERS)  # builders never call each other
        correlations = picked({"correlation.analytic_correlation"})
        aggregates = picked({"metrics.characteristics_from_counts"})
        entries = picked({"presets.run_preset", "presets.run_config"})
        engine_s = total_s(scenarios)
        return {
            "engine.scenarios": len(scenarios),
            "engine.run_scenario_s": engine_s,
            "engine.self_s": self_s(scenarios),
            "engine.scenario_ms_p50": _quantile_ms(scenario_ns, 50),
            "engine.scenario_ms_p90": _quantile_ms(scenario_ns, 90),
            "engine.reps_per_s": reps / engine_s if engine_s > 0 else 0.0,
            "engine.normals_drawn": normals,
            "engine.bytes_drawn_computed": normals * FLOAT64_BYTES,
            "engine.pool_starts": self.pool_starts,
            "engine.jobs": self.jobs,
            "sample_size.required_n_calls": len(searches),
            "sample_size.required_n_s": total_s(searches),
            "sample_size.required_n_ms_p50": _quantile_ms(search_ns, 50),
            "sample_size.required_n_ms_p90": _quantile_ms(search_ns, 90),
            "sample_size.threshold_evals": sum(1 for i in thresholds if in_search[i]),
            "correlation.analytic_calls": len(correlations),
            "correlation.analytic_s": total_s(correlations),
            "designs.build_calls": len(builds),
            "designs.build_s": total_s(builds),
            "adjust.critical_value_calls": len(thresholds),
            "adjust.critical_value_s": total_s(thresholds),
            "adjust.dunnett_policy_calls": dunnett_policy,
            "adjust.dunnett_solves": len(solves),
            "adjust.dunnett_hit_ratio": 1.0 - len(solves) / dunnett_policy if dunnett_policy else 0.0,
            "distributions.dunnett_calls": len(solves),
            "distributions.dunnett_s": total_s(solves),
            "distributions.dunnett_ms_p50": _quantile_ms(solve_ns, 50),
            "metrics.aggregate_calls": len(aggregates),
            "metrics.aggregate_s": total_s(aggregates),
            "presets.run_preset_s": total_s(entries),
            "presets.self_s": self_s(entries),
            "presets.bytes_written": bytes_written,
            "trace.spans": len(spans),
        }
