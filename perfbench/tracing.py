"""Per-layer tracing from outside the program.

`Tracer.install` wraps the public functions of each relayfield layer
module and re-binds every name other relayfield modules imported them
under, so calls between layers pass through the wrappers. Each wrapper
records a span (layer, function, start, end, parent span, the
`cli.main` call it belongs to). `scipy.integrate.quad` is wrapped to
count quadrature calls and their integrand evaluations at the scipy
boundary. Spans stay in memory until `uninstall`; `layer_metrics` turns
them into the per-layer metrics and `span_records` into JSON records.

A layer's self time is the time its spans cover minus the time their
child spans cover.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import os
import statistics
import sys
import time
from dataclasses import asdict, dataclass

from scipy import integrate

LAYERS = ("cli", "simulation", "analytic", "metrics", "optimize")
# cli's public entry points (main, parse_config) are what the benchmark
# calls; the layer's own work is the sweep.
CLI_TRACED = ("run_sweep",)
U_FUNCTIONS = ("u_disc", "u_plane")
SOLVERS = ("optimize_K_unconstrained", "optimize_K_constrained")

# (name, unit): the per-layer metrics, in BENCHMARK.json order
PER_LAYER = (
    ("simulation.calls_per_point", "calls/point"),
    ("simulation.us_per_trial", "us"),
    ("simulation.busy_s", "s"),
    ("simulation.cpu_util", "ratio"),
    ("simulation.empty_fraction", "fraction"),
    ("analytic.u_calls", "count"),
    ("analytic.u_hit_rate", "fraction"),
    ("analytic.quad_calls", "count"),
    ("analytic.integrand_evals", "count"),
    ("analytic.ms_per_cold_u", "ms"),
    ("analytic.us_per_eval", "us"),
    ("analytic.self_s", "s"),
    ("metrics.calls", "count"),
    ("metrics.self_s", "s"),
    ("optimize.solves", "count"),
    ("optimize.kappa_evals_per_solve", "count"),
    ("optimize.u_calls_per_solve", "count"),
    ("optimize.self_s", "s"),
    ("cli.self_s", "s"),
)
# Metrics fixed by the inputs alone: they repeat exactly for a seed.
EXACT = ("simulation.calls_per_point", "analytic.u_calls",
         "analytic.u_hit_rate", "analytic.quad_calls",
         "analytic.integrand_evals", "metrics.calls", "optimize.solves",
         "optimize.kappa_evals_per_solve", "optimize.u_calls_per_solve")


@dataclass
class Span:
    id: int
    parent: int | None
    call: int
    layer: str
    name: str
    start: float
    end: float = 0.0
    child_s: float = 0.0
    quad_calls: int = 0
    cpu_s: float = 0.0
    trials: int = 0
    workers: int = 0
    empty_fraction: float | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


def _cpu_s() -> float:
    """CPU time of this process plus its reaped children (pool workers)."""
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.call = 0
        self.quad_calls = 0
        self.integrand_evals = 0
        self.quad_s = 0.0
        self._stack: list[Span] = []
        self._quad_depth = 0
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"relayfield.{layer}")
            for name, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not name.startswith("_")
                        and (layer != "cli" or name in CLI_TRACED)):
                    wrappers[obj] = self._wrap(layer, name, obj)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "relayfield" and not mod_name.startswith("relayfield."):
                continue
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._rebind(module, name, wrappers[obj])
        self._rebind(integrate, "quad", self._count_quad(integrate.quad))

    def uninstall(self) -> None:
        for namespace, name, original in reversed(self._saved):
            setattr(namespace, name, original)
        self._saved.clear()

    def _rebind(self, namespace, name: str, replacement) -> None:
        self._saved.append((namespace, name, getattr(namespace, name)))
        setattr(namespace, name, replacement)

    def _wrap(self, layer: str, name: str, fn):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(len(self.spans), parent.id if parent else None,
                        self.call, layer, name, time.perf_counter())
            self.spans.append(span)
            self._stack.append(span)
            quad0, cpu0 = self.quad_calls, _cpu_s() if layer == "simulation" else 0.0
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                span.quad_calls = self.quad_calls - quad0
                if parent is not None:
                    parent.child_s += span.duration
            if layer == "simulation":
                span.cpu_s = _cpu_s() - cpu0
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.trials = int(bound.arguments.get("trials", 0))
                span.workers = max(1, int(bound.arguments.get("n_workers", 1)))
                estimates = result.values() if isinstance(result, dict) else [result]
                span.empty_fraction = next(
                    (e.empty_fraction for e in estimates
                     if hasattr(e, "empty_fraction")), None)
            return result

        return traced

    def _count_quad(self, quad):
        @functools.wraps(quad)
        def counted(*args, **kwargs):
            self.quad_calls += 1
            outermost = self._quad_depth == 0
            self._quad_depth += 1
            start = time.perf_counter()
            try:
                result = quad(*args, **kwargs)
            finally:
                self._quad_depth -= 1
                if outermost:
                    self.quad_s += time.perf_counter() - start
            # neval is reported only with full_output, which relayfield requests
            if (isinstance(result, tuple) and len(result) > 2
                    and isinstance(result[2], dict)):
                self.integrand_evals += int(result[2].get("neval", 0))
            return result

        return counted

    def layer_metrics(self, points: int) -> dict[str, float]:
        """The PER_LAYER metrics of the spans recorded so far."""
        spans = self.spans
        self_s = {layer: 0.0 for layer in LAYERS}
        for s in spans:
            self_s[s.layer] += s.self_s

        def outermost(s: Span) -> bool:
            return s.parent is None or spans[s.parent].layer != s.layer

        sim = [s for s in spans if s.layer == "simulation" and outermost(s)]
        busy = float(sum(s.duration for s in sim))
        trials = sum(s.trials for s in sim)
        sim_calls = [s for s in spans if s.name == "estimate_outage_both"]
        empties = [(s.empty_fraction, s.trials) for s in sim_calls
                   if s.empty_fraction is not None]

        u = [s for s in spans if s.layer == "analytic" and s.name in U_FUNCTIONS]
        cold = [s for s in u if s.quad_calls]

        # solve_of[i]: the outermost optimiser solve span i runs under
        solve_of: list[int | None] = []
        for s in spans:
            root = solve_of[s.parent] if s.parent is not None else None
            if root is None and s.layer == "optimize" and s.name in SOLVERS:
                root = s.id
            solve_of.append(root)
        solves = sum(1 for s in spans if solve_of[s.id] == s.id)
        in_solve = [s for s in spans if solve_of[s.id] is not None]

        return {
            "simulation.calls_per_point": _ratio(len(sim_calls), points),
            "simulation.us_per_trial": _ratio(busy, trials) * 1e6,
            "simulation.busy_s": busy,
            "simulation.cpu_util": _ratio(sum(s.cpu_s for s in sim),
                                          sum(s.duration * s.workers for s in sim)),
            "simulation.empty_fraction": _ratio(sum(e * n for e, n in empties),
                                                sum(n for _, n in empties)),
            "analytic.u_calls": len(u),
            "analytic.u_hit_rate": _ratio(len(u) - len(cold), len(u)),
            "analytic.quad_calls": self.quad_calls,
            "analytic.integrand_evals": self.integrand_evals,
            "analytic.ms_per_cold_u": _ratio(sum(s.duration for s in cold), len(cold)) * 1e3,
            "analytic.us_per_eval": _ratio(self.quad_s, self.integrand_evals) * 1e6,
            "analytic.self_s": self_s["analytic"],
            "metrics.calls": sum(1 for s in spans if s.layer == "metrics"),
            "metrics.self_s": self_s["metrics"],
            "optimize.solves": solves,
            "optimize.kappa_evals_per_solve": _ratio(
                sum(1 for s in in_solve if s.name == "throughput"), solves),
            "optimize.u_calls_per_solve": _ratio(
                sum(1 for s in in_solve if s.layer == "analytic"
                    and s.name in U_FUNCTIONS), solves),
            "optimize.self_s": self_s["optimize"],
            "cli.self_s": self_s["cli"],
        }

    def span_records(self) -> list[dict]:
        origin = self.spans[0].start if self.spans else 0.0
        records = []
        for s in self.spans:
            record = asdict(s)
            record["start"] -= origin
            record["end"] -= origin
            record["self_s"] = s.self_s
            records.append(record)
        return records


def combine(runs: list[dict[str, float]]) -> dict[str, float]:
    """Exact counts from the first traced pass, medians for the rest."""
    return {name: runs[0][name] if name in EXACT
            else statistics.median(r[name] for r in runs)
            for name, _ in PER_LAYER}
