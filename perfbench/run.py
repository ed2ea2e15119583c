#!/usr/bin/env python3
"""relayfield benchmark: times a workload's in-process `relayfield.cli.main` calls.

    python3 perfbench/run.py --workload mc_sparse --seed 1 --seconds 20 --trace 0

Run from the repository root. The workload's calls (see workloads.py)
are repeated as passes until --seconds have elapsed, with relayfield's
quadrature caches cleared before each pass, as a fresh process would
start. Outputs of the first pass go through the correctness gates
(gates.py); later passes must write identical rows.

--trace 0 reports the end-to-end metrics with tracing off:
  setup_s      median over SETUP_PROBES fresh processes of the time from
               process start until relayfield and its dependencies are
               imported and the argument lists are built
  wall_s       median over passes of the summed wall time of the calls
  peak_rss_mb  larger of this process's and its reaped children's
               (pool workers') peak resident set size
--trace 1 alternates untraced and traced passes and reports the
per-layer metrics (tracing.py); the span JSON of the first traced pass
goes to .perfbench_out/, and the tracing overhead is printed.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. attempted counts the rows the passes
should write; failed counts those missing, written by a call that exited
non-zero, or failing a gate.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import io
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np
from scipy import integrate

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 3


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("mc_sparse", "mc_dense", "quad_grid", "k_opt"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe", action="store_true",
                   help="set-up probe: import, build the calls, print 'ready'")
    return p.parse_args(argv)


def require_sources() -> Path:
    src = ROOT / "src"
    if not (src / "relayfield" / "__init__.py").is_file():
        sys.exit(f"error: relayfield sources not found under {src}")
    return src


def load(workload: str, seed: int):
    """Import relayfield from this checkout's sources and build the calls."""
    sys.path.insert(0, str(require_sources()))
    from relayfield import cli

    import workloads
    return cli, workloads.build(workload, seed)


def measure_setup(args: argparse.Namespace) -> float:
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(
                [sys.executable, str(Path(__file__).resolve()), "--probe",
                 "--workload", args.workload, "--seed", str(args.seed),
                 "--seconds", "0"],
                stdout=subprocess.PIPE, text=True) as probe:
            line = probe.stdout.readline()
            times.append(time.perf_counter() - start)
            probe.stdout.read()
        if probe.returncode != 0 or line.strip() != "ready":
            sys.exit("error: set-up probe failed")
    return statistics.median(times)


def reference_s() -> float:
    """Wall time of a fixed kernel that resembles relayfield's hot paths.

    Python integrands through scipy's quad and small numpy draws from a
    Philox stream; it never changes, so its time tracks only the speed
    the machine gives this process at that moment.
    """
    start = time.perf_counter()
    for j in range(1, 400):
        c = 0.01 * j
        integrate.quad(lambda t: math.exp(-c * (t / (1.0 - t)) ** 2) / (1.0 - t) ** 2,
                       0.0, 1.0, epsabs=1e-10, epsrel=1e-8, limit=200)
    rng = np.random.Generator(np.random.Philox(key=np.array([1, 0], dtype=np.uint64)))
    for _ in range(1500):
        n = rng.poisson(20.0)
        gains = rng.random((2, n, 4))
        r = np.sqrt(rng.random(n))
        (gains[0] >= 0.3 * r[:, None]).all(axis=1).any()
    return time.perf_counter() - start


def clear_caches() -> None:
    for name, module in list(sys.modules.items()):
        if name == "relayfield" or name.startswith("relayfield."):
            for obj in vars(module).values():
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


def read_rows(path: Path) -> list[dict] | None:
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            return list(csv.DictReader(fh))
    except OSError:
        return None


class Ledger:
    """Rows attempted and failed; gates each call's first output once."""

    def __init__(self, calls, check):
        self.calls = calls
        self.check = check
        self.reference: list[tuple[list[dict], list[bool]] | None] = [None] * len(calls)
        self.attempted = 0
        self.failed = 0

    def account(self, i: int, rc: int, rows: list[dict] | None) -> None:
        call = self.calls[i]
        self.attempted += call.rows
        if rc != 0 or rows is None or len(rows) > call.rows:
            self.failed += call.rows
            return
        if self.reference[i] is None:
            self.reference[i] = (rows, self.check(call, rows))
        ref_rows, verdicts = self.reference[i]
        passing = sum(ok for row, ref, ok in zip(rows, ref_rows, verdicts)
                      if row == ref)
        self.failed += call.rows - passing


def run_pass(cli, calls, name: str, ledger: Ledger, tracer=None,
             reference: bool = False) -> tuple[float, float]:
    """One pass over the workload's calls.

    Returns their summed wall time and, with `reference`, that time
    relative to the reference kernel: the kernel runs before each call
    and after the last, each call is matched with the mean of the two
    kernel times around it, and the summed wall time is divided by the
    summed matches.
    """
    clear_caches()
    gc.collect()
    if tracer is not None:
        tracer.install()
    wall = ref = 0.0
    ref_before = reference_s() if reference else 0.0
    outputs = []
    try:
        for i, call in enumerate(calls):
            path = OUT / f"{name}-{i}.csv"
            path.unlink(missing_ok=True)
            argv = call.argv(str(path))
            if tracer is not None:
                tracer.call = i
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                start = time.perf_counter()
                try:
                    rc = cli.main(argv)
                except Exception:  # a crashing call fails its rows; keep measuring
                    rc = -1
                    traceback.print_exc()
                call_wall = time.perf_counter() - start
            wall += call_wall
            if reference:
                ref_after = reference_s()
                ref += 0.5 * (ref_before + ref_after)
                ref_before = ref_after
            if rc != 0:
                print(f"call {i} exited {rc}: {sink.getvalue()[-2000:]}",
                      file=sys.stderr)
            outputs.append((rc, path))
    finally:
        if tracer is not None:
            tracer.uninstall()
    for i, (rc, path) in enumerate(outputs):
        ledger.account(i, rc, read_rows(path))
    return wall, (wall / ref if reference else 0.0)


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def measure(args, cli, calls, ledger: Ledger) -> dict:
    deadline = time.perf_counter() + args.seconds
    walls, rels = [], []
    while not walls or time.perf_counter() < deadline:
        wall, rel = run_pass(cli, calls, args.workload, ledger, reference=True)
        walls.append(wall)
        rels.append(rel)
    print(f"passes = {len(walls)}; wall_s of each = {walls!r}")
    print(f"wall_s = {statistics.median(walls)!r} s")
    return {"wall_rel": (statistics.median(rels), "ratio"),
            "peak_rss_mb": (peak_rss_mb(), "MB")}


def measure_traced(args, cli, calls, ledger: Ledger) -> dict:
    import tracing

    points = sum(call.points for call in calls)
    deadline = time.perf_counter() + args.seconds
    # the first untraced pass pays first-call costs and is left out of
    # the overhead; after it, passes alternate traced and untraced
    untraced, traced, layers = [], [], []
    first_spans = None
    while len(untraced) < 2 or time.perf_counter() < deadline:
        if len(untraced) > len(traced):
            tracer = tracing.Tracer()
            traced.append(run_pass(cli, calls, args.workload, ledger, tracer)[0])
            layers.append(tracer.layer_metrics(points))
            if first_spans is None:
                first_spans = tracer.span_records()
        else:
            untraced.append(run_pass(cli, calls, args.workload, ledger)[0])
    for name in tracing.EXACT:
        if any(run[name] != layers[0][name] for run in layers):
            print(f"warning: {name} differs between traced passes", file=sys.stderr)
    overhead = statistics.median(traced) - statistics.median(untraced[1:])
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "traced_wall_s": traced, "untraced_wall_s": untraced,
                   "trace_overhead_s": overhead, "layer_metrics": layers,
                   "spans": first_spans}, fh)
    print(f"passes = {len(untraced)} untraced, {len(traced)} traced")
    print(f"trace_overhead_s = {overhead!r} s (traced minus untraced wall_s)")
    print(f"spans written to {spans_path}")
    values = tracing.combine(layers)
    return {name: (values[name], unit) for name, unit in tracing.PER_LAYER}


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    require_sources()
    if args.probe:
        load(args.workload, args.seed)
        print("ready", flush=True)
        return 0
    setup_s = measure_setup(args) if args.trace == 0 else None
    cli, calls = load(args.workload, args.seed)
    OUT.mkdir(exist_ok=True)
    import gates
    ledger = Ledger(calls, gates.check)
    if args.trace:
        metrics = measure_traced(args, cli, calls, ledger)
    else:
        metrics = {"setup_s": (setup_s, "s"), **measure(args, cli, calls, ledger)}
    failed_frac = ledger.failed / ledger.attempted
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    print(f"failed_frac = {failed_frac!r} fraction "
          f"({ledger.failed} of {ledger.attempted} rows)")
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
